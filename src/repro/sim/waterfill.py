"""Capacity sharing with per-job rate caps (water-filling).

The CPU model needs a resource where total capacity ``C`` is shared among
jobs, but job *i* can never use more than its own cap ``m_i`` (a query with
degree of parallelism 4 cannot occupy more than 4 cores even if 32 are
idle).  The fair allocation is *water-filling*: start from an equal split
and redistribute the share that capped jobs cannot use among the rest.
"""

from __future__ import annotations

import math
from typing import Dict, Generator, List, Optional, Sequence

from repro.errors import SimulationError
from repro.sim.events import Event
from repro.sim.process import Simulator, WaitEvent


def waterfill(
    capacity: float,
    caps: Sequence[float],
    weights: Optional[Sequence[float]] = None,
) -> List[float]:
    """Allocate *capacity* among jobs with per-job maxima *caps*.

    Shares are proportional to *weights* (default: the caps themselves,
    so a 32-worker query weighs 32 times a single-worker transaction),
    clipped at each job's cap, with the excess redistributed among the
    unsaturated jobs.

    >>> waterfill(10.0, [1.0, 100.0, 100.0], weights=[1.0, 1.0, 1.0])
    [1.0, 4.5, 4.5]
    """
    n = len(caps)
    if n == 0:
        return []
    if capacity < 0:
        raise SimulationError("negative capacity")
    if weights is None:
        weights = list(caps)
    if len(weights) != n:
        raise SimulationError("weights must match caps")
    if any(w <= 0 for w in weights):
        raise SimulationError("weights must be positive")
    rates = [0.0] * n
    remaining = capacity
    active = list(range(n))
    while active and remaining > 1e-15:
        total_weight = sum(weights[i] for i in active)
        shares = {i: remaining * weights[i] / total_weight for i in active}
        saturated = [i for i in active if caps[i] - rates[i] <= shares[i]]
        if not saturated:
            for i in active:
                rates[i] += shares[i]
            break
        for i in saturated:
            remaining -= caps[i] - rates[i]
            rates[i] = caps[i]
        saturated_set = set(saturated)
        active = [i for i in active if i not in saturated_set]
    return rates


class WaterfillServer:
    """Processor-sharing server with per-job rate caps.

    Jobs submit an amount of work and a cap on the rate at which they may
    be served.  At any instant rates follow :func:`waterfill`.  Rates only
    change when the active set or the capacity does, so each change
    computes them once and caches them on the jobs; progress between
    changes is drained at the cached rates.  The server keeps a single
    completion timer in the event loop, posted for the earliest finisher
    (ties go to the earliest submitted job) and re-posted on each change,
    so a change costs one event however many jobs are active.
    """

    class _Job:
        __slots__ = ("remaining", "cap", "gate", "rate")

        def __init__(self, remaining: float, cap: float, gate: WaitEvent):
            self.remaining = remaining
            self.cap = cap
            self.gate = gate
            self.rate = 0.0

    def __init__(self, sim: Simulator, capacity: float, name: str = "waterfill"):
        if capacity <= 0:
            raise SimulationError(f"{name}: capacity must be positive")
        self._sim = sim
        self._capacity = capacity
        self.name = name
        self._jobs: Dict[int, WaterfillServer._Job] = {}
        self._next_id = 0
        self._last_update = 0.0
        self._timer: Optional[Event] = None
        self.total_work_done = 0.0

    @property
    def capacity(self) -> float:
        return self._capacity

    def set_capacity(self, capacity: float) -> None:
        """Change total capacity at runtime (e.g. cpuset change)."""
        if capacity <= 0:
            raise SimulationError(f"{self.name}: capacity must be positive")
        self._advance()
        self._capacity = capacity
        self._reschedule()

    @property
    def active_jobs(self) -> int:
        return len(self._jobs)

    def active_weight(self) -> float:
        """Sum of the active jobs' rate caps (busy-core estimate)."""
        return sum(min(job.cap, self._capacity) for job in self._jobs.values())

    def utilization(self, end_time: float) -> float:
        """Mean fraction of capacity in use over [0, end_time]."""
        self._advance()
        if end_time <= 0:
            return 0.0
        return self.total_work_done / (self._capacity * end_time)

    def _shares(self, caps: List[float]) -> List[float]:
        """Rates for active jobs with rate caps *caps*, in submit order."""
        return waterfill(self._capacity, caps)

    def _advance(self) -> None:
        """Drain the progress made at the cached rates since the last call."""
        now = self._sim.now
        elapsed = now - self._last_update
        if elapsed > 0 and self._jobs:
            total = self.total_work_done
            for job in self._jobs.values():
                done = job.rate * elapsed
                left = job.remaining - done
                job.remaining = left if left > 0.0 else 0.0
                total += done
            self.total_work_done = total
        self._last_update = now

    def _reschedule(self) -> None:
        """Re-rate the active jobs and re-post the completion timer."""
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        jobs = self._jobs
        if not jobs:
            return
        now = self._sim.now
        rates = self._shares([job.cap for job in jobs.values()])
        # Earliest finish time, first submitted on ties: the order a heap
        # of per-job ``(time, seq)`` completion events would fire in.
        first, first_time = -1, math.inf
        for (job_id, job), rate in zip(jobs.items(), rates):
            job.rate = rate
            finish = now + job.remaining / rate if rate > 0 else math.inf
            if first < 0 or finish < first_time:
                first, first_time = job_id, finish
        self._timer = self._sim.loop.schedule_at(first_time, self._complete, first)

    def _complete(self, timer: Event) -> None:
        self._timer = None
        self._advance()
        job = self._jobs.pop(timer.payload)
        # Re-arm before waking the owner, so the next timer precedes the
        # owner's resumption among events at the same instant.
        self._reschedule()
        job.gate.trigger()

    def submit(self, work: float, cap: float) -> Generator:
        """Generator: suspends until *work* is served at rate <= *cap*."""
        if work < 0:
            raise SimulationError(f"{self.name}: negative work {work}")
        if cap <= 0:
            raise SimulationError(f"{self.name}: cap must be positive")
        if work == 0:
            return None
        self._advance()
        gate = self._sim.event()
        self._jobs[self._next_id] = WaterfillServer._Job(work, cap, gate)
        self._next_id += 1
        self._reschedule()
        yield gate
        return None
