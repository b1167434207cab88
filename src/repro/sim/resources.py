"""Shared resources with queueing for the simulation kernel.

Three resource disciplines cover everything the hardware and engine models
need:

* :class:`FcfsServer` — *c* identical servers with a FIFO queue (used for
  lock grants and admission control),
* :class:`ProcessorSharingServer` — a fluid capacity shared equally among
  active jobs (used for cores and for bandwidth-shared devices),
* :class:`TokenBucket` — a rate limiter (used for cgroup blkio read/write
  bandwidth caps and DRAM channel limits).
"""

from __future__ import annotations

import math
from collections import deque
from typing import Callable, Deque, Generator, List, Optional

from repro.errors import SimulationError
from repro.sim.process import Simulator, Timeout, WaitEvent
from repro.sim.waterfill import WaterfillServer


class FcfsServer:
    """*capacity* identical servers with a FIFO wait queue.

    Usage from a process generator::

        yield from server.acquire()
        ...  # hold
        server.release()
    """

    def __init__(self, sim: Simulator, capacity: int, name: str = "fcfs"):
        if capacity < 1:
            raise SimulationError(f"{name}: capacity must be >= 1, got {capacity}")
        self._sim = sim
        self.capacity = capacity
        self.name = name
        self._in_use = 0
        self._queue: Deque[WaitEvent] = deque()
        # Accounting for wait-time analyses (e.g. Table 3 lock waits).
        self.total_wait_time = 0.0
        self.total_acquisitions = 0

    @property
    def in_use(self) -> int:
        return self._in_use

    @property
    def queue_length(self) -> int:
        return len(self._queue)

    def set_capacity(self, capacity: int) -> None:
        """Change the server count at runtime (e.g. core offlining).

        Shrinking never preempts holders: ``in_use`` may exceed the new
        capacity until enough releases drain it, after which grants
        follow the new limit.  Growing wakes queued waiters immediately.
        """
        if capacity < 1:
            raise SimulationError(f"{self.name}: capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        # Wake one queued waiter per newly-free slot (each increments
        # in_use itself when it resumes, so count the grants locally).
        for _ in range(min(len(self._queue), max(0, self.capacity - self._in_use))):
            self._queue.popleft().trigger()

    def acquire(self) -> Generator:
        """Generator: suspends until a server slot is free."""
        start = self._sim.now
        if self._in_use < self.capacity and not self._queue:
            self._in_use += 1
        else:
            gate = self._sim.event()
            self._queue.append(gate)
            yield gate
            self._in_use += 1
        self.total_wait_time += self._sim.now - start
        self.total_acquisitions += 1
        return None

    def release(self) -> None:
        if self._in_use <= 0:
            raise SimulationError(f"{self.name}: release without acquire")
        self._in_use -= 1
        if self._queue and self._in_use < self.capacity:
            self._queue.popleft().trigger()


class ProcessorSharingServer(WaterfillServer):
    """A fluid resource of fixed total capacity shared equally by jobs.

    A job submits an amount of *work* (in capacity-units × seconds at full
    speed).  While *n* jobs are active each receives ``capacity / n`` of the
    rate.  Scheduling is :class:`~repro.sim.waterfill.WaterfillServer`'s —
    one completion timer, re-planned whenever the active set changes —
    which makes the model exact for egalitarian processor sharing.
    """

    _finite_caps = False

    def __init__(self, sim: Simulator, capacity: float, name: str = "ps"):
        super().__init__(sim, capacity, name)

    def _shares(self, caps: List[float]) -> List[float]:
        return [self._capacity / len(caps)] * len(caps)

    def submit(self, work: float) -> Generator:
        """Generator: suspends until *work* capacity-seconds are served."""
        return super().submit(work, cap=math.inf)


class TokenBucket:
    """A byte-rate limiter with optional burst capacity.

    ``yield from take(nbytes)`` suspends the calling process until
    *nbytes* of tokens have accumulated; :meth:`consume` is the callback
    form underneath it, for callers that are not processes (a storage
    transfer walks its chunks through two buckets by grant callbacks).
    With ``rate=None`` the bucket is unlimited and never blocks — this
    models an uncapped cgroup.  Requests are served FIFO, so a large
    request cannot be starved.

    Not the same job as :class:`~repro.fleet.hedging.RetryBudget`, the
    lazy admit/deny bucket: this one makes byte streams wait, keeps a
    FIFO of timers, and interpolates ``served_bytes`` between grants.
    """

    def __init__(
        self,
        sim: Simulator,
        rate: Optional[float],
        burst: float = 0.0,
        name: str = "bucket",
    ):
        if rate is not None and not 0 < rate < math.inf:
            raise SimulationError(f"{name}: rate must be positive and finite, or None; got rate={rate}")
        self._sim = sim
        self.rate = rate
        self.burst = max(0.0, burst)
        self.name = name
        self._tokens = self.burst
        self._last_refill = 0.0
        self._queue: Deque = deque()
        self._timer = None
        self.total_consumed = 0.0
        # In-flight head request, for smooth consumption accounting:
        # (start_time, finish_time, nbytes).
        self._in_flight = None

    def set_rate(self, rate: Optional[float]) -> None:
        """Change the cap at runtime (models rewriting the cgroup limit)."""
        self._refill()
        if rate is not None and not 0 < rate < math.inf:
            raise SimulationError(f"{self.name}: rate must be positive and finite, or None; got rate={rate}")
        self.rate = rate
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        self._kick()

    def _refill(self) -> None:
        now = self._sim.now
        if self.rate is not None:
            self._tokens += self.rate * (now - self._last_refill)
            # The burst cap only applies while the bucket is idle; a pending
            # request may accumulate an arbitrarily large budget (it will be
            # consumed in full the moment it is served).
            if not self._queue:
                self._tokens = min(self.burst, self._tokens)
        self._last_refill = now

    @property
    def served_bytes(self) -> float:
        """Bytes served so far, with the in-flight request interpolated
        linearly — keeps 1-second counter sampling smooth without having
        to split large transfers into many events."""
        total = self.total_consumed
        if self._in_flight is not None:
            start, finish, nbytes = self._in_flight
            span = finish - start
            if span > 0:
                progress = min(1.0, max(0.0, (self._sim.now - start) / span))
                total += nbytes * progress
        return total

    def consume(self, nbytes: float, on_grant: Callable[[], None]) -> bool:
        """Ask for *nbytes* of budget; the one way into the FIFO queue.

        Returns ``True`` when the request passes straight through — the
        bucket is unlimited or *nbytes* is zero — in which case it is
        already credited to ``total_consumed`` and *on_grant* is never
        called.  Otherwise returns ``False`` and calls ``on_grant()`` at
        the instant the budget is granted, possibly before returning.
        The caller then credits ``total_consumed`` itself once it has
        acted on the grant (:meth:`take` does so when its process
        resumes), so per-interval rates derived from it never exceed the
        configured cap.
        """
        if not nbytes >= 0:
            raise SimulationError(f"{self.name}: negative consume nbytes={nbytes}")
        if self.rate is None or nbytes == 0:
            self.total_consumed += nbytes
            return True
        # Apply the idle burst cap *before* enqueuing: once a request is
        # pending, accumulated tokens are uncapped (they'll be consumed),
        # so an idle period must not bank unlimited credit.
        self._refill()
        self._queue.append((nbytes, on_grant))
        self._kick()
        return False

    def take(self, nbytes: float) -> Generator:
        """Generator: suspends until *nbytes* of budget is granted."""
        gate = self._sim.event()
        if self.consume(nbytes, gate.trigger):
            return None
        yield gate
        self.total_consumed += nbytes
        return None

    def _kick(self) -> None:
        if self._timer is None:
            self._drain()

    def _drain(self) -> None:
        self._refill()
        while self._queue:
            nbytes, on_grant = self._queue[0]
            if self.rate is None:
                self._queue.popleft()
                on_grant()
                continue
            # Tolerate float rounding: a sub-byte deficit (or one below a
            # relative epsilon) is considered satisfied — otherwise the
            # timer delay can fall below the clock's representable
            # resolution and the drain loop would never advance time.
            if self._tokens >= nbytes - max(1.0, nbytes * 1e-9):
                self._tokens = max(0.0, self._tokens - nbytes)
                self._queue.popleft()
                on_grant()
                continue
            deficit = nbytes - self._tokens
            # Clamp the delay to something the simulation clock can
            # resolve at any plausible magnitude of `now`.
            delay = max(deficit / self.rate, 1e-9)
            self._in_flight = (self._sim.now, self._sim.now + delay, nbytes)
            self._timer = self._sim.loop.schedule_after(delay, self._on_timer)
            return
        self._in_flight = None

    def _on_timer(self, _event) -> None:
        self._timer = None
        self._in_flight = None
        self._drain()
