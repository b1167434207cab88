"""Shared resources with queueing for the simulation kernel.

Two resource disciplines sit beside the capped processor sharing of
:mod:`repro.sim.waterfill`:

* :class:`FcfsServer` — *c* identical servers with a FIFO queue (used for
  lock grants and admission control),
* :class:`TokenBucket` — a rate limiter (used for cgroup blkio read/write
  bandwidth caps and the NVMe device's own bandwidth).  Every storage
  chunk of the OLAP figures passes through two of them, so a consume
  refills at most once and decides an idle bucket's grant on the spot.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Callable, Deque, Generator, Optional

from repro.errors import SimulationError
from repro.sim.process import Simulator, WaitEvent


class FcfsServer:
    """*capacity* identical servers with a FIFO wait queue.

    Usage from a process generator::

        yield from server.acquire()
        ...  # hold
        server.release()

    A hot path writes ``if not server.try_acquire(): yield from
    server.acquire()`` instead, which builds no generator when a slot is
    free and nobody queues.
    """

    def __init__(self, sim: Simulator, capacity: int, name: str = "fcfs"):
        if not capacity >= 1:
            raise SimulationError(f"{name}: capacity must be >= 1, got capacity={capacity}")
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
        if not capacity >= 1:
            raise SimulationError(f"{self.name}: capacity must be >= 1, got capacity={capacity}")
        self.capacity = capacity
        # Wake one queued waiter per newly-free slot (each increments
        # in_use itself when it resumes, so count the grants locally).
        for _ in range(min(len(self._queue), max(0, self.capacity - self._in_use))):
            self._queue.popleft().trigger()

    def try_acquire(self) -> bool:
        """Take a free slot at once if nobody queues; ``True`` on success.

        The non-generator fast path of :meth:`acquire`, with the same
        accounting (a zero wait).  On ``False`` nothing changed and the
        caller falls back to ``yield from acquire()``.
        """
        if self._in_use < self.capacity and not self._queue:
            self._in_use += 1
            self.total_wait_time += 0.0
            self.total_acquisitions += 1
            return True
        return False

    def acquire(self) -> Generator:
        """Generator: suspends until a server slot is free."""
        if self.try_acquire():
            return None
        loop = self._sim.loop
        start = loop._now
        gate = WaitEvent(self._sim)
        self._queue.append(gate)
        yield gate
        self._in_use += 1
        self.total_wait_time += loop._now - start
        self.total_acquisitions += 1
        return None

    def release(self) -> None:
        if self._in_use <= 0:
            raise SimulationError(f"{self.name}: release without acquire")
        self._in_use -= 1
        if self._queue and self._in_use < self.capacity:
            self._queue.popleft().trigger()


class TokenBucket:
    """A byte-rate limiter with optional burst capacity.

    ``yield from take(nbytes)`` suspends the calling process until
    *nbytes* of tokens have accumulated; :meth:`consume` is the callback
    form underneath it, for callers that are not processes (a storage
    transfer walks its chunks through two buckets by grant callbacks).
    With ``rate=None`` the bucket is unlimited and never blocks — this
    models an uncapped cgroup.  Requests are served FIFO, so a large
    request cannot be starved.

    Tokens accrue lazily: whoever touches the bucket first at a new
    instant (a consume, the head's timer, a rate change) adds
    ``rate * (now - last)`` once, and the idle burst cap
    ``min(burst, tokens)`` applies whenever the queue is empty.  A
    request that finds the bucket idle (empty queue, no timer) is granted
    or has its timer armed straight from :meth:`consume`; only a request
    that queues behind another waits for :meth:`_drain`, which the head's
    timer runs.  Both paths do the same float operations in the same
    order, so where a request enters never changes a grant instant.

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
        self._loop = sim.loop
        self.rate = rate
        self.burst = max(0.0, burst)
        self.name = name
        self._tokens = self.burst
        self._last_refill = 0.0
        self._queue: Deque = deque()
        # A queued grant callback may hold this bucket (a storage
        # transfer walks two buckets), so the queue goes with the run.
        sim.on_close(self._queue.clear)
        self._timer = None
        self.total_consumed = 0.0
        # In-flight head request, for smooth consumption accounting:
        # (start_time, finish_time, nbytes).
        self._in_flight = None

    def set_rate(self, rate: Optional[float]) -> None:
        """Change the cap at runtime (models rewriting the cgroup limit).

        Tokens accrue at the old rate up to now; a queued head is then
        re-planned at the new one.  A rejected *rate* changes nothing.
        """
        if rate is not None and not 0 < rate < math.inf:
            raise SimulationError(f"{self.name}: rate must be positive and finite, or None; got rate={rate}")
        now = self._loop._now
        if self.rate is not None:
            self._tokens += self.rate * (now - self._last_refill)
            if not self._queue:
                self._tokens = min(self.burst, self._tokens)
        self._last_refill = now
        self.rate = rate
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        self._drain()

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
        rate = self.rate
        if rate is None or nbytes == 0:
            self.total_consumed += nbytes
            return True
        now = self._loop._now
        tokens = self._tokens
        if now != self._last_refill:
            tokens += rate * (now - self._last_refill)
            self._last_refill = now
        queue = self._queue
        if queue or self._timer is not None:
            # Behind a pending request or its timer: the idle cap only
            # applies to an empty queue, and the grant waits for the
            # head's timer.
            if not queue:
                tokens = min(self.burst, tokens)
            self._tokens = tokens
            queue.append((nbytes, on_grant))
            if self._timer is None:
                self._drain()
            return False
        # Idle: apply the burst cap *before* deciding, so an idle period
        # never banks more than ``burst`` of credit; then grant or arm
        # the timer as :meth:`_drain` would for a lone head.  Here and in
        # :meth:`_drain`, ``x if x < y else y`` is ``min(y, x)`` and
        # ``x if x > y else y`` is ``max(y, x)``, NaN included, without
        # the call.
        burst = self.burst
        tokens = tokens if tokens < burst else burst
        # Tolerate float rounding: a sub-byte deficit (or one below a
        # relative epsilon) is considered satisfied — otherwise the
        # timer delay can fall below the clock's representable
        # resolution and the drain loop would never advance time.
        slack = nbytes * 1e-9
        if tokens >= nbytes - (slack if slack > 1.0 else 1.0):
            left = tokens - nbytes
            self._tokens = left if left > 0.0 else 0.0
            on_grant()
            # A callback that queued more at this instant is served by
            # the drain the queue would have continued with, unless its
            # own consume already armed the head's timer.
            if not queue:
                self._in_flight = None
            elif self._timer is None:
                self._drain()
            return False
        self._tokens = tokens
        queue.append((nbytes, on_grant))
        # Clamp the delay to something the simulation clock can resolve
        # at any plausible magnitude of `now`.
        delay = (nbytes - tokens) / rate
        delay = 1e-9 if 1e-9 > delay else delay
        self._in_flight = (now, now + delay, nbytes)
        self._timer = self._loop.schedule_after(delay, self._on_timer)
        return False

    def take(self, nbytes: float) -> Generator:
        """Generator: suspends until *nbytes* of budget is granted."""
        gate = WaitEvent(self._sim)
        if self.consume(nbytes, gate.trigger):
            return None
        yield gate
        self.total_consumed += nbytes
        return None

    def _on_timer(self, _event) -> None:
        self._timer = None
        self._in_flight = None
        self._drain()

    def _drain(self) -> None:
        """Accrue tokens up to now, then grant queued requests in order
        until one has to wait, and arm its timer."""
        queue = self._queue
        rate = self.rate
        now = self._loop._now
        if rate is not None:
            if now != self._last_refill:
                self._tokens += rate * (now - self._last_refill)
            # The burst cap only applies while the bucket is idle; a
            # pending request may accumulate an arbitrarily large budget
            # (it will be consumed in full the moment it is served).
            if not queue:
                self._tokens = min(self.burst, self._tokens)
        self._last_refill = now
        while queue:
            nbytes, on_grant = queue[0]
            if rate is None:
                queue.popleft()
                on_grant()
            else:
                tokens = self._tokens
                slack = nbytes * 1e-9
                if tokens >= nbytes - (slack if slack > 1.0 else 1.0):
                    left = tokens - nbytes
                    self._tokens = left if left > 0.0 else 0.0
                    queue.popleft()
                    on_grant()
                else:
                    delay = (nbytes - tokens) / rate
                    delay = 1e-9 if 1e-9 > delay else delay
                    self._in_flight = (now, now + delay, nbytes)
                    self._timer = self._loop.schedule_after(delay, self._on_timer)
                    return
            # ``on_grant`` may have consumed again and armed the head's
            # timer, or changed the rate, at this instant.
            if self._timer is not None:
                return
            rate = self.rate
        self._in_flight = None
