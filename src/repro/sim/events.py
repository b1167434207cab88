"""Event heap and simulation clock.

The :class:`EventLoop` is a classic calendar: events are ``(time, seq)``
ordered in a binary heap, where ``seq`` is a monotonically increasing
sequence number that breaks ties, so events scheduled at the same instant
fire in FIFO order and runs are fully deterministic.

Cancelled events are removed lazily: :meth:`Event.cancel` only sets a flag,
and the loop skips flagged entries as they surface at the heap top.  A
caller that cancels far more than it fires (mass timeout cancellation, a
server re-arming timers faster than they expire) can still flood the heap
with corpses, so the loop counts live cancellations and *compacts* —
rebuilds and re-heapifies the live entries — once corpses outnumber half
the heap.  :meth:`EventLoop.schedule_batch` amortizes bulk scheduling
(N client start-ups, a tick train) into one heapify instead of N pushes
where that is cheaper.

Zero-delay wakes — a process start, a :class:`~repro.sim.process.WaitEvent`
trigger, a token-bucket grant — are a large share of everything a
simulating workload schedules, and most of them are the very next thing
to fire.  :meth:`EventLoop.call_soon` keeps those off the heap: when no heap
entry is due at the current instant, the wake goes on a FIFO *ready*
deque, and :meth:`EventLoop.step` fires one ready item before it touches
the heap.  This is exact.  A ready item is only appended while every heap
entry lies strictly in the future, and anything scheduled at the current
instant afterwards would sort behind it by sequence number anyway; when
an entry *is* due now, ``call_soon`` falls back to ``schedule_at(now,
...)``.  Either way items fire in the ``(time, seq)`` order of the plain
heap, one per step.
"""

from __future__ import annotations

import heapq
import itertools
from collections import deque
from typing import Any, Callable, Deque, Iterable, List, Optional, Tuple

from repro.errors import SimulationError

#: Compaction trigger: corpses must outnumber both this floor and half the
#: heap.  The floor keeps tiny heaps from compacting constantly; the
#: fraction bounds wasted heap memory and pop work at a constant factor.
COMPACT_MIN_CANCELLED = 64
COMPACT_FRACTION = 0.5


class Event:
    """A schedulable occurrence with an optional payload.

    An event may be *cancelled* before it fires; cancelled events stay in
    the heap but are skipped by the loop (lazy deletion).
    """

    __slots__ = ("time", "callback", "payload", "cancelled", "fired", "_loop")

    def __init__(self, time: float, callback: Callable[["Event"], None], payload: Any = None):
        self.time = time
        self.callback = callback
        self.payload = payload
        self.cancelled = False
        self.fired = False
        self._loop: Optional["EventLoop"] = None

    def cancel(self) -> None:
        """Prevent this event from firing.  Idempotent."""
        if self.cancelled or self.fired:
            return
        self.cancelled = True
        if self._loop is not None:
            self._loop._note_cancelled()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else ("fired" if self.fired else "pending")
        return f"Event(t={self.time:.6f}, {state})"


def _fire_soon(event: Event) -> None:
    """Heap stand-in for a :meth:`EventLoop.call_soon` item that found
    another entry due at the same instant."""
    callback, arg = event.payload
    callback(arg)


class EventLoop:
    """A deterministic discrete-event calendar.

    >>> loop = EventLoop()
    >>> out = []
    >>> _ = loop.schedule_at(2.0, lambda ev: out.append("b"))
    >>> _ = loop.schedule_at(1.0, lambda ev: out.append("a"))
    >>> loop.run()
    >>> out
    ['a', 'b']
    """

    def __init__(self) -> None:
        self._heap: List[Tuple[float, int, Event]] = []
        # Zero-delay ``(callback, arg)`` items due at ``_now``; they fire
        # before any heap entry (see the module docstring).
        self._ready: Deque[Tuple[Callable[[Any], None], Any]] = deque()
        self._seq = 0
        self._now = 0.0
        self._running = False
        self._cancelled = 0    # cancelled events still sitting in the heap
        self.compactions = 0   # lifetime compaction sweeps (observability)

    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    def __len__(self) -> int:
        """Pending entries: ready items plus heap entries, including
        not-yet-collected cancelled ones."""
        return len(self._ready) + len(self._heap)

    def schedule_at(self, time: float, callback: Callable[[Event], None], payload: Any = None) -> Event:
        """Schedule *callback* to fire at absolute simulation time *time*."""
        if not time >= self._now:
            raise SimulationError(f"cannot schedule event in the past: time={time} < now={self._now}")
        event = Event(time, callback, payload)
        event._loop = self
        heapq.heappush(self._heap, (time, self._seq, event))
        self._seq += 1
        if self._cancelled > COMPACT_MIN_CANCELLED:
            self._maybe_compact()
        return event

    def schedule_after(self, delay: float, callback: Callable[[Event], None], payload: Any = None) -> Event:
        """Schedule *callback* to fire *delay* seconds from now."""
        if not delay >= 0:
            raise SimulationError(f"negative delay: delay={delay}")
        time = self._now + delay
        event = Event(time, callback, payload)
        event._loop = self
        heapq.heappush(self._heap, (time, self._seq, event))
        self._seq += 1
        if self._cancelled > COMPACT_MIN_CANCELLED:
            self._maybe_compact()
        return event

    def call_soon(self, callback: Callable[[Any], None], arg: Any = None) -> None:
        """Call ``callback(arg)`` at the current instant, after everything
        already due now — exactly where ``schedule_at(now, ...)`` would
        fire it.  Not cancellable; one :meth:`step` per call."""
        heap = self._heap
        if not heap or heap[0][0] > self._now:
            self._ready.append((callback, arg))
        else:
            self.schedule_at(self._now, _fire_soon, (callback, arg))

    def schedule_batch(
        self,
        entries: Iterable[Tuple[float, Callable[[Event], None], Any]],
    ) -> List[Event]:
        """Schedule many ``(time, callback, payload)`` entries at once.

        Equivalent to ``schedule_at`` per entry — same FIFO tie-breaking,
        in iteration order — but amortized: the loop-invariant lookups
        (clock, sequence counter, heap) are hoisted out of the per-entry
        path, the compaction check runs once per batch instead of once
        per entry, and a batch larger than the live heap is folded in
        with one O(n) heapify instead of per-entry pushes.
        """
        events = list(itertools.starmap(Event, entries))
        if not events:
            return events
        earliest = min(event.time for event in events)
        if not earliest >= self._now:
            raise SimulationError(
                f"cannot schedule event in the past: time={earliest} < now={self._now}"
            )
        for event in events:
            event._loop = self
        seq = self._seq
        self._seq = seq + len(events)
        staged = [(event.time, number, event)
                  for number, event in enumerate(events, seq)]
        heap = self._heap
        if len(staged) > len(heap):
            heap.extend(staged)
            heapq.heapify(heap)
        else:
            push = heapq.heappush
            for entry in staged:
                push(heap, entry)
        self._maybe_compact()
        return events

    def _note_cancelled(self) -> None:
        self._cancelled += 1
        self._maybe_compact()

    def _maybe_compact(self) -> None:
        """Purge cancelled entries once they dominate the heap.

        The list is rebuilt in place: :meth:`run` holds a reference to it.
        """
        if (
            self._cancelled > COMPACT_MIN_CANCELLED
            and self._cancelled > COMPACT_FRACTION * len(self._heap)
        ):
            heap = self._heap
            heap[:] = [e for e in heap if not e[2].cancelled]
            heapq.heapify(heap)
            self._cancelled = 0
            self.compactions += 1

    def clear(self) -> None:
        """Drop every pending entry without firing it.

        Each dropped event forgets its callback and payload, so an object
        holding its own pending timer no longer references itself.
        """
        for _, _, event in self._heap:
            event.callback = event.payload = None
        self._heap.clear()
        self._ready.clear()
        self._cancelled = 0

    def peek_time(self) -> Optional[float]:
        """Time of the next pending (non-cancelled) event, or ``None``."""
        if self._ready:
            return self._now
        heap = self._heap
        while heap and heap[0][2].cancelled:
            heapq.heappop(heap)
            self._cancelled -= 1
        if not heap:
            return None
        return heap[0][0]

    def step(self) -> bool:
        """Fire the next pending event.  Returns ``False`` if none remain."""
        if self._ready:
            callback, arg = self._ready.popleft()
            callback(arg)
            return True
        heap = self._heap
        while heap:
            time, _, event = heapq.heappop(heap)
            if event.cancelled:
                self._cancelled -= 1
                continue
            self._now = time
            event.fired = True
            event.callback(event)
            return True
        return False

    def run(self, until: Optional[float] = None) -> None:
        """Run events until the heap drains or the clock passes *until*.

        When *until* is given the clock is advanced to exactly *until* at
        the end of the run, even if the last event fired earlier.
        """
        if self._running:
            raise SimulationError("event loop is not reentrant")
        self._running = True
        heap = self._heap
        ready = self._ready
        pop = heapq.heappop
        horizon = float("inf") if until is None else until
        try:
            while True:
                if ready:
                    if self._now > horizon:
                        break
                else:
                    while heap and heap[0][2].cancelled:
                        pop(heap)
                        self._cancelled -= 1
                    if not heap or heap[0][0] > horizon:
                        break
                self.step()
            if until is not None and until > self._now:
                self._now = until
        finally:
            self._running = False
