"""Event tracing for debugging simulation runs.

A :class:`Tracer` hooks an :class:`~repro.sim.events.EventLoop` and
records every step, a heap event or a zero-delay ready item alike, as
(time, callback owner) into a bounded ring buffer, optionally filtered
by a predicate.  Useful when a model change produces an unexpected
throughput shift and the question is "what was the machine doing at
t=3483.9?" — exactly the kind of question that located this project's
token-bucket starvation bug.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, List, Optional

from repro.errors import SimulationError
from repro.sim.events import EventLoop, _fire_soon


@dataclass(frozen=True)
class TraceRecord:
    """One fired event."""

    time: float
    label: str

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"[{self.time:12.6f}] {self.label}"


def _describe(callback: Callable) -> str:
    owner = getattr(callback, "__self__", None)
    if owner is not None:
        name = getattr(owner, "name", owner.__class__.__name__)
        return f"{owner.__class__.__name__}({name}).{callback.__name__}"
    return getattr(callback, "__qualname__", repr(callback))


def _head_callback(loop: EventLoop) -> Callable:
    """The callback the loop's next step will call (the loop must have a
    pending event): the first ready item's, else the heap head's."""
    if loop._ready:
        return loop._ready[0][0]
    event = loop._heap[0][2]
    if event.callback is _fire_soon:
        return event.payload[0]
    return event.callback


class Tracer:
    """Bounded ring-buffer tracer over an event loop.

    Use as a context manager::

        with Tracer(machine.sim.loop, capacity=10_000) as tracer:
            machine.sim.run(until=30.0)
        print(tracer.dump(last=50))
    """

    def __init__(
        self,
        loop: EventLoop,
        capacity: int = 100_000,
        predicate: Optional[Callable[[float, str], bool]] = None,
    ):
        if capacity < 1:
            raise SimulationError("tracer capacity must be positive")
        self._loop = loop
        self._records: Deque[TraceRecord] = deque(maxlen=capacity)
        self._predicate = predicate
        self._original_step = None
        self.total_fired = 0

    # -- lifecycle ---------------------------------------------------------------

    def attach(self) -> "Tracer":
        if self._original_step is not None:
            raise SimulationError("tracer already attached")
        self._original_step = self._loop.step
        tracer = self

        def traced_step() -> bool:
            next_time = tracer._loop.peek_time()
            if next_time is None:
                return tracer._original_step()
            # Label the head item before it fires.
            label = _describe(_head_callback(tracer._loop))
            fired = tracer._original_step()
            if fired:
                tracer.total_fired += 1
                if tracer._predicate is None or tracer._predicate(next_time, label):
                    tracer._records.append(TraceRecord(next_time, label))
            return fired

        self._loop.step = traced_step  # type: ignore[method-assign]
        return self

    def detach(self) -> None:
        if self._original_step is None:
            return
        self._loop.step = self._original_step  # type: ignore[method-assign]
        self._original_step = None

    def __enter__(self) -> "Tracer":
        return self.attach()

    def __exit__(self, *exc) -> None:
        self.detach()

    # -- inspection ----------------------------------------------------------------

    @property
    def records(self) -> List[TraceRecord]:
        return list(self._records)

    def dump(self, last: Optional[int] = None) -> str:
        records = self.records
        if last is not None:
            records = records[-last:]
        return "\n".join(str(r) for r in records)

    def histogram_by_label(self) -> dict:
        """Event counts per label — the 'what is the hot path' view."""
        counts: dict = {}
        for record in self._records:
            counts[record.label] = counts.get(record.label, 0) + 1
        return dict(sorted(counts.items(), key=lambda kv: -kv[1]))
