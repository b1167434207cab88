"""Tests for the event loop."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import SimulationError
from repro.sim.events import EventLoop
from repro.sim.process import At, Simulator, Timeout
from repro.sim.tracing import Tracer


def test_events_fire_in_time_order():
    loop = EventLoop()
    order = []
    loop.schedule_at(3.0, lambda ev: order.append(3))
    loop.schedule_at(1.0, lambda ev: order.append(1))
    loop.schedule_at(2.0, lambda ev: order.append(2))
    loop.run()
    assert order == [1, 2, 3]


def test_simultaneous_events_fire_fifo():
    loop = EventLoop()
    order = []
    for i in range(5):
        loop.schedule_at(1.0, lambda ev, i=i: order.append(i))
    loop.run()
    assert order == [0, 1, 2, 3, 4]


def test_clock_advances_to_event_time():
    loop = EventLoop()
    seen = []
    loop.schedule_at(2.5, lambda ev: seen.append(loop.now))
    loop.run()
    assert seen == [2.5]
    assert loop.now == 2.5


def test_schedule_after_is_relative():
    loop = EventLoop()
    times = []
    def chain(ev):
        times.append(loop.now)
        if len(times) < 3:
            loop.schedule_after(1.0, chain)
    loop.schedule_after(1.0, chain)
    loop.run()
    assert times == [1.0, 2.0, 3.0]


def test_cancelled_event_does_not_fire():
    loop = EventLoop()
    fired = []
    event = loop.schedule_at(1.0, lambda ev: fired.append(1))
    event.cancel()
    loop.run()
    assert fired == []


def test_run_until_stops_before_later_events():
    loop = EventLoop()
    fired = []
    loop.schedule_at(1.0, lambda ev: fired.append(1))
    loop.schedule_at(10.0, lambda ev: fired.append(10))
    loop.run(until=5.0)
    assert fired == [1]
    assert loop.now == 5.0


def test_run_until_then_resume():
    loop = EventLoop()
    fired = []
    loop.schedule_at(10.0, lambda ev: fired.append(10))
    loop.run(until=5.0)
    loop.run()
    assert fired == [10]


def test_scheduling_in_past_raises():
    loop = EventLoop()
    loop.schedule_at(5.0, lambda ev: None)
    loop.run()
    with pytest.raises(SimulationError):
        loop.schedule_at(1.0, lambda ev: None)


def test_negative_delay_raises():
    loop = EventLoop()
    with pytest.raises(SimulationError):
        loop.schedule_after(-1.0, lambda ev: None)


def test_peek_time_skips_cancelled():
    loop = EventLoop()
    first = loop.schedule_at(1.0, lambda ev: None)
    loop.schedule_at(2.0, lambda ev: None)
    first.cancel()
    assert loop.peek_time() == 2.0


def test_events_scheduled_during_run_are_processed():
    loop = EventLoop()
    fired = []
    def outer(ev):
        fired.append("outer")
        loop.schedule_after(0.5, lambda ev2: fired.append("inner"))
    loop.schedule_at(1.0, outer)
    loop.run()
    assert fired == ["outer", "inner"]
    assert loop.now == 1.5


class TestBatchScheduling:
    def test_batch_matches_individual_scheduling(self):
        """schedule_batch must drain in exactly the order a loop of
        schedule_at calls would (time order, FIFO within a time)."""
        times = [3.0, 1.0, 2.0, 1.0, 3.0, 0.5]
        one_by_one = EventLoop()
        fired_a = []
        for i, t in enumerate(times):
            one_by_one.schedule_at(t, lambda ev, i=i: fired_a.append(i))
        one_by_one.run()
        batched = EventLoop()
        fired_b = []
        batched.schedule_batch(
            (t, lambda ev, i=i: fired_b.append(i), None)
            for i, t in enumerate(times)
        )
        batched.run()
        assert fired_b == fired_a

    def test_batch_into_populated_loop(self):
        loop = EventLoop()
        fired = []
        loop.schedule_at(1.5, lambda ev: fired.append("old"))
        loop.schedule_batch([
            (1.0, lambda ev: fired.append("early"), None),
            (2.0, lambda ev: fired.append("late"), None),
        ])
        loop.run()
        assert fired == ["early", "old", "late"]

    def test_batch_rejects_past_times(self):
        loop = EventLoop()
        loop.schedule_at(5.0, lambda ev: None)
        loop.run()
        with pytest.raises(SimulationError):
            loop.schedule_batch([(1.0, lambda ev: None, None)])

    def test_empty_batch_is_a_no_op(self):
        loop = EventLoop()
        loop.schedule_batch([])
        assert len(loop) == 0


class TestCompaction:
    def test_mass_cancellation_triggers_compaction(self):
        from repro.sim.events import COMPACT_MIN_CANCELLED
        loop = EventLoop()
        events = [
            loop.schedule_at(float(i), lambda ev: None)
            for i in range(4 * COMPACT_MIN_CANCELLED)
        ]
        survivors = events[:: 4]
        for event in events:
            if event not in survivors:
                event.cancel()
        assert loop.compactions >= 1
        # Corpses were purged: the heap holds the survivors plus at most
        # the sub-threshold tail of cancellations since the last sweep.
        assert len(loop) <= len(survivors) + COMPACT_MIN_CANCELLED
        assert len(loop) < len(events)

    def test_compaction_preserves_firing_order(self):
        from repro.sim.events import COMPACT_MIN_CANCELLED
        loop = EventLoop()
        fired = []
        keep = []
        for i in range(4 * COMPACT_MIN_CANCELLED):
            event = loop.schedule_at(
                float(i), lambda ev, i=i: fired.append(i)
            )
            if i % 4 == 0:
                keep.append(i)
            else:
                event.cancel()
        loop.run()
        assert fired == keep

    def test_cancel_is_idempotent_and_safe_after_fire(self):
        loop = EventLoop()
        fired = []
        event = loop.schedule_at(1.0, lambda ev: fired.append(1))
        loop.run()
        event.cancel()      # already fired: must be a no-op
        event.cancel()
        assert fired == [1]
        assert loop.compactions == 0


def test_nan_time_rejected():
    loop = EventLoop()
    with pytest.raises(SimulationError, match="time=nan"):
        loop.schedule_at(float("nan"), lambda ev: None)
    assert loop.now == 0.0 and len(loop) == 0


def test_nan_delay_rejected():
    loop = EventLoop()
    with pytest.raises(SimulationError, match="delay=nan"):
        loop.schedule_after(float("nan"), lambda ev: None)


def test_nan_time_in_batch_rejected():
    loop = EventLoop()
    with pytest.raises(SimulationError, match="time=nan"):
        loop.schedule_batch([(float("nan"), lambda ev: None, None)])


class TestCallSoon:
    def test_uses_ready_queue_when_nothing_is_due_now(self):
        loop = EventLoop()
        fired = []
        loop.schedule_at(1.0, lambda ev: fired.append("later"))
        loop.call_soon(fired.append, "soon")
        assert len(loop._ready) == 1 and len(loop._heap) == 1
        loop.run()
        assert fired == ["soon", "later"]

    def test_falls_back_to_heap_behind_an_entry_due_now(self):
        loop = EventLoop()
        fired = []
        loop.schedule_at(0.0, lambda ev: fired.append("due"))
        loop.call_soon(fired.append, "soon")
        assert not loop._ready and len(loop._heap) == 2
        loop.run()
        assert fired == ["due", "soon"]

    def test_one_step_per_item(self):
        loop = EventLoop()
        fired = []
        loop.call_soon(fired.append, 1)
        loop.call_soon(fired.append, 2)
        assert loop.peek_time() == 0.0
        assert loop.step() and fired == [1]
        assert loop.step() and fired == [1, 2]
        assert not loop.step()

    def test_run_until_before_now_leaves_ready_items(self):
        loop = EventLoop()
        fired = []
        loop.schedule_at(2.0, lambda ev: loop.call_soon(fired.append, "soon"))
        loop.run(until=2.0)
        assert fired == ["soon"]
        loop.call_soon(fired.append, "again")
        loop.run(until=1.0)
        assert fired == ["soon"]
        loop.run()
        assert fired == ["soon", "again"]


class _HeapOnlyLoop(EventLoop):
    """Reference kernel: every zero-delay wake goes through the heap."""

    def call_soon(self, callback, arg=None):
        self.schedule_at(self._now, lambda ev: callback(arg))


def _run_mix(loop_cls, scripts, horizon):
    """Run one process per script on a fresh loop; return the log of
    ``(time, process, op index)`` records and the number of steps.

    Ops: ``("sleep", d)``, ``("at_now",)``, ``("wait", k)`` on shared
    WaitEvent *k* (possibly already triggered), ``("trigger", k)``,
    ``("post", d)`` a raw loop event, ``("cancel",)`` the last one
    posted, and ``("spawn", n)`` *n* children through ``spawn_many``.
    """
    sim = Simulator()
    sim.loop = loop_cls()
    gates = [sim.event() for _ in range(3)]
    posted = []
    log = []

    def child(name):
        log.append((sim.now, name, 0))
        yield Timeout(0.0)
        log.append((sim.now, name, 1))

    def proc(name, script):
        for index, op in enumerate(script):
            log.append((sim.now, name, index))
            kind = op[0]
            if kind == "sleep":
                yield Timeout(op[1])
            elif kind == "at_now":
                yield At(sim.now)
            elif kind == "wait":
                yield gates[op[1]]
            elif kind == "trigger":
                if not gates[op[1]].triggered:
                    gates[op[1]].trigger(index)
            elif kind == "post":
                posted.append(sim.loop.schedule_after(
                    op[1], lambda ev, n=name, i=index: log.append((sim.now, n, -i))))
            elif kind == "cancel":
                if posted:
                    posted.pop().cancel()
            elif kind == "spawn":
                sim.spawn_many([child(f"{name}.{k}") for k in range(op[1])],
                               name=name)
        log.append((sim.now, name, "end"))

    for number, script in enumerate(scripts):
        sim.spawn(proc(f"p{number}", script), name=f"p{number}")
    with Tracer(sim.loop) as tracer:
        sim.run(until=horizon)
    return log, tracer.total_fired


_OP = st.one_of(
    st.tuples(st.just("sleep"), st.sampled_from([0.0, 0.0, 0.5, 1.0, 0.25])),
    st.tuples(st.just("at_now")),
    st.tuples(st.just("wait"), st.integers(0, 2)),
    st.tuples(st.just("trigger"), st.integers(0, 2)),
    st.tuples(st.just("post"), st.sampled_from([0.0, 0.5, 1.0])),
    st.tuples(st.just("cancel")),
    st.tuples(st.just("spawn"), st.integers(1, 3)),
)


class TestReadyQueueMatchesHeap:
    """The ready deque fires exactly what an all-heap kernel fires."""

    @given(st.lists(st.lists(_OP, max_size=8), min_size=1, max_size=6))
    def test_same_order_and_steps(self, scripts):
        expected = _run_mix(_HeapOnlyLoop, scripts, horizon=10.0)
        assert _run_mix(EventLoop, scripts, horizon=10.0) == expected
