"""Tests for generator-based processes."""

import pytest

from repro.errors import SimulationError
from repro.sim.process import At, Simulator, Timeout, WaitEvent


def test_timeout_advances_clock():
    sim = Simulator()
    def worker():
        yield Timeout(2.0)
        yield Timeout(3.0)
    sim.spawn(worker())
    sim.run()
    assert sim.now == 5.0


def test_process_result_captured():
    sim = Simulator()
    def worker():
        yield Timeout(1.0)
        return 42
    proc = sim.spawn(worker())
    sim.run()
    assert proc.result == 42
    assert not proc.alive


def test_wait_event_resumes_with_value():
    sim = Simulator()
    gate = sim.event()
    results = []
    def waiter():
        value = yield gate
        results.append((sim.now, value))
    def trigger_later():
        yield Timeout(4.0)
        gate.trigger("go")
    sim.spawn(waiter())
    sim.spawn(trigger_later())
    sim.run()
    assert results == [(4.0, "go")]


def test_wait_on_already_triggered_event_resumes_immediately():
    sim = Simulator()
    gate = sim.event()
    gate.trigger("early")
    results = []
    def waiter():
        value = yield gate
        results.append(value)
    sim.spawn(waiter())
    sim.run()
    assert results == ["early"]


def test_double_trigger_raises():
    sim = Simulator()
    gate = sim.event()
    gate.trigger()
    with pytest.raises(SimulationError):
        gate.trigger()


def test_waiting_on_another_process():
    sim = Simulator()
    def child():
        yield Timeout(3.0)
        return "child-result"
    def parent():
        proc = sim.spawn(child())
        result = yield proc
        return (sim.now, result)
    parent_proc = sim.spawn(parent())
    sim.run()
    assert parent_proc.result == (3.0, "child-result")


def test_multiple_waiters_all_wake():
    sim = Simulator()
    gate = sim.event()
    woken = []
    def waiter(i):
        yield gate
        woken.append(i)
    for i in range(3):
        sim.spawn(waiter(i))
    def trigger():
        yield Timeout(1.0)
        gate.trigger()
    sim.spawn(trigger())
    sim.run()
    assert sorted(woken) == [0, 1, 2]


def test_yielding_garbage_raises():
    sim = Simulator()
    def bad():
        yield "not a command"
    sim.spawn(bad())
    with pytest.raises(SimulationError):
        sim.run()


def test_negative_timeout_raises():
    with pytest.raises(SimulationError):
        Timeout(-0.1)


def test_interrupt_stops_process():
    sim = Simulator()
    progressed = []
    def worker():
        yield Timeout(1.0)
        progressed.append(1)
        yield Timeout(1.0)
        progressed.append(2)
    proc = sim.spawn(worker())
    sim.run(until=1.5)
    proc.interrupt()
    sim.run()
    assert progressed == [1]
    assert not proc.alive


class TestSpawnMany:
    def test_matches_sequential_spawns(self):
        def worker(tag, out):
            yield Timeout(0.5)
            out.append(tag)

        seq_out = []
        sim_a = Simulator()
        for i in range(5):
            sim_a.spawn(worker(i, seq_out), name="proc")
        sim_a.run()

        batch_out = []
        sim_b = Simulator()
        procs = sim_b.spawn_many(
            [worker(i, batch_out) for i in range(5)], name="proc"
        )
        sim_b.run()
        assert batch_out == seq_out
        assert [p.name for p in procs] == [f"proc-{i}" for i in range(5)]
        assert not any(p.alive for p in procs)

    def test_spawn_many_mid_run_uses_current_time(self):
        sim = Simulator()
        started = []

        def child():
            started.append(sim.now)
            yield Timeout(0.1)

        def parent():
            yield Timeout(2.0)
            sim.spawn_many([child(), child()])

        sim.spawn(parent())
        sim.run()
        assert started == [2.0, 2.0]

    def test_empty_batch(self):
        sim = Simulator()
        assert sim.spawn_many([]) == []


def test_at_resumes_at_exactly_the_absolute_time():
    sim = Simulator()
    # A relative wait from 0.2 would miss 6/7: ``now + (t - now)`` is
    # not always ``t`` in floating point.  At must land on it exactly.
    target = 6 / 7
    assert 0.2 + (target - 0.2) != target
    seen = []

    def proc():
        yield Timeout(0.2)
        yield At(target)
        seen.append(sim.now)
        yield At(target)        # waiting for the current instant is allowed
        seen.append(sim.now)

    sim.spawn(proc())
    sim.run()
    assert seen == [target, target]


def test_at_in_the_past_raises():
    sim = Simulator()

    def proc():
        yield Timeout(1.0)
        yield At(0.5)

    sim.spawn(proc())
    with pytest.raises(SimulationError):
        sim.run()


def test_nan_timeout_raises():
    with pytest.raises(SimulationError, match="delay=nan"):
        Timeout(float("nan"))


def test_at_nan_raises_and_leaves_the_clock():
    sim = Simulator()

    def proc():
        yield Timeout(1.0)
        yield At(float("nan"))

    sim.spawn(proc())
    with pytest.raises(SimulationError, match="time=nan"):
        sim.run()
    assert sim.now == 1.0


class TestWakePath:
    """``_resume`` dispatches exact ``Timeout``/``WaitEvent`` inline;
    everything else goes through the ``isinstance`` fallback."""

    def test_timeout_subclass_resumes_after_its_delay(self):
        class Sleep(Timeout):
            __slots__ = ()

        sim = Simulator()
        woke = []

        def proc():
            yield Sleep(2.5)
            woke.append(sim.now)

        sim.spawn(proc())
        sim.run()
        assert woke == [2.5]

    @pytest.mark.parametrize("trigger_first", [False, True])
    def test_wait_event_subclass_resumes_with_its_value(self, trigger_first):
        class Gate(WaitEvent):
            __slots__ = ()

        sim = Simulator()
        gate = Gate(sim)
        got = []

        def waiter():
            got.append((yield gate))

        if trigger_first:
            gate.trigger("v")
        sim.spawn(waiter())
        if not trigger_first:
            sim.loop.schedule_at(1.0, lambda _ev: gate.trigger("v"))
        sim.run()
        assert got == ["v"]

    def test_yielded_process_resumes_with_its_result(self):
        sim = Simulator()
        got = []

        def child():
            yield Timeout(1.0)
            return 42

        def parent():
            got.append((yield sim.spawn(child())))
            got.append(sim.now)

        sim.spawn(parent())
        sim.run()
        assert got == [42, 1.0]

    def test_unsupported_command_names_the_process(self):
        sim = Simulator()

        def proc():
            yield 3.0

        sim.spawn(proc(), name="worker-7")
        with pytest.raises(SimulationError, match="'worker-7'.*unsupported"):
            sim.run()

    def test_timers_wake_through_the_bound_fire_method(self):
        sim = Simulator()

        def proc():
            yield Timeout(1.0)
            yield At(3.0)

        started = sim.spawn(proc(), name="timed")
        batch = sim.spawn_many([proc()], name="batch")
        callbacks = [entry[2].callback for entry in sim.loop._heap]
        assert callbacks == [batch[0]._fire]   # the start train
        sim.loop.step()                        # start "timed"
        callbacks = sorted((entry[1], entry[2].callback)
                           for entry in sim.loop._heap)
        assert [cb for _, cb in callbacks] == [batch[0]._fire, started._fire]
        sim.run()
        assert sim.now == 3.0
