"""Tests for the event tracer."""

import pytest

from repro.errors import SimulationError
from repro.sim.process import Simulator, Timeout
from repro.sim.tracing import Tracer


def test_tracer_records_fired_events():
    sim = Simulator()
    def worker():
        yield Timeout(1.0)
        yield Timeout(1.0)
    sim.spawn(worker())
    with Tracer(sim.loop) as tracer:
        sim.run()
    assert tracer.total_fired >= 3  # spawn + two timeouts
    assert len(tracer.records) == tracer.total_fired
    times = [r.time for r in tracer.records]
    assert times == sorted(times)


def test_tracer_detaches_cleanly():
    sim = Simulator()
    tracer = Tracer(sim.loop)
    tracer.attach()
    tracer.detach()
    def worker():
        yield Timeout(1.0)
    sim.spawn(worker())
    sim.run()
    assert tracer.total_fired == 0  # nothing traced after detach


def test_ring_buffer_bounds_memory():
    sim = Simulator()
    def worker():
        for _ in range(50):
            yield Timeout(0.1)
    sim.spawn(worker())
    with Tracer(sim.loop, capacity=10) as tracer:
        sim.run()
    assert len(tracer.records) == 10
    assert tracer.total_fired > 10


def test_predicate_filters():
    sim = Simulator()
    def worker():
        for _ in range(5):
            yield Timeout(1.0)
    sim.spawn(worker())
    with Tracer(sim.loop, predicate=lambda t, label: t >= 3.0) as tracer:
        sim.run()
    assert all(r.time >= 3.0 for r in tracer.records)


def test_histogram_and_dump():
    sim = Simulator()
    def worker():
        yield Timeout(1.0)
        yield Timeout(1.0)
    sim.spawn(worker())
    with Tracer(sim.loop) as tracer:
        sim.run()
    hist = tracer.histogram_by_label()
    assert sum(hist.values()) == tracer.total_fired
    dump = tracer.dump(last=2)
    assert len(dump.splitlines()) == 2


def test_double_attach_rejected():
    sim = Simulator()
    tracer = Tracer(sim.loop).attach()
    with pytest.raises(SimulationError):
        tracer.attach()
    tracer.detach()


def test_zero_capacity_rejected():
    with pytest.raises(SimulationError):
        Tracer(Simulator().loop, capacity=0)


def test_ready_items_are_traced_one_per_step():
    """Zero-delay wakes skip the heap; the tracer still records one
    labelled record per step, including steps when only ready items
    remain."""
    sim = Simulator()
    gate = sim.event()

    def waiter():
        yield gate
        yield Timeout(1.0)

    def trigger():
        yield Timeout(0.5)
        gate.trigger()

    for _ in range(3):
        sim.spawn(waiter())
    sim.spawn(trigger())
    steps = 0
    with Tracer(sim.loop) as tracer:
        while sim.loop.step():
            steps += 1
    assert steps == 11  # 4 starts, the trigger timeout, 3 wakes, 3 timeouts
    assert tracer.total_fired == steps == len(tracer.records)
    labels = [record.label for record in tracer.records]
    assert labels[:4] == ["Process(proc)._resume"] * 4
    assert labels.count("Process(proc)._resume") == 7  # starts and wakes
    # Timer wakes go through the process's bound ``_fire``, so they carry
    # the process name instead of an anonymous lambda.
    assert labels.count("Process(proc)._fire") == 4  # 1 + 3 timeouts
    assert not any("<lambda>" in label for label in labels)
