"""Fleet and chaos runs are freed by reference counting alone.

Suspended client processes, the shards and the simulator reference each
other; without closing the simulator a finished run stays alive until
the cyclic collector runs.  The runs here close it, so a weak reference
to every simulator they built is dead once they return, with gc off.
"""

import gc
import weakref

import pytest

import repro.faults.chaos as chaos
import repro.fleet.cluster as cluster
from repro.faults.chaos import ChaosConfig, run_chaos
from repro.fleet.cluster import FleetSpec, run_fleet
from repro.sim.process import Simulator


@pytest.fixture
def simulators(monkeypatch):
    """Weak references to every simulator a fleet or chaos run builds."""
    refs = []

    class WatchedSimulator(Simulator):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            refs.append(weakref.ref(self))

    monkeypatch.setattr(cluster, "Simulator", WatchedSimulator)
    monkeypatch.setattr(chaos, "Simulator", WatchedSimulator)
    return refs


def _dead_after(fn, refs):
    """Run *fn* with gc off; True when every watched simulator died.

    Checked before gc is re-enabled: the next allocation after that may
    run the collector and hide a cycle."""
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        result = fn()
        dead = bool(refs) and all(ref() is None for ref in refs)
    finally:
        if enabled:
            gc.enable()
    return result, dead


def test_fleet_simulator_is_dead_when_run_returns(simulators):
    report, dead = _dead_after(
        lambda: run_fleet(FleetSpec(shards=2, duration=1.0)), simulators)
    assert len(simulators) == 1
    assert dead
    assert report.arrivals > 0


@pytest.mark.parametrize("extra_runs", [False, True],
                         ids=["run", "run+baseline+replay"])
def test_chaos_simulators_are_dead_when_run_returns(simulators, extra_runs):
    config = ChaosConfig(seed=1, scenario="failover", duration=1.0)
    report, dead = _dead_after(lambda: run_chaos(
        config, compare_hedging=extra_runs, check_determinism=extra_runs),
        simulators)
    assert len(simulators) == (3 if extra_runs else 1)
    assert dead
    assert report.digest
