"""Backend personalities: registry and governor mapping, plus each
personality's characteristic behavior (columnstore wins DSS and loses
OLTP; serverless cold-starts and meters billing)."""

import os
import subprocess
import sys

import pytest

import repro
from repro.backends import (
    BACKENDS,
    DEFAULT_BACKEND,
    backend_names,
    make_backend,
)
from repro.backends.serverless import ServerlessEngine
from repro.core.experiment import run_experiment
from repro.core.knobs import ResourceAllocation
from repro.engine.engine import SqlEngine
from repro.engine.resource_governor import ResourceGovernor
from repro.errors import ConfigurationError
from repro.hardware.machine import Machine
from repro.units import MB
from repro.workloads import make_workload


def build(backend_name, workload="tpch", sf=10,
          allocation=ResourceAllocation()):
    machine = Machine()
    allocation.apply_to(machine)
    w = make_workload(workload, sf)
    return make_backend(backend_name).build_engine(machine, w, allocation)


class TestRegistry:
    def test_three_personalities_registered(self):
        assert set(backend_names()) == {
            "rowstore-oltp", "columnstore-dss", "elastic-serverless"
        }
        assert DEFAULT_BACKEND == "rowstore-oltp"

    def test_names_sorted_and_stable(self):
        assert list(backend_names()) == sorted(BACKENDS)

    def test_unknown_backend_raises(self):
        with pytest.raises(ConfigurationError):
            make_backend("hekaton")

    def test_descriptions_are_complete(self):
        for name in backend_names():
            backend = make_backend(name)
            assert backend.name == name
            assert backend.description


def test_figures_import_loads_only_the_personalities():
    """A run uses one engine: the figure regenerators load the three
    personalities and their base, and no other backend module."""
    code = ("import sys, repro, repro.core.figures; "
            "print(*sorted(m for m in sys.modules "
            "if m.startswith('repro.backends.')))")
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout.split()
    assert out == ["repro.backends.base", "repro.backends.columnstore",
                   "repro.backends.rowstore", "repro.backends.serverless"]


class TestGovernorMapping:
    def test_rowstore_reproduces_seed_governor(self):
        allocation = ResourceAllocation(logical_cores=8, grant_percent=15.0)
        governor = make_backend("rowstore-oltp").governor_for(allocation)
        assert governor == ResourceGovernor(max_dop=8, grant_percent=15.0)
        assert not governor.overload_protection_enabled

    def test_columnstore_defaults_enable_protection(self):
        governor = make_backend("columnstore-dss").governor_for(
            ResourceAllocation()
        )
        assert governor.overload_protection_enabled
        assert governor.grant_timeout_s == 120.0
        assert governor.small_query_bypass_bytes == 8 * MB

    def test_explicit_protection_wins_over_personality_defaults(self):
        allocation = ResourceAllocation(grant_timeout_s=3.0)
        governor = make_backend("columnstore-dss").governor_for(allocation)
        assert governor.grant_timeout_s == 3.0

    def test_serverless_caps_grant_percent(self):
        governor = make_backend("elastic-serverless").governor_for(
            ResourceAllocation()
        )
        assert governor.grant_percent == 10.0
        assert governor.grant_timeout_s == 5.0


class TestEngineConstruction:
    def test_engine_carries_personality_name(self):
        for name in backend_names():
            engine = build(name)
            assert engine.backend_name == name

    def test_rowstore_builds_plain_engine(self):
        engine = build("rowstore-oltp")
        assert type(engine) is SqlEngine

    def test_serverless_builds_subclass(self):
        assert isinstance(build("elastic-serverless"), ServerlessEngine)


class TestPersonalityBehavior:
    def test_columnstore_beats_rowstore_on_dss(self):
        row = run_experiment("tpch", 10, duration=20.0)
        col = run_experiment("tpch", 10, duration=20.0,
                             backend="columnstore-dss")
        assert col.backend == "columnstore-dss"
        assert col.primary_metric > 1.5 * row.primary_metric

    def test_columnstore_loses_to_rowstore_on_oltp(self):
        row = run_experiment("asdb", 2000, duration=3.0)
        col = run_experiment("asdb", 2000, duration=3.0,
                             backend="columnstore-dss")
        assert col.primary_metric < 0.5 * row.primary_metric

    def test_serverless_cold_starts_and_bills(self):
        machine = Machine()
        allocation = ResourceAllocation()
        allocation.apply_to(machine)
        workload = make_workload("tpch", 10)
        engine = make_backend("elastic-serverless").build_engine(
            machine, workload, allocation
        )
        from repro.workloads.base import ThroughputTracker
        tracker = ThroughputTracker()
        workload.spawn_clients(engine, tracker, until=5.0)
        machine.sim.run(until=5.0)
        billing = engine.billing_summary()
        assert engine.cold_starts >= 1
        assert billing["billed_core_seconds"] > 0
        assert billing["cold_starts"] == engine.cold_starts

    def test_serverless_autoscale_bounded_by_governor(self):
        from repro.workloads.tpch import tpch_query

        engine = build("elastic-serverless", allocation=ResourceAllocation())
        for number in (1, 6, 18, 21):
            dop = engine.autoscale_dop(tpch_query(number, 10))
            assert 1 <= dop <= engine.governor.max_dop
