"""Tests for the experiment runner and measurement surface."""

import gc
import weakref

import pytest

from repro.core.experiment import Experiment, ExperimentConfig, run_experiment
from repro.core.knobs import ResourceAllocation
from repro.core.sweeps import (
    core_sweep, grant_sweep, llc_sweep, maxdop_sweep, on_backend, run_sweep,
)
from repro.engine.locks import WaitType
from repro.hardware.counters import SSD_READ_BYTES


class TestExperiment:
    def test_basic_run_produces_measurement(self):
        m = run_experiment("asdb", 2000, duration=3.0)
        assert m.workload == "asdb"
        assert m.primary_metric > 0
        assert m.duration == 3.0
        assert len(m.counters.series("instructions_retired")) >= 2

    def test_deterministic_given_seed(self):
        a = run_experiment("tpce", 5000, duration=3.0, seed=7)
        b = run_experiment("tpce", 5000, duration=3.0, seed=7)
        assert a.primary_metric == b.primary_metric
        assert a.wait_times == b.wait_times

    def test_different_seeds_differ(self):
        a = run_experiment("tpce", 5000, duration=3.0, seed=1)
        b = run_experiment("tpce", 5000, duration=3.0, seed=2)
        assert a.primary_metric != b.primary_metric

    def test_allocation_respected(self):
        m = run_experiment(
            "asdb", 2000,
            allocation=ResourceAllocation(logical_cores=4, llc_mb=8),
            duration=3.0,
        )
        assert m.allocation.logical_cores == 4

    def test_tpch_plan_signatures_recorded(self):
        m = run_experiment("tpch", 10, duration=20.0)
        assert len(m.plan_signatures) == 22
        assert all(sig for sig in m.plan_signatures.values())

    def test_htap_reports_secondary_metric(self):
        m = run_experiment("htap", 5000, duration=5.0)
        assert m.secondary_metric is not None

    def test_measurement_derived_metrics(self):
        m = run_experiment("asdb", 2000, duration=3.0)
        assert m.ssd_write_mb > 0          # logging traffic
        assert m.dram_read_mb > 0
        assert m.mpki > 0
        assert len(m.bandwidth_cdf(SSD_READ_BYTES)) >= 2
        assert m.wait_time(WaitType.LOCK) >= 0

    def test_workload_kwargs_forwarded(self):
        config = ExperimentConfig(
            workload="tpch", scale_factor=10, duration=10.0,
            workload_kwargs={"streams": 1},
        )
        m = Experiment(config).run()
        assert m.primary_metric >= 0


class _WatchedExperiment(Experiment):
    """Keeps a weak reference to the machine its run builds."""

    def _build_machine(self):
        machine = super()._build_machine()
        self.machine_ref = weakref.ref(machine)
        return machine


class TestRunFreesItsGraph:
    """A finished run is freed by reference counting alone: suspended
    clients, pending timers and queued grants would otherwise hold the
    machine in a cycle until the cyclic collector ran."""

    @pytest.mark.parametrize("config", [
        ExperimentConfig(workload="asdb", scale_factor=2000, duration=2.0),
        ExperimentConfig(workload="tpch", scale_factor=10, duration=10.0),
    ], ids=["oltp", "dss"])
    def test_machine_is_dead_when_run_returns(self, config):
        experiment = _WatchedExperiment(config)
        enabled = gc.isenabled()
        gc.collect()
        gc.disable()
        try:
            measurement = experiment.run()
            assert experiment.machine_ref() is None
        finally:
            if enabled:
                gc.enable()
        assert measurement.primary_metric > 0


class TestSweepBuilders:
    def test_core_sweep_follows_paper_axis(self):
        configs = core_sweep("tpch", 10)
        assert [c.allocation.logical_cores for c in configs] == [1, 2, 4, 8, 16, 32]
        assert all(c.allocation.llc_mb == 40 for c in configs)

    def test_llc_sweep_keeps_cores_fixed(self):
        configs = llc_sweep("asdb", 2000)
        assert all(c.allocation.logical_cores == 32 for c in configs)
        assert configs[0].allocation.llc_mb == 2

    def test_maxdop_sweep_limits_cores_too(self):
        """§7: 'We also limit the number of cores to the same number as
        MAXDOP', single stream."""
        configs = maxdop_sweep(10)
        for config in configs:
            assert config.allocation.logical_cores == config.allocation.max_dop
            assert config.workload_kwargs["streams"] == 1

    def test_grant_sweep_percents(self):
        configs = grant_sweep()
        assert [c.allocation.grant_percent for c in configs] == [25.0, 15.0, 5.0, 2.0]

    def test_on_backend_retargets_every_config(self):
        base = core_sweep("tpch", 10, cores=(8, 32))
        retargeted = on_backend(base, backend="columnstore-dss")
        assert all(c.backend == "columnstore-dss" for c in retargeted)
        assert [c.allocation for c in retargeted] == \
            [c.allocation for c in base]

    def test_run_sweep_preserves_order(self):
        configs = core_sweep("asdb", 2000, cores=(4, 8), duration_scale=0.2)
        measurements = run_sweep(configs)
        assert [m.allocation.logical_cores for m in measurements] == [4, 8]
