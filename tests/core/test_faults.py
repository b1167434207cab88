"""Tests for fault specs and simulation-level fault injection: storage
brownouts, transient write errors with WAL retry, core offlining, and
crash/recover — all observable through ``Measurement.fault_summary``."""

import pytest

from repro.core.experiment import ExperimentConfig, run_experiment
from repro.core.resultcache import ResultCache
from repro.errors import FaultInjectionError
from repro.faults import (
    CoreOffline,
    CrashPoint,
    StorageBrownout,
    TransientWriteErrors,
    WorkerCrash,
    WorkerStall,
    harness_faults,
    simulation_faults,
)
from repro.faults.spec import GrantStorm, ReplicaPartition
from repro.hardware.storage import NvmeDevice
from repro.sim.process import Simulator
from repro.units import mb_per_s


def run_asdb(faults=(), duration=1.5, seed=3):
    return run_experiment("asdb", 2000, duration=duration, seed=seed,
                          faults=tuple(faults))


class TestFaultSpecs:
    def test_validation(self):
        with pytest.raises(FaultInjectionError):
            StorageBrownout(start=-1.0, duration=1.0)
        with pytest.raises(FaultInjectionError):
            StorageBrownout(start=0.0, duration=1.0, write_factor=0.0)
        with pytest.raises(FaultInjectionError):
            TransientWriteErrors(start=0.0, duration=1.0, failure_rate=1.5)
        with pytest.raises(FaultInjectionError):
            CoreOffline(at=0.5, remaining_logical=0)
        with pytest.raises(FaultInjectionError):
            CrashPoint(at=-0.1)
        with pytest.raises(FaultInjectionError):
            WorkerCrash(attempts=0)
        with pytest.raises(FaultInjectionError):
            WorkerStall(seconds=-1.0)

    @pytest.mark.parametrize("spec,field,kwargs", [
        (StorageBrownout, "start", dict(duration=1.0)),
        (StorageBrownout, "duration", dict(start=0.0)),
        (TransientWriteErrors, "start", dict(duration=1.0)),
        (TransientWriteErrors, "duration", dict(start=0.0)),
        (CoreOffline, "at", dict(remaining_logical=4)),
        (CoreOffline, "duration", dict(at=0.0, remaining_logical=4)),
        (CrashPoint, "at", {}),
        (GrantStorm, "at", {}),
        (GrantStorm, "hold_seconds", dict(at=0.0)),
        (ReplicaPartition, "start", dict(duration=1.0)),
        (ReplicaPartition, "duration", dict(start=0.0)),
        (WorkerStall, "seconds", {}),
    ], ids=lambda value: getattr(value, "__name__", None))
    def test_nan_is_rejected_with_the_field_named(self, spec, field, kwargs):
        with pytest.raises(FaultInjectionError, match=f"{spec.__name__}.{field}"):
            spec(**{field: float("nan")}, **kwargs)

    def test_layer_filters(self):
        faults = (StorageBrownout(start=0.1, duration=0.1),
                  WorkerCrash(attempts=1),
                  CrashPoint(at=0.5),
                  WorkerStall(seconds=5.0))
        assert [type(f).__name__ for f in simulation_faults(faults)] == \
            ["StorageBrownout", "CrashPoint"]
        assert [type(f).__name__ for f in harness_faults(faults)] == \
            ["WorkerCrash", "WorkerStall"]

    def test_fires_on_attempt_bound(self):
        crash = WorkerCrash(attempts=2)
        assert crash.fires_on(0) and crash.fires_on(1)
        assert not crash.fires_on(2)

    def test_faults_participate_in_cache_key(self, tmp_path):
        cache = ResultCache(tmp_path, token="t")
        base = ExperimentConfig(workload="asdb", scale_factor=2000,
                                duration=1.0)
        faulted = ExperimentConfig(
            workload="asdb", scale_factor=2000, duration=1.0,
            faults=(StorageBrownout(start=0.1, duration=0.2),),
        )
        assert cache.digest(base) != cache.digest(faulted)


class TestDeviceFaultHooks:
    def test_brownout_scales_effective_bandwidth(self):
        sim = Simulator()
        device = NvmeDevice(sim, read_bw=mb_per_s(1000),
                            write_bw=mb_per_s(1000))
        device.apply_brownout(read_factor=0.5, write_factor=0.1)
        assert device.browned_out
        assert device.effective_read_bw == pytest.approx(mb_per_s(500))
        assert device.effective_write_bw == pytest.approx(mb_per_s(100))
        device.clear_brownout()
        assert not device.browned_out
        assert device.effective_write_bw == pytest.approx(mb_per_s(1000))

    def test_brownout_factors_validated(self):
        device = NvmeDevice(Simulator())
        with pytest.raises(FaultInjectionError):
            device.apply_brownout(write_factor=0.0)
        with pytest.raises(FaultInjectionError):
            device.apply_brownout(read_factor=1.5)


class TestInjectedExperiments:
    """End-to-end: each fault type through a real (short) experiment."""

    def test_fault_free_run_has_no_summary(self):
        assert run_asdb().fault_summary is None

    def test_brownout_lowers_throughput(self):
        # asdb pushes ~54 MB/s of dirty pages + WAL; a 99% write brownout
        # makes the device the bottleneck for most of the run.
        clean = run_asdb()
        browned = run_asdb(faults=[
            StorageBrownout(start=0.25, duration=1.0, write_factor=0.01),
        ])
        assert browned.fault_summary["faults_installed"] == 1.0
        assert browned.primary_metric < 0.8 * clean.primary_metric

    def test_transient_errors_retried_by_wal(self):
        m = run_asdb(faults=[
            TransientWriteErrors(start=0.25, duration=0.5),
        ])
        assert m.fault_summary["write_faults_injected"] > 0
        assert m.fault_summary["wal_flush_retries"] > 0
        # Retries delay commits but never lose them: still a live run.
        assert m.primary_metric > 0

    def test_core_offline_lowers_throughput(self):
        clean = run_asdb()
        offlined = run_asdb(faults=[CoreOffline(at=0.3, remaining_logical=4)])
        assert offlined.primary_metric < clean.primary_metric

    def test_crash_point_recovers_and_counts(self):
        m = run_asdb(faults=[CrashPoint(at=0.75)])
        assert m.fault_summary["crash_recoveries"] == 1.0
        assert m.fault_summary["replayed_records"] > 0

    def test_injection_is_deterministic(self):
        spec = [TransientWriteErrors(start=0.25, duration=0.5,
                                     failure_rate=0.5)]
        first = run_asdb(faults=spec)
        second = run_asdb(faults=spec)
        assert first.primary_metric == second.primary_metric
        assert first.fault_summary == second.fault_summary

    def test_harness_faults_ignored_by_simulation(self):
        """Worker-level specs are interpreted by the runner, not the
        experiment: running directly, they must not change the result."""
        clean = run_asdb()
        tagged = run_asdb(faults=[WorkerStall(seconds=30.0, attempts=1)])
        assert tagged.primary_metric == clean.primary_metric
        assert tagged.fault_summary is None
