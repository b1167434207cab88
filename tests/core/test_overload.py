"""Overload-protection tests across the engine/harness boundary:
invariance with the seed, GrantTimeoutError handling in the supervised
runner, the admission-policy sweep, and the GrantStorm fault.

All contended scenarios use TPC-H SF100: its large sorts/joins request
multi-GB grants against the default 36.9 GB query-memory pool, whose 25%
per-query cap admits exactly four cap-sized grants — so four streams are
the pool's natural concurrency and 16x oversubscription is 64 streams.
"""

from types import SimpleNamespace

import pytest

from repro.core.admission import (
    ADMISSION_POLICIES,
    AdmissionPolicySweep,
    BASE_STREAMS,
    allocation_for_policy,
    sweep_admission_policies,
)
from repro.core.experiment import Experiment, ExperimentConfig
from repro.core.knobs import ResourceAllocation
from repro.core.runner import SupervisionPolicy, run_supervised
from repro.errors import (
    ConfigurationError,
    FaultInjectionError,
    GrantTimeoutError,
    SimulationError,
)
from repro.faults import FaultInjector, GrantStorm
from repro.hardware.machine import Machine, MachineSpec


def tpch_config(streams, duration=600.0, seed=0, allocation=None, faults=()):
    return ExperimentConfig(
        workload="tpch", scale_factor=100, duration=duration, seed=seed,
        allocation=allocation or ResourceAllocation(),
        workload_kwargs={"streams": streams}, faults=tuple(faults),
    )


def fingerprint(measurement):
    """Everything timing-sensitive a run produces."""
    return (
        measurement.primary_metric,
        dict(measurement.wait_times),
        dict(measurement.plan_signatures),
        measurement.ssd_read_mb,
        measurement.ssd_write_mb,
        measurement.dram_read_mb,
        measurement.mpki,
    )


class TestSeedInvariance:
    def test_uncontended_protection_is_bit_identical_to_seed(self):
        """Satellite: overload protection enabled but never contended
        must reproduce the seed run bit-identically — the semaphore's
        uncontended path never suspends a process."""
        seed = Experiment(tpch_config(streams=2, duration=300.0,
                                      seed=2)).run()
        protected = Experiment(tpch_config(
            streams=2, duration=300.0, seed=2,
            allocation=ResourceAllocation(grant_timeout_s=30.0),
        )).run()
        assert fingerprint(protected) == fingerprint(seed)
        assert protected.mean_query_latency("Q18") == \
            seed.mean_query_latency("Q18")
        # The layer was live (counters exist) but nothing ever queued:
        assert protected.grant_waits == 0
        assert protected.grant_timeouts == 0
        assert protected.grant_degrades == 0
        assert not protected.degraded_gracefully

    def test_protection_off_reports_no_grant_activity(self):
        measurement = Experiment(tpch_config(streams=2,
                                             duration=300.0)).run()
        assert measurement.grant_waits == 0
        assert measurement.grant_queue_peak == 0


class TestContendedRun:
    def test_surge_degrades_gracefully_with_counters(self):
        """16x oversubscription completes without an unhandled exception
        and every overload counter is live."""
        measurement = Experiment(tpch_config(
            streams=16 * BASE_STREAMS, seed=0,
            allocation=ResourceAllocation(grant_timeout_s=1.0),
        )).run()
        assert measurement.grant_waits > 0
        assert measurement.grant_wait_seconds > 0
        assert measurement.grant_timeouts > 0
        assert measurement.grant_degrades > 0
        assert measurement.grant_queue_peak > 0
        assert measurement.degraded_gracefully


class TestGrantTimeoutFailure:
    def test_fail_policy_raises_from_experiment(self):
        config = tpch_config(
            streams=64, seed=7,
            allocation=ResourceAllocation(grant_timeout_s=1.0,
                                          on_grant_timeout="fail"),
        )
        with pytest.raises(GrantTimeoutError) as excinfo:
            Experiment(config).run()
        assert excinfo.value.waited == pytest.approx(1.0)
        assert excinfo.value.query      # names its victim

    def test_fail_policy_collects_as_failed_measurement(self):
        """Satellite: a grant timeout surfaces as a structured
        FailedMeasurement under on_error='collect', not a lost sweep."""
        config = tpch_config(
            streams=64, seed=7,
            allocation=ResourceAllocation(grant_timeout_s=1.0,
                                          on_grant_timeout="fail"),
        )
        report = run_supervised(
            [config],
            policy=SupervisionPolicy(on_error="collect", retries=2),
        )
        assert not report.ok
        assert report.measurements == [None]
        failure = report.failures[0]
        assert failure.kind == "error"
        assert failure.error_type == "GrantTimeoutError"
        # Deterministic simulation errors are not retried.
        assert failure.attempts == 1


class TestAdmissionSweep:
    def test_queued_policy_acceptance_ladder(self):
        """The headline acceptance: 1x/4x/16x with a 30s grant timeout
        completes cleanly, shows real queueing at 16x, and per-stream
        throughput degrades monotonically."""
        sweep = sweep_admission_policies(
            scale_factor=100, oversubscription=(1, 4, 16),
            policies=("queued",), duration_scale=0.4, seed=0,
            grant_timeout_s=30.0,
        )
        ladder = sweep.points_for("queued")
        assert [p.oversubscription for p in ladder] == [1, 4, 16]
        assert [p.streams for p in ladder] == [4, 16, 64]
        assert all(p.qps > 0 for p in ladder)
        top = ladder[-1]
        assert top.grant_waits > 0
        assert top.grant_wait_seconds > 0
        assert top.grant_timeouts > 0
        assert top.grant_degrades > 0
        assert top.grant_queue_peak > 0
        assert sweep.monotone_degradation("queued")
        per_stream = [p.per_stream_qps for p in ladder]
        assert per_stream == sorted(per_stream, reverse=True)

    def test_all_policies_small_grid_monotone(self):
        sweep = sweep_admission_policies(
            scale_factor=100, oversubscription=(1, 4),
            duration_scale=0.2, seed=0,
        )
        assert isinstance(sweep, AdmissionPolicySweep)
        assert len(sweep.points) == len(ADMISSION_POLICIES) * 2
        assert sweep.monotone_degradation()
        # The immediate policy is the seed: no semaphore activity ever.
        for point in sweep.points_for("immediate"):
            assert point.grant_waits == 0
            assert point.grant_timeouts == 0

    def test_policy_allocations(self):
        assert allocation_for_policy("immediate") == ResourceAllocation()
        serialized = allocation_for_policy("serialized")
        assert serialized.grant_percent == 100.0
        assert serialized.max_queue_depth is not None
        queued = allocation_for_policy("queued", grant_timeout_s=5.0)
        assert queued.grant_timeout_s == 5.0
        with pytest.raises(ConfigurationError):
            allocation_for_policy("bogus")

    def test_invalid_grid_rejected(self):
        with pytest.raises(ConfigurationError):
            sweep_admission_policies(oversubscription=())
        with pytest.raises(ConfigurationError):
            sweep_admission_policies(oversubscription=(0, 1))
        with pytest.raises(ConfigurationError):
            sweep_admission_policies(policies=("nope",))


class TestGrantStorm:
    def test_spec_validation(self):
        with pytest.raises(FaultInjectionError):
            GrantStorm(at=-1.0)
        with pytest.raises(FaultInjectionError):
            GrantStorm(at=0.0, queries=0)
        with pytest.raises(FaultInjectionError):
            GrantStorm(at=0.0, pool_fraction=0.0)
        with pytest.raises(FaultInjectionError):
            GrantStorm(at=0.0, pool_fraction=1.5)
        with pytest.raises(FaultInjectionError):
            GrantStorm(at=0.0, hold_seconds=0.0)

    def test_storm_drives_real_queries_into_the_queue(self):
        storm = GrantStorm(at=10.0, queries=8, pool_fraction=0.25,
                           hold_seconds=60.0)
        measurement = Experiment(tpch_config(
            streams=4, duration=300.0,
            allocation=ResourceAllocation(grant_timeout_s=30.0),
            faults=(storm,),
        )).run()
        assert measurement.fault_summary["storm_grants"] == 8
        assert measurement.grant_waits > 0
        assert measurement.grant_queue_peak > 0

    def test_storm_is_invisible_without_protection(self):
        """With admission unconditional nothing is charged, so the storm
        changes nothing — the baseline fingerprint survives."""
        storm = GrantStorm(at=10.0, queries=8, pool_fraction=0.25,
                           hold_seconds=60.0)
        baseline = Experiment(tpch_config(streams=4, duration=300.0)).run()
        stormed = Experiment(tpch_config(streams=4, duration=300.0,
                                         faults=(storm,))).run()
        assert stormed.fault_summary["storm_grants"] == 8
        assert stormed.grant_waits == 0
        assert fingerprint(stormed) == fingerprint(baseline)

    def test_non_admission_errors_propagate(self):
        """Only a refused grant counts as a storm rejection; any other
        error from the semaphore is a fault in the run and surfaces."""

        class BrokenSemaphore:
            pool_bytes = 1000.0

            def acquire(self, nbytes, name="query"):
                raise SimulationError("grant queue corrupted")
                yield  # a generator, like the real acquire

        machine = Machine(spec=MachineSpec(), seed=0)
        injector = FaultInjector(
            machine, SimpleNamespace(semaphore=BrokenSemaphore()),
            faults=(GrantStorm(at=0.1, queries=2),))
        injector.install()
        with pytest.raises(SimulationError, match="grant queue corrupted"):
            machine.sim.run(until=1.0)
        assert injector.storm_rejections == 0
        assert injector.storm_grants == 0
