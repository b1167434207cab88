"""Tests for the parallel sweep runner: ordering, determinism, caching,
seed derivation, and measurement picklability (what the cache and the
process pool both depend on)."""

import pickle

import pytest

from repro.core.experiment import ExperimentConfig, run_experiment
from repro.core.knobs import ResourceAllocation
from repro.core.resultcache import ResultCache
from repro.core.runner import map_ordered, run_one
from repro.core.sweeps import run_sweep
from repro.errors import ConfigurationError
from repro.hardware.machine import MachineSpec
from repro.workloads.base import ThroughputTracker


def mixed_sweep():
    """A small mixed TPC-H/TPC-E grid with distinct shapes per point."""
    return [
        ExperimentConfig(workload="tpch", scale_factor=10, duration=20.0,
                         seed=3),
        ExperimentConfig(workload="tpce", scale_factor=5000, duration=3.0,
                         allocation=ResourceAllocation(logical_cores=8),
                         seed=5),
        ExperimentConfig(workload="asdb", scale_factor=2000, duration=3.0,
                         allocation=ResourceAllocation(llc_mb=6), seed=7),
    ]


def fingerprint(measurement):
    return (
        measurement.workload,
        measurement.primary_metric,
        dict(measurement.wait_times),
        dict(measurement.plan_signatures),
    )


class TestMapOrdered:
    def test_serial_preserves_order(self):
        assert map_ordered(lambda x: x * x, [3, 1, 2]) == [9, 1, 4]

    def test_parallel_preserves_order(self):
        assert map_ordered(abs, [-5, 2, -1, 4], jobs=2) == [5, 2, 1, 4]

    def test_rejects_bad_job_count(self):
        with pytest.raises(ConfigurationError):
            map_ordered(abs, [1], jobs=0)

    def test_empty_input(self):
        assert map_ordered(abs, [], jobs=4) == []


class TestDeterminism:
    def test_parallel_identical_to_serial(self):
        """jobs=4 must be bit-identical to jobs=1 on a mixed sweep."""
        configs = mixed_sweep()
        serial = run_sweep(configs, jobs=1)
        parallel = run_sweep(configs, jobs=4)
        assert [fingerprint(m) for m in serial] == \
            [fingerprint(m) for m in parallel]

    def test_order_matches_input_order(self):
        configs = mixed_sweep()
        measurements = run_sweep(configs, jobs=2)
        assert [m.workload for m in measurements] == \
            [c.workload for c in configs]
        assert [m.scale_factor for m in measurements] == \
            [c.scale_factor for c in configs]

    def test_run_one_matches_run_experiment(self):
        config = ExperimentConfig(workload="asdb", scale_factor=2000,
                                  duration=3.0, seed=9)
        direct = run_experiment("asdb", 2000, duration=3.0, seed=9)
        assert run_one(config).primary_metric == direct.primary_metric


class TestCachedRuns:
    def test_second_run_is_all_hits_and_identical(self, tmp_path):
        configs = mixed_sweep()
        cache = ResultCache(tmp_path)
        cold = run_sweep(configs, cache=cache)
        assert cache.stats() == {"hits": 0, "misses": 3, "stores": 3,
                                 "store_errors": 0, "corrupt": 0}
        warm = run_sweep(configs, cache=cache)
        assert cache.stats() == {"hits": 3, "misses": 3, "stores": 3,
                                 "store_errors": 0, "corrupt": 0}
        assert [fingerprint(m) for m in cold] == \
            [fingerprint(m) for m in warm]

    def test_cached_results_match_uncached(self, tmp_path):
        configs = mixed_sweep()
        cache = ResultCache(tmp_path)
        run_sweep(configs, cache=cache)
        warm = run_sweep(configs, cache=cache)
        plain = run_sweep(configs)
        assert [fingerprint(m) for m in warm] == \
            [fingerprint(m) for m in plain]

    def test_partial_hits_fill_only_the_gaps(self, tmp_path):
        configs = mixed_sweep()
        cache = ResultCache(tmp_path)
        run_sweep(configs[:2], cache=cache)
        results = run_sweep(configs, cache=cache, jobs=2)
        assert cache.stats()["hits"] == 2
        assert cache.stats()["stores"] == 3
        assert [m.workload for m in results] == ["tpch", "tpce", "asdb"]

    def test_seed_change_misses(self, tmp_path):
        cache = ResultCache(tmp_path)
        config = mixed_sweep()[0]
        run_sweep([config], cache=cache)
        reseeded = ExperimentConfig(
            workload=config.workload, scale_factor=config.scale_factor,
            duration=config.duration, seed=config.seed + 1,
        )
        assert cache.get(reseeded) is None

    def test_machine_spec_change_misses(self, tmp_path):
        cache = ResultCache(tmp_path)
        config = mixed_sweep()[0]
        run_sweep([config], cache=cache)
        other_box = ExperimentConfig(
            workload=config.workload, scale_factor=config.scale_factor,
            duration=config.duration, seed=config.seed,
            machine_spec=MachineSpec(cores_per_socket=16),
        )
        assert cache.get(other_box) is None

    def test_calibration_token_change_misses(self, tmp_path):
        config = mixed_sweep()[0]
        cache = ResultCache(tmp_path, token="model-v1")
        run_sweep([config], cache=cache)
        retuned = ResultCache(tmp_path, token="model-v2")
        assert retuned.get(config) is None


class TestPickleRoundTrip:
    """The cache and the worker pool both ship Measurements through
    pickle; a lossy or unstable round trip corrupts every figure."""

    def test_measurement_round_trip_preserves_results(self):
        m = run_experiment("tpch", 10, duration=20.0, seed=3)
        clone = pickle.loads(pickle.dumps(m))
        assert clone.primary_metric == m.primary_metric
        assert clone.wait_times == m.wait_times
        assert clone.plan_signatures == m.plan_signatures
        assert clone.mpki == m.mpki
        assert clone.counters.series("instructions_retired") == \
            m.counters.series("instructions_retired")

    def test_tracker_round_trip(self):
        tracker = ThroughputTracker()
        for latency in (0.5, 0.1, 0.9):
            tracker.record("txn", latency)
        clone = pickle.loads(pickle.dumps(tracker))
        assert clone.counts == tracker.counts
        assert clone.latencies["txn"].percentile(50.0) == \
            tracker.latencies["txn"].percentile(50.0)

    def test_cdf_pickle_is_canonical(self):
        """Two Cdfs with the same samples in different insertion order
        serialize identically, so cache bytes are reproducible."""
        from repro.sim.stats import Cdf

        a, b = Cdf(), Cdf()
        for x in (3.0, 1.0, 2.0):
            a.add(x)
        for x in (1.0, 2.0, 3.0):
            b.add(x)
        assert pickle.dumps(a) == pickle.dumps(b)
        assert pickle.loads(pickle.dumps(a)).percentile(50.0) == \
            a.percentile(50.0)
