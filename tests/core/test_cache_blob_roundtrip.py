"""A Measurement read back from the ResultCache (latency samples as
float64 blobs, loaded into arrays) reports the same observables as the
one that was stored, and re-stores to the same bytes."""

import pickle

import pytest

from benchmarks.e2e.workloads import measurement_payload, sha256_json
from repro.core.experiment import ExperimentConfig, run_experiment
from repro.core.knobs import ResourceAllocation
from repro.core.resultcache import ResultCache

CONFIGS = [
    ExperimentConfig(workload="asdb", scale_factor=2000, duration=2.0, seed=3),
    ExperimentConfig(workload="tpch", scale_factor=30, duration=4.0, seed=1,
                     allocation=ResourceAllocation(logical_cores=8)),
]


@pytest.fixture(scope="module", params=CONFIGS,
                ids=[c.workload for c in CONFIGS])
def stored(request):
    config = request.param
    return config, run_experiment(config.workload, config.scale_factor,
                                  duration=config.duration, seed=config.seed,
                                  allocation=config.allocation)


def test_cache_round_trip_keeps_the_e2e_observables(tmp_path, stored):
    config, measurement = stored
    cache = ResultCache(tmp_path)
    cache.put(config, measurement)
    loaded = ResultCache(tmp_path).get(config)
    assert loaded is not None
    assert sha256_json(measurement_payload(loaded)) == sha256_json(
        measurement_payload(measurement))
    assert loaded.tracker.counts == measurement.tracker.counts
    for kind, cdf in measurement.tracker.latencies.items():
        assert loaded.tracker.latencies[kind].series() == cdf.series()


def test_a_hit_restores_to_the_same_bytes(tmp_path, stored):
    config, measurement = stored
    cache = ResultCache(tmp_path)
    path = cache.put(config, measurement)
    original = path.read_bytes()
    hit = cache.get(config)
    path.unlink()
    cache.put(config, hit)
    assert path.read_bytes() == original
    header, _, payload = original.partition(b"\n")
    assert payload == pickle.dumps(measurement, protocol=pickle.HIGHEST_PROTOCOL)
