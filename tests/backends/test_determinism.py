"""Personality determinism: a sweep on a non-default backend must produce
bit-identical Measurements whether it runs in-process or across worker
processes, and run to run."""

import pickle

from repro.core.experiment import ExperimentConfig
from repro.core.knobs import ResourceAllocation
from repro.core.sweeps import run_sweep


def backend_sweep():
    return [
        ExperimentConfig(
            workload=workload, scale_factor=sf, duration=duration, seed=seed,
            allocation=ResourceAllocation(logical_cores=cores, llc_mb=12),
            backend=backend,
        )
        for workload, sf, duration, cores, seed, backend in (
            ("tpch", 10, 4.0, 32, 0, "columnstore-dss"),
            ("tpch", 10, 4.0, 8, 3, "elastic-serverless"),
            ("asdb", 2000, 1.0, 16, 1, "columnstore-dss"),
            ("asdb", 2000, 1.0, 16, 2, "elastic-serverless"),
        )
    ]


class TestBackendDeterminism:
    def test_parallel_identical_to_serial(self):
        configs = backend_sweep()
        serial = run_sweep(configs, jobs=1)
        parallel = run_sweep(configs, jobs=4)
        for config, s, p in zip(configs, serial, parallel):
            assert s.backend == p.backend == config.backend
            assert pickle.dumps(s) == pickle.dumps(p)

    def test_repeat_runs_identical(self):
        config = backend_sweep()[1]
        a, b = run_sweep([config, config], jobs=1)
        assert pickle.dumps(a) == pickle.dumps(b)
