"""Tests for chunked dispatch.

Chunking must change dispatch granularity only, never per-point
outcomes.
"""

import pytest

from repro.core.dispatch import (
    CHUNK_MAX,
    OUTCOME_ERROR,
    OUTCOME_OK,
    auto_chunk,
    make_chunk,
    run_chunk,
)
from repro.core.experiment import ExperimentConfig
from repro.errors import SimulatedWorkerCrash
from repro.faults.spec import WorkerCrash


def cfg(**overrides):
    defaults = dict(workload="asdb", scale_factor=2000, duration=0.5, seed=0)
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


class TestChunks:
    def test_make_chunk_pairs_configs_with_attempts(self):
        configs = [cfg(seed=s) for s in (0, 1, 2)]
        task = make_chunk(configs, attempts=[0, 0, 3], in_pool=False)
        assert len(task) == 3
        assert task.entries[0] == (configs[0], 0)
        assert task.entries[2] == (configs[2], 3)
        assert not task.in_pool

    def test_make_chunk_rejects_empty(self):
        with pytest.raises(ValueError):
            make_chunk([], attempts=[])

    def test_run_chunk_returns_per_point_outcomes_in_order(self):
        good = cfg(duration=0.3)
        bad = cfg(workload="nope", duration=0.3)
        task = make_chunk([good, bad, cfg(seed=1, duration=0.3)],
                          attempts=[0, 0, 0], in_pool=False)
        outcomes = run_chunk(task)
        tags = [tag for tag, _ in outcomes]
        assert tags == [OUTCOME_OK, OUTCOME_ERROR, OUTCOME_OK]
        assert isinstance(outcomes[1][1], Exception)

    def test_one_bad_point_does_not_poison_chunk_mates(self):
        """Every point is attempted even after an earlier failure."""
        bad_first = make_chunk(
            [cfg(workload="nope", duration=0.3), cfg(duration=0.3)],
            attempts=[0, 0], in_pool=False,
        )
        outcomes = run_chunk(bad_first)
        assert [tag for tag, _ in outcomes] == [OUTCOME_ERROR, OUTCOME_OK]

    def test_crash_fault_surfaces_as_crash_payload(self):
        """Out of pool a crash fault becomes the in-process stand-in —
        returned as an error outcome whose payload the supervisor
        recognizes as a crash — and chunk-mates still run."""
        task = make_chunk(
            [cfg(faults=(WorkerCrash(attempts=1),)), cfg(seed=1, duration=0.3)],
            attempts=[0, 0], in_pool=False,
        )
        outcomes = run_chunk(task)
        tag, payload = outcomes[0]
        assert tag == OUTCOME_ERROR
        assert isinstance(payload, SimulatedWorkerCrash)
        assert outcomes[1][0] == OUTCOME_OK

    def test_chunk_results_match_unchunked_runs(self):
        configs = [cfg(seed=s, duration=0.3) for s in (0, 1)]
        task = make_chunk(configs, attempts=[0, 0], in_pool=False)
        chunked = [payload for _, payload in run_chunk(task)]
        from repro.core.dispatch import run_one
        solo = [run_one(c) for c in configs]
        assert [m.primary_metric for m in chunked] == [
            m.primary_metric for m in solo
        ]


class TestAutoChunk:
    def test_splits_into_four_slices_per_job(self):
        assert auto_chunk(points=80, jobs=4) == 5
        assert auto_chunk(points=10, jobs=4) == 1
        assert auto_chunk(points=16, jobs=2) == 2

    def test_caps_at_chunk_max(self):
        assert auto_chunk(points=100_000, jobs=1) == CHUNK_MAX

    def test_degenerate_inputs(self):
        assert auto_chunk(points=0, jobs=4) == 1
        assert auto_chunk(points=5, jobs=0) == 1
