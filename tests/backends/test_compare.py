"""Cross-backend comparison grids and the routing counters each routed
measurement carries through the supervised runner and the cache."""

import json

import pytest

from repro.backends.compare import compare_admission, compare_fig2
from repro.core.experiment import ExperimentConfig
from repro.core.knobs import ResourceAllocation
from repro.core.resultcache import ResultCache
from repro.core.runner import JOURNAL_BASENAME, run_supervised
from repro.core.sweeps import core_sweep, on_backend
from repro.errors import ConfigurationError


class TestOnBackend:
    def test_retargets_every_config(self):
        base = core_sweep("tpch", 10, cores=(8, 32))
        retargeted = on_backend(base, backend="columnstore-dss")
        assert all(c.backend == "columnstore-dss" for c in retargeted)
        assert [c.allocation for c in retargeted] == \
            [c.allocation for c in base]

    def test_router_retarget(self):
        base = core_sweep("tpch", 10, cores=(8,))
        (routed,) = on_backend(base, router="cost-scored",
                               router_backends=("rowstore-oltp",
                                                "columnstore-dss"))
        assert routed.routed
        assert routed.effective_router_backends == \
            ("rowstore-oltp", "columnstore-dss")


class TestCompareFig2:
    def test_series_per_backend_plus_router(self):
        figure = compare_fig2(scale_factor=10, cores=(8, 32),
                              duration_scale=0.05, jobs=2)
        assert figure.labels == (
            "rowstore-oltp", "columnstore-dss", "elastic-serverless",
            "router:rule-based",
        )
        assert figure.xs == (8, 32)
        for label in figure.labels:
            assert len(figure.series[label]) == 2
            assert all(m.primary_metric > 0 for m in figure.series[label])
        routing = figure.routing_summary()
        assert sum(routing["router:rule-based"].values()) > 0

    def test_unknown_backend_fails_fast(self):
        with pytest.raises(ConfigurationError):
            compare_fig2(backends=("rowstore-oltp", "hekaton"))


class TestCompareAdmission:
    def test_router_floor_holds(self):
        comparison = compare_admission(scale_factor=10,
                                       oversubscription=(1, 4),
                                       policies=("immediate", "queued"),
                                       duration_scale=0.05)
        assert comparison.router_floor_ok
        assert comparison.floor_violations() == []
        assert comparison.backend_labels == (
            "rowstore-oltp", "columnstore-dss", "elastic-serverless"
        )
        routed = comparison.sweeps["router:rule-based"]
        assert routed.backend == "router:rule-based"
        assert len(routed.points) == 4


class TestSweepReportRouting:
    def test_decisions_ride_on_measurements(self, tmp_path):
        """A routed sweep's placements live on each measurement, and the
        journal holds attempt records only (no per-point route notes)."""
        configs = on_backend(
            [ExperimentConfig(workload="tpch", scale_factor=10, duration=3.0,
                              allocation=ResourceAllocation(logical_cores=c))
             for c in (8, 32)],
            router="rule-based",
        )
        report = run_supervised(configs, cache=ResultCache(tmp_path))
        for measurement in report.measurements:
            assert measurement.router_policy == "rule-based"
            assert sum(measurement.router_decisions.values()) > 0
            assert set(measurement.router_decisions) <= {
                "rowstore-oltp", "columnstore-dss", "elastic-serverless"
            }
        journal_lines = [
            json.loads(line)
            for line in (tmp_path / JOURNAL_BASENAME).read_text().splitlines()
        ]
        assert [l["status"] for l in journal_lines] == ["ok", "ok"]

    def test_cache_hits_still_counted(self, tmp_path):
        """Router decisions survive the cache: a hit carries the same
        per-backend placements as the run that stored it."""
        config = ExperimentConfig(workload="tpch", scale_factor=10,
                                  duration=3.0, router="rule-based")
        cache = ResultCache(tmp_path)
        first = run_supervised([config], cache=cache)
        second = run_supervised([config], cache=cache)
        assert second.cache_hits == 1
        decisions = second.measurements[0].router_decisions
        assert sum(decisions.values()) > 0
        assert decisions == first.measurements[0].router_decisions
        assert second.measurements[0].router_fallbacks == \
            first.measurements[0].router_fallbacks
