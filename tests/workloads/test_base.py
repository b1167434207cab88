"""Tests for the workload base protocol and throughput tracking."""

import pytest

from repro.errors import SimulationError
from repro.workloads.base import ThroughputTracker
from repro.workloads.tpce import TpceWorkload


class TestThroughputTracker:
    def test_counts_by_kind(self):
        tracker = ThroughputTracker()
        tracker.record("txn", 0.01)
        tracker.record("txn", 0.02)
        tracker.record("query", 1.5)
        assert tracker.count("txn") == 2
        assert tracker.count("query") == 1
        assert tracker.count("unknown") == 0

    def test_rates(self):
        tracker = ThroughputTracker()
        for _ in range(50):
            tracker.record("txn", 0.01)
        assert tracker.rate("txn", elapsed_seconds=10.0) == pytest.approx(5.0)
        assert tracker.rate("txn", elapsed_seconds=0.0) == 0.0

    def test_latency_percentiles(self):
        tracker = ThroughputTracker()
        for ms in range(1, 101):
            tracker.record("txn", ms / 1000.0)
        latencies = tracker.latencies["txn"]
        assert latencies.percentile(50) == pytest.approx(0.0505, rel=0.02)
        assert latencies.percentile(99) == pytest.approx(0.099, rel=0.02)

    def test_unknown_kind_percentile_raises(self):
        with pytest.raises(KeyError):
            ThroughputTracker().latencies["nope"].percentile(50)


class TestWorkloadDefaults:
    def test_database_is_cached(self):
        workload = TpceWorkload(5000)
        assert workload.database is workload.database

    def test_primary_metric_uses_primary_kind(self):
        workload = TpceWorkload(5000)
        tracker = ThroughputTracker()
        tracker.record("txn", 0.01)
        tracker.record("query", 0.5)      # ignored for TPS
        assert workload.primary_metric(tracker, elapsed=1.0) == 1.0

    def test_per_type_latency_classes_recorded(self):
        """Clients record both the aggregate and per-type classes, so
        per-transaction-type latencies are available for analysis."""
        from repro.core.experiment import run_experiment
        m = run_experiment("tpce", 5000, duration=4.0)
        assert m.tracker.count("txn") > 0
        per_type = [k for k in m.tracker.counts if k not in ("txn",)]
        assert len(per_type) >= 5   # several mix members completed
        for kind in per_type:
            assert m.tracker.latencies[kind].percentile(50) > 0
