"""Fleet traffic: shedding order, governance, SLO contracts, chaos."""

import json
import math
from dataclasses import asdict, replace

import pytest

from repro.cli import main
from repro.errors import ConfigurationError
from repro.faults.chaos import generate_schedule
from repro.fleet.cluster import (
    FleetReport,
    FleetSpec,
    TenantSpec,
    default_tenants,
    fleet_oversubscription_sweep,
    priority_watermark,
    run_fleet,
)
from repro.workloads.arrivals import ArrivalSpec

#: Small-but-saturating fleet for the contract tests: tight per-shard
#: capacity so oversubscription sheds without a huge event volume.
BASE = FleetSpec(
    shards=2,
    duration=2.5,
    arrival=ArrivalSpec(offered_tps=250.0, trace="burst"),
    tenants=default_tenants(3),
    capacity_per_shard=8,
)


class TestSpecValidation:
    def test_defaults_are_valid(self):
        FleetSpec()

    def test_rejects_bad_shapes(self):
        with pytest.raises(ConfigurationError):
            FleetSpec(shards=0)
        with pytest.raises(ConfigurationError):
            FleetSpec(backends=())
        with pytest.raises(ConfigurationError):
            FleetSpec(tenants=())
        with pytest.raises(ConfigurationError):
            FleetSpec(capacity_per_shard=0)
        with pytest.raises(ConfigurationError):
            FleetSpec(replication=0)

    def test_rejects_duplicate_tenant_names(self):
        with pytest.raises(ConfigurationError):
            FleetSpec(tenants=(TenantSpec(name="a"), TenantSpec(name="a")))

    def test_rejects_bad_tenants(self):
        with pytest.raises(ConfigurationError):
            TenantSpec(name="t", weight=0.0)
        with pytest.raises(ConfigurationError):
            TenantSpec(name="t", priority=-1)
        with pytest.raises(ConfigurationError):
            TenantSpec(name="t", slo_p99_ms=0.0)
        with pytest.raises(ConfigurationError):
            TenantSpec(name="t", rate_limit_tps=-1.0)

    @pytest.mark.parametrize("field,value", [
        ("weight", math.nan),
        ("slo_p99_ms", math.nan),
        ("rate_limit_tps", math.nan),
        ("burst_allowance", math.nan),
        ("burst_allowance", 0.5),
    ])
    def test_tenant_field_rejection_names_field_and_value(self, field, value):
        with pytest.raises(ConfigurationError,
                           match=rf"TenantSpec\.{field} .*got {value!r}"):
            TenantSpec(name="t", **{field: value})

    def test_fleet_duration_rejects_nan(self):
        with pytest.raises(ConfigurationError,
                           match=r"FleetSpec\.duration .*got nan"):
            FleetSpec(duration=math.nan)

    def test_analytics_workload_rejected(self):
        with pytest.raises(ConfigurationError):
            run_fleet(FleetSpec(workload="tpch", scale_factor=1))


class TestPriorityWatermark:
    def test_most_protected_class_gets_full_capacity(self):
        assert priority_watermark(0, 32) == 32

    def test_watermark_decreases_with_priority(self):
        marks = [priority_watermark(p, 32) for p in range(5)]
        assert marks == sorted(marks, reverse=True)

    def test_floor_holds_for_deep_priorities(self):
        assert priority_watermark(10, 32) == 8  # 25% floor


class TestBasicRun:
    def test_traffic_flows_and_report_is_consistent(self):
        report = run_fleet(BASE)
        assert report.arrivals > 0
        assert report.completed > 0
        assert report.arrivals >= report.completed + report.shed
        assert sum(t.arrivals for t in report.tenants.values()) == report.arrivals
        assert report.p99_ms >= report.p50_ms

    def test_bit_identical_replay(self):
        assert run_fleet(BASE).digest() == run_fleet(BASE).digest()

    def test_seed_changes_the_run(self):
        seeded = run_fleet(BASE)
        reseeded = run_fleet(replace(BASE, seed=7))
        assert seeded.digest() != reseeded.digest()

    def test_backends_cycle_across_shards(self):
        report = run_fleet(replace(BASE, shards=3))
        assert len({row["backend"] for row in report.per_shard}) == 3

    def test_payload_round_trip_preserves_digest(self):
        report = run_fleet(replace(BASE, arrival=replace(
            BASE.arrival, offered_tps=4000.0)))
        assert report.first_refusal_by_priority
        line = json.dumps(asdict(report), sort_keys=True)
        clone = FleetReport.from_payload(json.loads(line))
        assert clone.digest() == report.digest()
        assert clone.tenants == report.tenants
        assert clone.first_refusal_by_priority == \
            report.first_refusal_by_priority


class TestGracefulDegradation:
    """The PR's contract, checked as properties of a real sweep."""

    @pytest.fixture(scope="class")
    def sweep(self):
        return fleet_oversubscription_sweep(BASE, (1.0, 4.0, 16.0))

    def test_low_priority_sheds_strictly_before_high(self, sweep):
        """At every oversubscription level the shed fraction is ordered
        by priority, and a protected class never sheds first."""
        assert sweep.shed_fairness()
        # The 16x point must actually shed, or the property is vacuous.
        assert sweep.reports[-1].shed > 0

    def test_protected_p99_stays_inside_slo(self, sweep):
        assert sweep.slo_invariant()
        assert sweep.slo_violations() == []

    def test_goodput_fraction_degrades_monotonically(self, sweep):
        assert sweep.monotone_degradation()
        for name, stats in sweep.reports[0].tenants.items():
            worst = sweep.reports[-1].tenants[name]
            assert worst.goodput_fraction <= stats.goodput_fraction + 0.02

    def test_shed_fraction_ordering_is_strict_under_overload(self, sweep):
        report = sweep.reports[-1]
        by_priority = {}
        for stats in report.tenants.values():
            by_priority.setdefault(stats.priority, []).append(stats)
        fractions = [
            sum(s.shed for s in group) / sum(s.arrivals for s in group)
            for _, group in sorted(by_priority.items())
        ]
        assert fractions == sorted(fractions)


class TestGovernance:
    def test_token_bucket_caps_a_governed_tenant(self):
        tenants = (
            TenantSpec(name="governed", priority=1, rate_limit_tps=20.0),
            TenantSpec(name="free", priority=1),
        )
        spec = FleetSpec(shards=2, duration=3.0,
                         arrival=ArrivalSpec(offered_tps=300.0),
                         tenants=tenants)
        report = run_fleet(spec)
        governed = report.tenants["governed"]
        free = report.tenants["free"]
        assert governed.governed > 0
        assert free.governed == 0
        # Bucket: rate*duration plus the initial 2x-rate burst allowance.
        assert governed.completed <= 20.0 * spec.duration + 40.0 + 5
        assert free.completed > 2 * governed.completed

    def test_sub_token_rate_still_admits_at_its_rate(self):
        # Twice 0.4 tps is under the one token an admission spends; the
        # bucket holds at least one, so the tenant gets its rate.
        spec = FleetSpec(shards=2, duration=20.0,
                         arrival=ArrivalSpec(offered_tps=50.0),
                         tenants=(TenantSpec(name="slow",
                                             rate_limit_tps=0.4),))
        slow = run_fleet(spec).tenants["slow"]
        admitted = slow.arrivals - slow.governed
        assert 8 <= admitted <= 10
        assert slow.completed == admitted

    def test_ungoverned_by_default(self):
        report = run_fleet(BASE)
        assert report.governed == 0


class TestChaosComposability:
    def test_schedule_drives_episodes_against_the_fleet(self):
        schedule = generate_schedule(seed=7, duration=2.5,
                                     kinds=("storm", "brownout"),
                                     replicas=2, episodes=2)
        report = run_fleet(BASE, schedule=schedule)
        assert len(report.episodes) == 2
        assert {e["kind"] for e in report.episodes} <= {"storm", "brownout"}
        assert report.completed > 0

    def test_chaos_runs_replay_bit_identically(self):
        schedule = generate_schedule(seed=3, duration=2.5,
                                     kinds=("crash",), replicas=2,
                                     episodes=1)
        first = run_fleet(BASE, schedule=schedule)
        assert first.digest() == run_fleet(BASE, schedule=schedule).digest()

    def test_crash_window_takes_an_unreplicated_shard_out(self):
        schedule = generate_schedule(seed=3, duration=2.5,
                                     kinds=("crash",), replicas=2,
                                     episodes=1)
        report = run_fleet(BASE, schedule=schedule)
        episode = report.episodes[0]
        assert episode["kind"] == "crash"
        assert episode["healed_at"] > episode["at"]


class TestReplication:
    def test_replicated_fleet_serves_traffic(self):
        spec = FleetSpec(shards=2, duration=2.0, replication=3,
                         arrival=ArrivalSpec(offered_tps=150.0),
                         tenants=default_tenants(2))
        report = run_fleet(spec)
        assert report.completed > 0
        assert all(row["replicas"] == 3 for row in report.per_shard)

    def test_crash_fails_over_instead_of_blacking_out(self):
        spec = FleetSpec(shards=2, duration=3.0, replication=3,
                         arrival=ArrivalSpec(offered_tps=150.0),
                         tenants=default_tenants(2))
        schedule = generate_schedule(seed=5, duration=3.0,
                                     kinds=("crash",), replicas=2,
                                     episodes=1)
        report = run_fleet(spec, schedule=schedule)
        assert report.completed > 0
        assert len(report.episodes) == 1

    def test_divergence_repair_survives_a_later_crash(self):
        # Seed 2 truncates a rejoining replica's WAL below its published
        # checkpoint LSN; the replica's next crash image must not claim
        # the dropped records.
        spec = FleetSpec(shards=2, duration=3.0, replication=3,
                         arrival=ArrivalSpec(offered_tps=150.0),
                         tenants=default_tenants(2))
        schedule = generate_schedule(seed=2, duration=3.0,
                                     kinds=("crash", "partition"),
                                     replicas=2, episodes=4)
        report = run_fleet(spec, schedule=schedule)
        assert report.completed > 0
        assert len(report.episodes) == 4


class TestFleetSloView:
    def test_rows_sorted_most_protected_first(self, capsys):
        code = main(["fleet", "--shards", "2", "--duration", "2.5",
                     "--trace", "burst", "--offered-tps", "250",
                     "--tenants", "4", "--capacity", "8", "--oversub", "1"])
        assert code == 0
        rows = [line.split() for line in capsys.readouterr().out.splitlines()
                if line.startswith("tenant") and "prio" not in line]
        assert [(r[0], r[1]) for r in rows] == [
            ("tenant0", "0"), ("tenant3", "0"), ("tenant1", "1"),
            ("tenant2", "2")]

    def test_never_shed_tenant_has_no_first_shed(self):
        calm = FleetSpec(shards=2, duration=2.0,
                         arrival=ArrivalSpec(offered_tps=50.0),
                         tenants=default_tenants(2))
        tenants = run_fleet(calm).tenants.values()
        assert all(t.shed == 0 and t.first_shed_at is None for t in tenants)
        assert all(t.slo_ok for t in tenants)
