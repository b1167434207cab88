"""Autoscaler: seed invariance, reaction, cold starts, scale-in."""

import shutil
from dataclasses import replace
from pathlib import Path

import pytest

from repro.errors import ConfigurationError
from repro.faults.chaos import generate_schedule
from repro.fleet import cluster
from repro.fleet.autoscale import AutoscalePolicy
from repro.fleet.cluster import (
    FleetSpec,
    TenantSpec,
    TenantStats,
    default_tenants,
    fleet_oversubscription_sweep,
    run_fleet,
)
from repro.workloads.arrivals import ArrivalSpec

#: A flash crowd against a deliberately small fleet: calm before and
#: after, a sharp overload window in the middle.
FLASH = FleetSpec(
    shards=2,
    duration=6.0,
    arrival=ArrivalSpec(offered_tps=250.0, trace="flash-crowd",
                        flash_at=0.4, flash_magnitude=8.0, flash_width=0.3),
    tenants=default_tenants(3),
    capacity_per_shard=8,
    autoscale=AutoscalePolicy(min_shards=2, max_shards=8, cooldown_s=1.0),
)


#: A governed, autoscaled, chaos-faulted flash crowd whose 4x point
#: sheds in every priority class: every field of a journaled report is
#: populated.
PINNED_SPEC = FleetSpec(
    shards=2, duration=2.5, seed=5,
    arrival=ArrivalSpec(offered_tps=250.0, trace="flash-crowd"),
    tenants=(TenantSpec(name="gold", priority=0, weight=2.0),
             TenantSpec(name="silver", priority=1, rate_limit_tps=40.0),
             TenantSpec(name="bronze", priority=2)),
    capacity_per_shard=8,
    autoscale=AutoscalePolicy(min_shards=2, max_shards=4, cooldown_s=0.5,
                              interval_s=0.25),
)
PINNED_SCHEDULE = generate_schedule(3, 2.5, ("crash", "brownout", "storm"),
                                    replicas=2, episodes=2)
#: The ``fleet-traffic`` line of :data:`PINNED_SPEC` at 4x, as written
#: by the hand-built report payloads that ``dataclasses.asdict`` replaced.
PINNED_JOURNAL = Path(__file__).parent / "data" / "fleet-traffic.jsonl"
PINNED_DIGEST = \
    "6edc8b3f315d15d7affc86e3211f808c0a5afb1e038daa3ebaf69cc7aa0dccc0"


class TestPolicyValidation:
    def test_defaults_are_valid(self):
        AutoscalePolicy()

    def test_rejects_bad_settings(self):
        with pytest.raises(ConfigurationError):
            AutoscalePolicy(min_shards=0)
        with pytest.raises(ConfigurationError):
            AutoscalePolicy(min_shards=4, max_shards=2)
        with pytest.raises(ConfigurationError):
            AutoscalePolicy(interval_s=0.0)
        with pytest.raises(ConfigurationError):
            AutoscalePolicy(low_watermark=0.8, high_watermark=0.5)
        with pytest.raises(ConfigurationError):
            AutoscalePolicy(shed_high=0)

    @pytest.mark.parametrize("field,kwargs", [
        ("interval_s", dict(interval_s=float("nan"))),
        ("cooldown_s", dict(cooldown_s=float("nan"))),
        ("min_shards", dict(min_shards=0)),
        ("max_shards", dict(min_shards=4, max_shards=2)),
    ])
    def test_rejects_with_the_field_named(self, field, kwargs):
        with pytest.raises(ConfigurationError, match=f"AutoscalePolicy.{field}"):
            AutoscalePolicy(**kwargs)


class TestScalingBehavior:
    @pytest.fixture(scope="class")
    def report(self):
        return run_fleet(FLASH)

    def test_flash_crowd_triggers_scale_out(self, report):
        assert report.scaling["scale_outs"] >= 1
        assert report.shards_peak > report.shards_initial

    def test_reaction_time_includes_cold_start(self, report):
        policy = FLASH.autoscale
        assert report.reaction_seconds is not None
        assert report.reaction_seconds >= policy.cold_start_s
        # Bounded by detection (one interval) + the cold start itself.
        assert report.reaction_seconds <= policy.interval_s + policy.cold_start_s

    def test_every_scale_out_pays_the_cold_start(self, report):
        outs = [d for d in report.scaling["decisions"] if d["action"] == "out"]
        assert outs
        for decision in outs:
            assert decision["ready_at"] == pytest.approx(
                decision["at"] + FLASH.autoscale.cold_start_s)

    def test_fleet_scales_back_in_after_the_flash(self, report):
        assert report.scaling["scale_ins"] >= 1
        assert report.shards_final < report.shards_peak

    def test_scaling_reduces_sheds_versus_static(self, report):
        static = run_fleet(replace(FLASH, autoscale=None))
        assert report.shed < static.shed

    def test_never_exceeds_max_shards(self, report):
        assert report.shards_peak <= FLASH.autoscale.max_shards
        for decision in report.scaling["decisions"]:
            assert decision["shards_after"] <= FLASH.autoscale.max_shards
            assert decision["shards_after"] >= FLASH.autoscale.min_shards


class TestSeedInvariance:
    """The mandated property: same trace + seed => bit-identical scaling
    decisions and FleetReport, at any worker count."""

    def test_scaling_decisions_replay_bit_identically(self):
        first = run_fleet(FLASH)
        second = run_fleet(FLASH)
        assert first.scaling == second.scaling
        assert first.digest() == second.digest()

    def test_jobs_1_and_jobs_4_sweeps_are_bit_identical(self):
        spec = replace(FLASH, duration=3.0)
        serial = fleet_oversubscription_sweep(spec, (1.0, 2.0, 4.0), jobs=1)
        parallel = fleet_oversubscription_sweep(spec, (1.0, 2.0, 4.0), jobs=4)
        assert [r.digest() for r in serial.reports] == \
               [r.digest() for r in parallel.reports]
        assert [r.scaling for r in serial.reports] == \
               [r.scaling for r in parallel.reports]


class TestJournalResume:
    def test_finished_points_replay_from_the_journal(self, tmp_path):
        journal = tmp_path / "fleet.jsonl"
        spec = replace(FLASH, duration=2.0, autoscale=None)
        first = fleet_oversubscription_sweep(spec, (1.0, 4.0),
                                             journal=journal)
        assert first.resumed == 0
        second = fleet_oversubscription_sweep(spec, (1.0, 4.0, 8.0),
                                              journal=journal)
        assert second.resumed == 2
        assert [r.digest() for r in second.reports[:2]] == \
               [r.digest() for r in first.reports]

    def test_chaos_and_fault_free_points_do_not_collide(self, tmp_path):
        from repro.faults.chaos import generate_schedule

        journal = tmp_path / "fleet.jsonl"
        spec = replace(FLASH, duration=2.0, autoscale=None)
        schedule = generate_schedule(seed=1, duration=2.0,
                                     kinds=("storm",), replicas=2,
                                     episodes=1)
        fleet_oversubscription_sweep(spec, (1.0,), journal=journal,
                                     schedule=schedule)
        clean = fleet_oversubscription_sweep(spec, (1.0,), journal=journal)
        assert clean.resumed == 0

    def test_a_pinned_journal_line_replays_without_simulating(
            self, tmp_path, monkeypatch):
        journal = tmp_path / "fleet.jsonl"
        shutil.copy(PINNED_JOURNAL, journal)

        def simulate(*_args, **_kwargs):
            raise AssertionError("a journaled point was simulated")

        monkeypatch.setattr(cluster, "run_fleet", simulate)
        sweep = fleet_oversubscription_sweep(
            PINNED_SPEC, (4.0,), journal=journal, schedule=PINNED_SCHEDULE)
        assert sweep.resumed == 1
        report = sweep.reports[0]
        assert report.digest() == PINNED_DIGEST
        assert all(type(t) is TenantStats for t in report.tenants.values())
        assert sorted(report.first_refusal_by_priority) == [0, 1, 2]
        assert journal.read_bytes() == PINNED_JOURNAL.read_bytes()

    def test_a_fresh_run_journals_the_pinned_line(self, tmp_path):
        journal = tmp_path / "fleet.jsonl"
        sweep = fleet_oversubscription_sweep(
            PINNED_SPEC, (4.0,), journal=journal, schedule=PINNED_SCHEDULE)
        assert sweep.reports[0].digest() == PINNED_DIGEST
        assert journal.read_bytes() == PINNED_JOURNAL.read_bytes()
