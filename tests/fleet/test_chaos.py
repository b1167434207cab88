"""The seeded chaos scheduler: reproducible schedules, invariants,
journaling, and the sweep fault grid."""

import dataclasses

import pytest

from repro.core.experiment import ExperimentConfig
from repro.core.resultcache import canonical_json
from repro.errors import ChaosInvariantError, FaultInjectionError
from repro.faults.chaos import (
    SCENARIOS,
    ChaosConfig,
    chaos_fault_grid,
    episode_payload,
    generate_schedule,
    run_chaos,
)
from repro.faults.spec import CrashPoint, GrantStorm, StorageBrownout


class RecordingJournal:
    """Minimal journal double: collects note() events."""

    def __init__(self):
        self.notes = []

    def note(self, event, **fields):
        self.notes.append({"event": event, **fields})

    def events(self, event):
        return [n for n in self.notes if n["event"] == event]


class TestScheduleGeneration:
    def test_same_seed_same_schedule(self):
        a = generate_schedule(7, 3.0, ("crash", "brownout"), episodes=4)
        b = generate_schedule(7, 3.0, ("crash", "brownout"), episodes=4)
        assert a == b

    def test_different_seeds_differ(self):
        a = generate_schedule(1, 3.0, ("crash", "brownout"), episodes=4)
        b = generate_schedule(2, 3.0, ("crash", "brownout"), episodes=4)
        assert a != b

    def test_episodes_heal_before_the_next_fires(self):
        schedule = generate_schedule(3, 5.0, ("brownout", "partition"),
                                     episodes=5)
        for earlier, later in zip(schedule, schedule[1:]):
            assert earlier.at + earlier.duration < later.at

    def test_episodes_land_inside_the_chaos_window(self):
        duration = 4.0
        for episode in generate_schedule(5, duration, ("crash",), episodes=3):
            assert 0.2 * duration <= episode.at
            assert episode.at + episode.duration <= 0.9 * duration + 1e-9

    def test_kinds_and_targets_come_from_the_request(self):
        schedule = generate_schedule(9, 3.0, ("storm",), replicas=3,
                                     episodes=4)
        assert all(e.kind == "storm" for e in schedule)
        assert all(0 <= e.replica < 3 for e in schedule)
        assert all(isinstance(e.spec, GrantStorm) for e in schedule)

    def test_no_kinds_or_no_episodes_is_empty(self):
        assert generate_schedule(1, 3.0, ()) == ()
        assert generate_schedule(1, 3.0, ("crash",), episodes=0) == ()

    def test_unknown_kind_rejected(self):
        with pytest.raises(FaultInjectionError):
            generate_schedule(1, 3.0, ("meteor",))

    def test_episode_payload_is_primitive(self):
        episode = generate_schedule(1, 3.0, ("crash",), episodes=1)[0]
        payload = episode_payload(episode)
        assert set(payload) == {"at", "kind", "replica", "duration"}
        canonical_json(payload)  # must be hashable/journalable


class TestChaosConfig:
    @pytest.mark.parametrize("kwargs", [
        dict(duration=0.0),
        dict(replicas=1),
        dict(episodes=-1),
        dict(scenario="meteor-strike"),
        dict(duration=float("nan")),
        dict(duration=float("inf")),
    ])
    def test_validation(self, kwargs):
        (field,) = kwargs
        with pytest.raises(FaultInjectionError, match=f"ChaosConfig.{field}"):
            ChaosConfig(**kwargs)

    def test_scenarios_cover_the_fault_vocabulary(self):
        assert set(SCENARIOS["mixed"]) == {
            "crash", "brownout", "partition", "storm"}
        assert SCENARIOS["none"] == ()


class TestInvariants:
    def test_empty_schedule_is_deterministic(self):
        report = run_chaos(ChaosConfig(seed=11, scenario="none",
                                       duration=1.0))
        assert report.invariants["determinism"] is True
        assert report.invariants["durability"] is True
        assert report.ok
        assert report.schedule == ()

    def test_failover_scenario_passes_all_gates(self):
        journal = RecordingJournal()
        report = run_chaos(ChaosConfig(seed=1, scenario="failover",
                                       duration=2.0), journal=journal)
        assert report.invariants["durability"] is True
        assert report.invariants["availability"] is True
        assert report.audit["lost"] == []
        assert report.ok
        for window in report.failover_windows:
            assert window <= report.availability_bound
        # The journal carries the full evidence trail.
        assert len(journal.events("chaos-schedule")) == 1
        assert len(journal.events("chaos-episode")) == len(report.episodes)
        assert len(journal.events("chaos-report")) == 1

    def test_hedging_beats_the_unhedged_tail(self):
        report = run_chaos(ChaosConfig(seed=2, scenario="hedging",
                                       duration=2.0), compare_hedging=True)
        assert report.invariants["hedging-p99"] is True
        assert report.hedging["hedges"] > 0
        assert report.read_p99 < report.unhedged_read_p99

    def test_report_ok_treats_not_applicable_as_passing(self):
        report = run_chaos(ChaosConfig(seed=1, scenario="failover",
                                       duration=2.0))
        assert report.invariants["hedging-p99"] is None
        assert report.ok

    def test_violation_raises_with_the_invariant_named(self):
        report = run_chaos(ChaosConfig(seed=11, scenario="none",
                                       duration=1.0))
        broken = dataclasses.replace(
            report, invariants=dict(report.invariants, durability=False))
        assert not broken.ok
        assert broken.violations() == ["durability"]
        with pytest.raises(ChaosInvariantError, match="durability"):
            broken.raise_on_violation()

    def test_summary_lines_are_greppable(self):
        report = run_chaos(ChaosConfig(seed=11, scenario="none",
                                       duration=1.0))
        lines = report.summary_lines()
        assert "invariant durability: ok" in lines
        assert "invariant determinism: ok" in lines
        assert "invariant hedging-p99: n/a" in lines


class TestReproducibility:
    def test_same_config_same_digest(self):
        config = ChaosConfig(seed=4, scenario="failover", duration=1.5)
        assert run_chaos(config).digest == run_chaos(config).digest


class TestChaosFaultGrid:
    def configs(self, n=4):
        return [
            ExperimentConfig(workload="asdb", scale_factor=2000,
                             duration=0.4, seed=seed)
            for seed in range(n)
        ]

    def test_deterministic_across_calls(self):
        a = chaos_fault_grid(self.configs(), seed=7)
        b = chaos_fault_grid(self.configs(), seed=7)
        assert a == b

    def test_each_config_gains_exactly_one_fault(self):
        for original, faulted in zip(self.configs(),
                                     chaos_fault_grid(self.configs(), seed=7)):
            assert len(faulted.faults) == len(original.faults) + 1
            assert isinstance(faulted.faults[-1],
                              (CrashPoint, StorageBrownout, GrantStorm))

    def test_fault_lands_inside_the_run(self):
        for faulted in chaos_fault_grid(self.configs(), seed=3):
            fault = faulted.faults[-1]
            at = getattr(fault, "at", getattr(fault, "start", None))
            assert 0.0 < at < faulted.duration

    def test_seed_changes_the_grid(self):
        a = chaos_fault_grid(self.configs(), seed=1)
        b = chaos_fault_grid(self.configs(), seed=2)
        assert a != b

    def test_partition_is_rejected_for_sweeps(self):
        with pytest.raises(FaultInjectionError):
            chaos_fault_grid(self.configs(), kinds=("partition",))
        with pytest.raises(FaultInjectionError):
            chaos_fault_grid(self.configs(), kinds=())
