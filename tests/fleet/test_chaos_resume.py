"""Satellite: journal resume of a chaos-interrupted sweep.

A sweep over chaos-faulted configs is interrupted partway; the resumed
sweep must (a) re-run only the unfinished points, and (b) re-note fault
schedules that replay-match what the journal already holds.
"""

from repro.core.experiment import ExperimentConfig
from repro.core.journal import SweepJournal
from repro.core.resultcache import ResultCache, canonical_json
from repro.core.runner import SupervisionPolicy, run_supervised
from repro.faults.chaos import chaos_fault_grid
from repro.faults.spec import simulation_faults

GRID_SEED = 7


def chaos_grid():
    configs = [
        ExperimentConfig(workload="asdb", scale_factor=2000,
                         duration=0.4, seed=seed)
        for seed in range(3)
    ]
    return chaos_fault_grid(configs, seed=GRID_SEED)


def quiet_policy():
    return SupervisionPolicy(retries=1, timeout=60.0)


class TestChaosResume:
    def test_resume_reruns_only_unfinished_points(self, tmp_path):
        grid = chaos_grid()
        cache = ResultCache(tmp_path / "cache")
        journal_path = tmp_path / "sweep.jsonl"

        # The "interrupted" sweep: only the first two points complete.
        first = run_supervised(grid[:2], cache=cache, policy=quiet_policy(),
                               journal=SweepJournal(journal_path))
        assert len(first.measurements) == 2
        assert first.cache_hits == 0

        # The resumed sweep over the full grid.
        resumed = run_supervised(grid, cache=cache, policy=quiet_policy(),
                                 journal=SweepJournal(journal_path))
        assert len(resumed.measurements) == len(grid)
        assert resumed.cache_hits == 2
        assert resumed.failures == []

        # Exactly one "ok" attempt per digest — finished points were
        # served from cache, not re-executed.
        journal = SweepJournal(journal_path)
        for config in grid:
            digest = cache.digest(config)
            attempts = [e for e in journal.entries(digest)
                        if e["status"] == "ok"]
            assert len(attempts) == 1

    def test_chaos_notes_replay_match_across_resume(self, tmp_path):
        grid = chaos_grid()
        cache = ResultCache(tmp_path / "cache")
        journal_path = tmp_path / "sweep.jsonl"

        run_supervised(grid[:2], cache=cache, policy=quiet_policy(),
                       journal=SweepJournal(journal_path))
        run_supervised(grid, cache=cache, policy=quiet_policy(),
                       journal=SweepJournal(journal_path))

        journal = SweepJournal(journal_path)
        notes = journal.events("chaos")
        by_digest = {}
        for note in notes:
            by_digest.setdefault(note["digest"], []).append(note["faults"])

        # A digest noted in both runs must carry an identical payload:
        # the fault schedule is derived from the config, so replay is
        # bit-identical.
        for payloads in by_digest.values():
            assert all(p == payloads[0] for p in payloads)

        # And each payload matches a freshly regenerated grid — the
        # schedule is a pure function of (configs, seed), not of run
        # history.
        regenerated = chaos_grid()
        assert [c.faults for c in regenerated] == [c.faults for c in grid]
        for config in regenerated:
            digest = cache.digest(config)
            expected = [canonical_json(f)
                        for f in simulation_faults(config.faults)]
            assert by_digest[digest][0] == expected

    def test_fully_cached_rerun_adds_no_attempts_or_notes(self, tmp_path):
        grid = chaos_grid()
        cache = ResultCache(tmp_path / "cache")
        journal_path = tmp_path / "sweep.jsonl"

        run_supervised(grid, cache=cache, policy=quiet_policy(),
                       journal=SweepJournal(journal_path))
        before = SweepJournal(journal_path)
        attempts_before = {cache.digest(c): len(list(before.entries(
            cache.digest(c)))) for c in grid}
        chaos_notes_before = len(before.events("chaos"))

        report = run_supervised(grid, cache=cache, policy=quiet_policy(),
                                journal=SweepJournal(journal_path))
        assert report.cache_hits == len(grid)

        after = SweepJournal(journal_path)
        for config in grid:
            digest = cache.digest(config)
            assert len(list(after.entries(digest))) == attempts_before[digest]
        # Cached points never become pending, so no new chaos notes.
        assert len(after.events("chaos")) == chaos_notes_before
