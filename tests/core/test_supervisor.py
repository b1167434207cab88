"""Tests for the supervised sweep runner: crash retry with backoff,
timeouts, error policies, journal-based resume, and the chained
``map_ordered`` error reporting."""

import time

import pytest

from repro.core import runner
from repro.core.experiment import ExperimentConfig
from repro.core.journal import (
    STATUS_CRASH,
    STATUS_OK,
    STATUS_TIMEOUT,
    SweepJournal,
)
from repro.core.resultcache import ResultCache, calibration_token, config_digest
from repro.core.runner import (
    JOURNAL_BASENAME,
    SupervisionPolicy,
    map_ordered,
    retry_delay,
    run_supervised,
)
from repro.core.sweeps import run_sweep
from repro.errors import ConfigurationError, SweepExecutionError
from repro.faults.spec import WorkerCrash, WorkerStall
from repro.sim.randomness import RandomStreams

#: For the classes that retry for real: backoff ceilings of 10 ms, 20 ms.
with_fast_retries = pytest.mark.usefixtures("fast_retries")


def cfg(seed=0, faults=(), duration=0.5):
    return ExperimentConfig(workload="asdb", scale_factor=2000,
                            duration=duration, seed=seed, faults=tuple(faults))


def fast_policy(**overrides):
    """Supervision with two crash retries (``fast_retries`` shrinks the
    backoff)."""
    return SupervisionPolicy(**{"retries": 2, **overrides})


class TestPolicyValidation:
    def test_rejects_bad_values(self):
        for bad in (
            dict(timeout=0.0),
            dict(timeout=float("nan")),
            dict(retries=-1),
            dict(on_error="explode"),
        ):
            with pytest.raises(ConfigurationError):
                SupervisionPolicy(**bad)

    def test_retry_delay_grows_exponentially_and_clamps(self):
        assert [retry_delay(n) for n in (0, 1, 2, 3)] == [0.0, 0.25, 0.5, 1.0]
        assert retry_delay(6) == 8.0
        assert retry_delay(7) == 10.0   # clamped at MAX_BACKOFF_S

    def test_deterministic_errors_not_retryable(self):
        """Only a crash earns a retry: an error or a timeout is final
        however many retries the policy grants."""
        from repro.core.runner import _Item, _Supervisor

        sup = _Supervisor([], jobs=1, cache=None, journal=None,
                          policy=fast_policy(retries=5, on_error="skip"))

        def retried(kind):
            item = _Item(index=0, config=cfg(), digest="d" * 8,
                         base_attempts=0)
            return sup._fail(item, kind, RuntimeError(kind))

        assert retried("crash")
        assert not retried("error")
        assert not retried("timeout")


@with_fast_retries
class TestCrashRetry:
    def test_crash_is_retried_and_succeeds(self):
        """attempts=1 means the fault fires once: attempt 0 crashes,
        attempt 1 (after backoff) runs clean."""
        report = run_supervised([cfg(faults=[WorkerCrash(attempts=1)])],
                                policy=fast_policy())
        assert report.ok
        assert report.retries == 1
        assert report.measurements[0] is not None

    def test_backoff_delays_the_retry(self, monkeypatch):
        """The two retries sleep the two jittered draws from the point's
        own stream: uniform under ceilings of 0.2 s and then 0.4 s."""
        monkeypatch.setattr(runner, "BACKOFF_S", 0.2)
        config = cfg(faults=[WorkerCrash(attempts=2)])
        stream = RandomStreams(0).fork("retry-backoff").get(
            config_digest(config, calibration_token()))
        expected = stream.uniform(0.0, 0.2) + stream.uniform(0.0, 0.4)
        start = time.monotonic()
        run_supervised([config], policy=fast_policy(retries=2))
        assert time.monotonic() - start >= expected

    def test_exhausted_retries_collects_failure(self):
        report = run_supervised([cfg(faults=[WorkerCrash(attempts=99)])],
                                policy=fast_policy(retries=1,
                                                   on_error="collect"))
        assert not report.ok
        assert report.measurements[0] is None
        (failure,) = report.failures
        assert failure.kind == "crash"
        assert failure.index == 0
        assert failure.attempts == 2  # initial try + one retry

    def test_raise_policy_chains_the_cause(self):
        with pytest.raises(SweepExecutionError) as info:
            run_supervised([cfg(faults=[WorkerCrash(attempts=99)])],
                           policy=fast_policy(retries=0))
        assert info.value.index == 0
        assert info.value.__cause__ is not None

    def test_skip_policy_leaves_hole_without_record(self):
        report = run_supervised([cfg(faults=[WorkerCrash(attempts=99)]),
                                 cfg(seed=1)],
                                policy=fast_policy(retries=0, on_error="skip"))
        assert report.measurements[0] is None
        assert report.measurements[1] is not None
        assert report.failures == []


@with_fast_retries
class TestDeterministicErrors:
    def test_bad_config_fails_without_retry(self):
        bad = ExperimentConfig(workload="nope", scale_factor=1, duration=0.5)
        report = run_supervised([bad],
                                policy=fast_policy(on_error="collect"))
        (failure,) = report.failures
        assert failure.kind == "error"
        assert failure.attempts == 1      # never retried
        assert report.retries == 0

    def test_run_sweep_raises_on_holes(self):
        bad = ExperimentConfig(workload="nope", scale_factor=1, duration=0.5)
        with pytest.raises(SweepExecutionError):
            run_sweep([bad], policy=fast_policy(on_error="collect"))


@with_fast_retries
class TestPoolSupervision:
    """Real process-pool behaviours: hard worker death and timeouts."""

    def test_hard_worker_crash_survived(self):
        """WorkerCrash in a pool worker os._exits -> BrokenProcessPool;
        the supervisor rebuilds the pool and retries."""
        configs = [cfg(faults=[WorkerCrash(attempts=1)]), cfg(seed=1)]
        report = run_supervised(configs, jobs=2, policy=fast_policy())
        assert report.ok
        assert report.pool_restarts >= 1
        assert report.retries >= 1

    def test_timeout_reaps_stalled_worker_and_spares_the_rest(self):
        configs = [cfg(faults=[WorkerStall(seconds=60.0, attempts=1)]),
                   cfg(seed=1)]
        report = run_supervised(
            configs, jobs=2,
            policy=fast_policy(timeout=10.0, on_error="collect"),
        )
        (failure,) = report.failures
        assert failure.kind == "timeout"
        assert failure.index == 0
        assert report.measurements[1] is not None

    def test_unfaulted_points_bit_identical_to_fault_free_run(self):
        configs = [cfg(seed=1), cfg(faults=[WorkerCrash(attempts=99)]),
                   cfg(seed=2)]
        report = run_supervised(
            configs, jobs=2, policy=fast_policy(retries=1, on_error="collect"),
        )
        clean = run_sweep([cfg(seed=1), cfg(seed=2)])
        assert report.measurements[0].primary_metric == clean[0].primary_metric
        assert report.measurements[2].primary_metric == clean[1].primary_metric
        assert report.measurements[1] is None


@with_fast_retries
class TestJournalResume:
    def test_second_invocation_reruns_only_failures(self, tmp_path):
        cache = ResultCache(tmp_path)
        configs = [cfg(seed=1),
                   cfg(seed=2, faults=[WorkerCrash(attempts=3)])]
        policy = fast_policy(retries=1, on_error="collect")
        cold = run_supervised(configs, cache=cache, policy=policy)
        assert cold.measurements[0] is not None
        assert cold.measurements[1] is None

        journal = SweepJournal(tmp_path / JOURNAL_BASENAME)
        crashed = cold.failures[0].digest
        assert journal.attempts(crashed) == 2
        assert journal.failed_digests() == [crashed]

        # Resume: point 0 is a cache hit; point 1 continues at global
        # attempt 2, burns its last faulty attempt, and succeeds on
        # attempt 3 -- the spec fails three times EVER, not per run.
        warm = run_supervised(configs, cache=cache, policy=policy)
        assert warm.ok
        assert warm.cache_hits == 1
        assert warm.measurements[1] is not None

    def test_all_hit_replay_never_loads_the_journal(self, tmp_path,
                                                    monkeypatch):
        cache = ResultCache(tmp_path)
        configs = [cfg(seed=1), cfg(seed=2)]
        run_supervised(configs, cache=cache)
        assert (tmp_path / JOURNAL_BASENAME).exists()
        loads = []
        load = SweepJournal._load
        monkeypatch.setattr(SweepJournal, "_load",
                            lambda self: loads.append(self.path) or load(self))
        warm = run_supervised(configs, cache=cache)
        assert warm.cache_hits == 2
        assert loads == []
        # A point left to run opens the auto-derived journal once.
        run_supervised(configs + [cfg(seed=3)], cache=cache)
        assert loads == [tmp_path / JOURNAL_BASENAME]

    def test_journal_statuses_recorded(self, tmp_path):
        cache = ResultCache(tmp_path)
        run_supervised([cfg(faults=[WorkerCrash(attempts=1)])],
                       cache=cache, policy=fast_policy())
        journal = SweepJournal(tmp_path / JOURNAL_BASENAME)
        statuses = [e["status"] for e in journal._entries]
        assert statuses == [STATUS_CRASH, STATUS_OK]

    def test_journal_tolerates_torn_tail(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        journal = SweepJournal(path)
        journal.record("abc", STATUS_TIMEOUT, attempt=0, index=4)
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"digest": "def", "status": "ok"')   # torn line
        reloaded = SweepJournal(path)
        assert len(reloaded) == 1
        assert reloaded.attempts("abc") == 1
        assert reloaded.last_status("def") is None


class TestMapOrderedErrorReporting:
    def test_serial_wraps_with_index_and_cause(self):
        def explode(x):
            if x == 2:
                raise ValueError("kaboom")
            return x

        with pytest.raises(SweepExecutionError) as info:
            map_ordered(explode, [0, 1, 2, 3])
        assert info.value.index == 2
        assert isinstance(info.value.__cause__, ValueError)
        assert "kaboom" in str(info.value)

    def test_parallel_wraps_with_index_and_cause(self):
        with pytest.raises(SweepExecutionError) as info:
            map_ordered(_explode_on_two, [0, 1, 2, 3], jobs=2)
        assert info.value.index == 2
        assert isinstance(info.value.__cause__, ValueError)

    def test_item_description_is_bounded(self):
        with pytest.raises(SweepExecutionError) as info:
            map_ordered(_explode_on_two, [2 for _ in range(1)],
                        jobs=1)
        assert len(info.value.item) <= 120


def _explode_on_two(x):
    """Module-level so the process pool can pickle it."""
    if x == 2:
        raise ValueError("kaboom")
    return x


class TestBackoffJitter:
    """Full jitter on crash-retry backoff (decorrelates retry storms)."""

    def supervisor(self):
        from repro.core.runner import _Supervisor

        return _Supervisor([], jobs=1, cache=None, policy=fast_policy(),
                           journal=None)

    def item(self, digest="d" * 8, failures=1):
        from repro.core.runner import _Item

        return _Item(index=0, config=cfg(), digest=digest,
                     base_attempts=0, failures=failures)

    def test_jitter_stays_under_the_exponential_ceiling(self):
        sup = self.supervisor()
        for failures in (1, 2, 3, 4):
            item = self.item(failures=failures)
            ceiling = retry_delay(failures)
            for _ in range(20):
                delay = sup._backoff_delay(item)
                assert 0.0 <= delay <= ceiling

    def test_same_seed_and_digest_redraw_the_same_schedule(self):
        sup_a, sup_b = self.supervisor(), self.supervisor()
        draws_a = [sup_a._backoff_delay(self.item()) for _ in range(5)]
        draws_b = [sup_b._backoff_delay(self.item()) for _ in range(5)]
        assert draws_a == draws_b
        # Successive draws advance — this is a schedule, not a constant.
        assert len(set(draws_a)) > 1

    def test_different_digests_decorrelate(self):
        sup = self.supervisor()
        a = [sup._backoff_delay(self.item(digest="a" * 8)) for _ in range(5)]
        b = [sup._backoff_delay(self.item(digest="b" * 8)) for _ in range(5)]
        assert a != b
