"""Supervised parallel experiment execution with retry, timeouts, and resume.

The study is embarrassingly parallel: every
:class:`~repro.core.experiment.ExperimentConfig` owns its machine, its
simulator, and its seeded RNG streams, so grid points share no state and
can run in separate worker processes.  Historically this module exposed a
bare ``ProcessPoolExecutor.map``; a single crashed worker (OOM kill,
segfaulting native library, ``BrokenProcessPool``) or one wedged config
then lost the *entire* sweep.  The supervised runner replaces that:

* :func:`run_supervised` drives every config through a future-based
  supervisor with per-experiment wall-clock timeouts, bounded retry with
  exponential backoff for crashed workers, and an ``on_error`` policy —
  ``"raise"`` (fail fast), ``"skip"`` / ``"collect"`` (graceful
  degradation) — returning a :class:`SweepReport` of successes plus
  structured :class:`FailedMeasurement` records;
* a :class:`~repro.core.resultcache.ResultCache` short-circuits configs
  measured before, and a :class:`~repro.core.journal.SweepJournal`
  (placed next to the cache by default) records every attempt so a
  re-invocation resumes: cached points are served, only failed points
  re-run, and attempt numbering continues where the previous run stopped;
* results come back **in input order** regardless of completion order,
  and ``jobs=1`` with no timeout runs in-process — no pool, no pickling,
  byte-identical to the historical serial path;
* :func:`run_sweep` is the dense contract on top: a list of
  measurements, or a raise naming the first grid point left without one.

Harness-level fault specs (:class:`~repro.faults.spec.WorkerCrash`,
:class:`~repro.faults.spec.WorkerStall`) are interpreted *here*, in the
worker entry point: a crash fault hard-exits the worker process (a
genuine ``BrokenProcessPool`` for the supervisor to survive), a stall
sleeps past the supervisor's deadline.  Both carry an ``attempts`` bound
checked against the global attempt number, so retried (or resumed)
attempts run clean — which is exactly what makes the retry and resume
paths testable end to end.
"""

from __future__ import annotations

import logging
import time
from concurrent.futures import FIRST_COMPLETED, Future, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, TypeVar

from repro.core import dispatch, workerpool
from repro.core.dispatch import run_one  # noqa: F401 - long-standing public name
from repro.core.experiment import ExperimentConfig
from repro.core.journal import (
    STATUS_CRASH,
    STATUS_ERROR,
    STATUS_OK,
    STATUS_TIMEOUT,
    SweepJournal,
)
from repro.core.measurement import Measurement
from repro.core.resultcache import (
    ResultCache,
    calibration_token,
    canonical_json,
    config_digest,
)
from repro.errors import (
    ConfigurationError,
    ExperimentTimeout,
    SimulatedWorkerCrash,
    SweepExecutionError,
)
from repro.faults.spec import harness_faults, simulation_faults
from repro.sim.randomness import RandomStreams

log = logging.getLogger(__name__)

_T = TypeVar("_T")
_R = TypeVar("_R")

#: Journal filename used when one is auto-derived from the cache directory.
JOURNAL_BASENAME = "sweep-journal.jsonl"

#: Crash-retry backoff ceiling after the n-th failure, in seconds:
#: ``min(BACKOFF_S * BACKOFF_FACTOR ** (n - 1), MAX_BACKOFF_S)``.  The
#: actual sleep is drawn below it (full jitter, see
#: :meth:`_Supervisor._backoff_delay`).  Tests that need fast retries
#: monkeypatch these.
BACKOFF_S = 0.25
BACKOFF_FACTOR = 2.0
MAX_BACKOFF_S = 10.0

#: Seconds the pool supervisor waits for a future before re-checking
#: deadlines and eligibility.
POLL_INTERVAL_S = 0.05


def map_ordered(
    fn: Callable[[_T], _R], items: Sequence[_T], jobs: int = 1
) -> List[_R]:
    """Apply *fn* to every item, preserving input order in the output.

    With ``jobs=1`` (or one item) this is a plain in-process loop; with
    more, every item gets its own future so long and short experiments
    interleave instead of convoying.  A worker exception is re-raised as
    a chained :class:`~repro.errors.SweepExecutionError` naming the item
    index that failed — with hundreds of grid points, "which one?" is
    the first debugging question.
    """
    if jobs < 1:
        raise ConfigurationError("jobs must be >= 1")
    items = list(items)
    if jobs == 1 or len(items) <= 1:
        results: List[_R] = []
        for index, item in enumerate(items):
            try:
                results.append(fn(item))
            except Exception as exc:
                raise _item_error(exc, index, item) from exc
        return results
    pool = workerpool.acquire(min(jobs, len(items)))
    futures = [pool.submit(fn, item) for item in items]
    results = []
    for index, (future, item) in enumerate(zip(futures, items)):
        try:
            results.append(future.result())
        except Exception as exc:
            # Fail fast for real: cancelling pending futures is not
            # enough — attempts already running would survive until
            # natural completion.  Kill the workers and retire the pool
            # (with cancel_futures) so the sweep actually stops; the next
            # acquire() builds a fresh warm pool.
            workerpool.retire(pool, kill=True)
            raise _item_error(exc, index, item) from exc
    return results


def _item_error(exc: BaseException, index: int, item: object) -> SweepExecutionError:
    summary = _describe_item(item)
    return SweepExecutionError(
        f"item {index} ({summary}) failed: {type(exc).__name__}: {exc}",
        index=index,
        item=summary,
    )


def _describe_item(item: object) -> str:
    if isinstance(item, ExperimentConfig):
        alloc = item.allocation
        return (
            f"{item.workload} sf={item.scale_factor} seed={item.seed} "
            f"cores={alloc.logical_cores} llc={alloc.llc_mb}MB"
        )
    text = repr(item)
    return text if len(text) <= 120 else text[:117] + "..."


# -- supervision policy --------------------------------------------------------

#: Accepted ``on_error`` policies.
ON_ERROR_CHOICES = ("raise", "skip", "collect")

#: Failure kinds recorded on a :class:`FailedMeasurement`.
KIND_CRASH = "crash"
KIND_TIMEOUT = "timeout"
KIND_ERROR = "error"


@dataclass(frozen=True)
class SupervisionPolicy:
    """How the supervisor treats slow, crashed, and failing experiments.

    ``timeout``
        Per-attempt wall-clock budget in seconds (None = unlimited).  A
        timed-out attempt kills and rebuilds the worker pool — there is
        no portable way to interrupt a busy worker — and other in-flight
        configs are resubmitted without burning an attempt.  Timeouts
        are never retried: the same config would stall the same way.
    ``retries``
        Extra attempts granted after a *crash* (worker process died),
        each after a jittered exponential backoff (:func:`retry_delay`).
        Deterministic experiment exceptions are never retried: the same
        config and seed would fail the same way.
    ``on_error``
        ``"raise"``: first exhausted failure aborts the sweep (chained
        :class:`~repro.errors.SweepExecutionError`).  ``"skip"`` and
        ``"collect"`` keep going and return the holes in the
        :class:`SweepReport`; ``"collect"`` is the intended mode for
        overnight sweeps — failures come back as structured records.
    """

    timeout: Optional[float] = None
    retries: int = 2
    on_error: str = "raise"

    def __post_init__(self):
        if self.timeout is not None and not self.timeout > 0:
            raise ConfigurationError(
                f"timeout must be positive or None: timeout={self.timeout!r}")
        if not self.retries >= 0:
            raise ConfigurationError(
                f"retries must be >= 0: retries={self.retries!r}")
        if self.on_error not in ON_ERROR_CHOICES:
            raise ConfigurationError(
                f"on_error must be one of {ON_ERROR_CHOICES}, got {self.on_error!r}"
            )


def retry_delay(failures: int) -> float:
    """Backoff ceiling before the attempt following the *failures*-th
    failure (seconds)."""
    if failures <= 0:
        return 0.0
    return min(BACKOFF_S * (BACKOFF_FACTOR ** (failures - 1)), MAX_BACKOFF_S)


@dataclass(frozen=True)
class FailedMeasurement:
    """A grid point that exhausted its attempts, as structured data."""

    index: int
    config: ExperimentConfig
    digest: str
    kind: str          # one of "crash" | "timeout" | "error"
    error_type: str
    message: str
    attempts: int      # global attempt count, including previous runs

    def describe(self) -> str:
        return (
            f"[{self.index}] {_describe_item(self.config)}: {self.kind} "
            f"after {self.attempts} attempt(s) — {self.error_type}: {self.message}"
        )


@dataclass
class SweepReport:
    """What a supervised sweep produced: successes, holes, and bookkeeping."""

    measurements: List[Optional[Measurement]]
    failures: List[FailedMeasurement] = field(default_factory=list)
    retries: int = 0
    cache_hits: int = 0
    pool_restarts: int = 0

    @property
    def ok(self) -> bool:
        return not self.failures

    def successes(self) -> List[Measurement]:
        return [m for m in self.measurements if m is not None]

    def summary(self) -> str:
        total = len(self.measurements)
        done = len(self.successes())
        return (
            f"{done}/{total} configs measured "
            f"({self.cache_hits} cached, {len(self.failures)} failed, "
            f"{self.retries} retries, {self.pool_restarts} pool restarts)"
        )


@dataclass
class _Item:
    """Supervisor-internal state for one pending grid point."""

    index: int
    config: ExperimentConfig
    digest: str
    base_attempts: int        # failures recorded by previous invocations
    failures: int = 0         # failures observed this invocation
    started: float = 0.0      # monotonic submit time of the running attempt
    eligible: float = 0.0     # monotonic time the next attempt may start

    @property
    def attempt(self) -> int:
        """Global attempt number passed to the worker (0-based)."""
        return self.base_attempts + self.failures


class _Supervisor:
    """Future-based sweep supervisor (see module docstring)."""

    def __init__(
        self,
        configs: Sequence[ExperimentConfig],
        jobs: int,
        cache: Optional[ResultCache],
        policy: SupervisionPolicy,
        journal: Optional[SweepJournal],
    ):
        if jobs < 1:
            raise ConfigurationError("jobs must be >= 1")
        self.configs = list(configs)
        self.jobs = jobs
        self.cache = cache
        self.policy = policy
        self.journal = journal
        self.report = SweepReport(measurements=[None] * len(self.configs))
        self._token = cache.token if cache is not None else None
        self._pool: Optional[workerpool.WarmPool] = None
        # Per-digest jitter streams: keyed by config digest so a resumed
        # sweep redraws the same retry schedule, forked off the sweep
        # runner's own namespace so no simulation stream is perturbed.
        self._jitter = RandomStreams(0).fork("retry-backoff")

    # -- digests / journal -----------------------------------------------------

    def _digest(self, config: ExperimentConfig) -> str:
        if self.cache is not None:
            return self.cache.digest(config)
        if self._token is None:
            self._token = calibration_token()
        return config_digest(config, self._token)

    def _journal_record(self, item: _Item, status: str,
                        error: Optional[str] = None) -> None:
        if self.journal is not None:
            self.journal.record(item.digest, status, attempt=item.attempt,
                                index=item.index, error=error)

    # -- outcome handling ------------------------------------------------------

    def _succeed(self, item: _Item, measurement: Measurement) -> None:
        self.report.measurements[item.index] = measurement
        self._journal_record(item, STATUS_OK)
        if self.cache is not None:
            self.cache.put(item.config, measurement, digest=item.digest)

    def _backoff_delay(self, item: _Item) -> float:
        """The actual sleep before *item*'s next attempt.

        :func:`retry_delay` gives the exponential ceiling; the sleep is
        drawn uniformly from ``[0, ceiling)`` (full jitter) out of the
        item's own named stream.  Full jitter decorrelates retry storms:
        when a shared cause (pool break, OOM burst) fails many configs at
        once, exponential backoff alone retries them in one synchronized
        wave that can re-trigger the cause.  Keying the stream by digest
        makes repeated runs — and resumed sweeps — schedule identical
        retry times.
        """
        ceiling = retry_delay(item.failures)
        if ceiling <= 0:
            return ceiling
        return float(self._jitter.get(item.digest).uniform(0.0, ceiling))

    def _fail(self, item: _Item, kind: str, exc: Optional[BaseException]) -> bool:
        """Record one failed attempt.

        Returns True when a retry was scheduled (``item.eligible`` set),
        False when the item is finally failed (and, under
        ``on_error="skip"``/``"collect"``, recorded as a hole).  Under
        ``on_error="raise"`` a final failure raises a chained
        :class:`~repro.errors.SweepExecutionError` instead.
        """
        status = {KIND_CRASH: STATUS_CRASH, KIND_TIMEOUT: STATUS_TIMEOUT}.get(
            kind, STATUS_ERROR
        )
        message = f"{type(exc).__name__}: {exc}" if exc is not None else kind
        self._journal_record(item, status, error=message)
        item.failures += 1
        if kind == KIND_CRASH and item.failures <= self.policy.retries:
            self.report.retries += 1
            delay = self._backoff_delay(item)
            item.eligible = time.monotonic() + delay
            log.warning(
                "config %d (%s) %s on attempt %d; retrying in %.2fs",
                item.index, item.digest[:12], kind, item.attempt - 1, delay,
            )
            return True
        failure = self._make_failure(item, kind, exc)
        if self.policy.on_error == "raise":
            error = SweepExecutionError(
                f"config {failure.index} ({failure.digest[:12]}) {kind} "
                f"after {failure.attempts} attempt(s): {failure.message}",
                index=failure.index,
                item=_describe_item(item.config),
            )
            if exc is not None:
                raise error from exc
            raise error
        if self.policy.on_error == "collect":
            self.report.failures.append(failure)
        log.warning("dropping %s", failure.describe())
        return False

    def _make_failure(self, item: _Item, kind: str,
                      exc: Optional[BaseException]) -> FailedMeasurement:
        if exc is None:
            exc = ExperimentTimeout(
                f"attempt exceeded {self.policy.timeout}s wall-clock budget"
            )
        return FailedMeasurement(
            index=item.index,
            config=item.config,
            digest=item.digest,
            kind=kind,
            error_type=type(exc).__name__,
            message=str(exc),
            attempts=item.attempt,
        )

    # -- main loop -------------------------------------------------------------

    def run(self) -> SweepReport:
        # Batched pre-dispatch probe: every config is hashed exactly once,
        # every cache hit resolves before any worker process is touched,
        # and the digests feed straight into journaling and dispatch.
        if self.cache is not None:
            probes = self.cache.get_many(self.configs)
        else:
            probes = [(self._digest(config), None) for config in self.configs]
        misses = []
        for index, (config, (digest, hit)) in enumerate(
            zip(self.configs, probes)
        ):
            if hit is None:
                misses.append((index, config, digest))
            else:
                self.report.measurements[index] = hit
                self.report.cache_hits += 1
        if not misses:
            return self.report
        if self.journal is None and self.cache is not None:
            # Opened only now, so an all-hit replay never reads it.
            self.journal = SweepJournal(self.cache.directory / JOURNAL_BASENAME)
        pending: List[_Item] = []
        for index, config, digest in misses:
            base = self.journal.attempts(digest) if self.journal else 0
            pending.append(_Item(index=index, config=config, digest=digest,
                                 base_attempts=base))
            sim_faults = simulation_faults(config.faults)
            if sim_faults and self.journal is not None:
                # Record the fault schedule a chaos-faulted point will run
                # under; a resumed sweep re-notes the same canonical
                # payload, so journals from interrupted chaos sweeps
                # replay-match (tests/fleet/test_chaos_resume.py).
                self.journal.note(
                    "chaos",
                    digest=digest,
                    faults=[canonical_json(f) for f in sim_faults],
                )
        if self.jobs == 1 and self.policy.timeout is None:
            self._run_serial(pending)
        else:
            self._run_pool(pending)
        return self.report

    def _run_serial(self, pending: List[_Item]) -> None:
        """In-process path: no pool, no pickling, no timeout enforcement.

        Crash faults surface as :class:`SimulatedWorkerCrash` so the
        retry/backoff machinery is exercised identically."""
        for item in pending:
            while True:
                delay = item.eligible - time.monotonic()
                if delay > 0:
                    time.sleep(delay)
                try:
                    measurement = dispatch.run_attempt(
                        item.config, item.attempt, in_pool=False
                    )
                except SimulatedWorkerCrash as exc:
                    retry = self._fail(item, KIND_CRASH, exc)
                except Exception as exc:
                    retry = self._fail(item, KIND_ERROR, exc)
                else:
                    self._succeed(item, measurement)
                    break
                if not retry:
                    break

    def _chunk_size(self, points: int) -> int:
        """Points per dispatched chunk for a sweep of *points*.

        A per-attempt timeout forces chunks of one: the attempt clock is per
        grid point, and a chunk of N points sharing one future would
        smear N budgets together.  Otherwise the sweep splits into about
        ``jobs * 4`` slices (:func:`~repro.core.dispatch.auto_chunk`).
        """
        if self.policy.timeout is not None:
            return 1
        return dispatch.auto_chunk(points, self.jobs)

    @staticmethod
    def _next_batch(ready: List[_Item], chunk: int) -> List[_Item]:
        """Up to *chunk* consecutive ready items, faulted points solo.

        Harness-faulted configs (crash/stall injection) get a chunk to
        themselves: a crash fault kills the whole worker, and chunk-mates
        of the culprit would be dragged into suspect quarantine for no
        reason.
        """
        first = ready[0]
        batch = [first]
        if chunk > 1 and not harness_faults(first.config.faults):
            for item in ready[1:chunk]:
                if harness_faults(item.config.faults):
                    break
                batch.append(item)
        return batch

    def _run_pool(self, pending: List[_Item]) -> None:
        waiting: List[_Item] = list(pending)
        # When the pool breaks with several attempts in flight,
        # BrokenProcessPool does not say which worker died, so nobody can
        # fairly be charged a crash attempt.  The in-flight set is instead
        # quarantined: suspects re-run one at a time (ahead of everything
        # else), so a completed solo run exonerates an item at no cost and
        # a solo pool break convicts the culprit with certainty.
        suspects: List[_Item] = []
        running: Dict[Future, List[_Item]] = {}
        chunk = self._chunk_size(len(pending))
        self._pool = workerpool.acquire(self.jobs)
        try:
            while waiting or suspects or running:
                now = time.monotonic()
                # Submit eligible items, several per future, up to the
                # in-flight window — counted in chunks, so the window
                # still approximates the number of busy workers
                # (submission is deferred while the window is full so the
                # per-attempt clock starts when the attempt actually can).
                # During quarantine the window narrows to one solo
                # suspect.
                source = suspects if suspects else waiting
                window = 1 if suspects else self.jobs
                ready = [it for it in source if it.eligible <= now]
                while ready and len(running) < window:
                    batch = self._next_batch(ready, 1 if suspects else chunk)
                    del ready[:len(batch)]
                    started = time.monotonic()
                    for item in batch:
                        source.remove(item)
                        item.started = started
                    task = dispatch.make_chunk(
                        [it.config for it in batch],
                        [it.attempt for it in batch],
                    )
                    try:
                        future = self._pool.submit(dispatch.run_chunk, task)
                    except BrokenProcessPool:
                        # A worker died between taking this batch and the
                        # submit (warm fork workers start tasks fast
                        # enough to lose this race).  The batch never ran:
                        # put it back unharmed.  In-flight futures surface
                        # the break below; with none in flight, replace
                        # the pool here.
                        source[:0] = batch
                        if not running:
                            self._recycle_pool(kill=False)
                        break
                    running[future] = batch
                if not running:
                    # Everything is backing off; sleep toward the earliest
                    # eligibility.
                    wake = min(it.eligible for it in suspects + waiting)
                    time.sleep(max(0.0, min(wake - time.monotonic(),
                                            POLL_INTERVAL_S * 10)))
                    continue
                done, _ = wait(set(running), timeout=POLL_INTERVAL_S,
                               return_when=FIRST_COMPLETED)
                crashed: List[_Item] = []
                broken_exc: Optional[BaseException] = None
                for future in done:
                    batch = running.pop(future)
                    try:
                        outcomes = future.result()
                    except BrokenProcessPool as exc:
                        broken_exc = exc
                        crashed.extend(batch)
                    except Exception as exc:
                        # Chunk-level failure (the task itself, not a
                        # point): charge every point, same as a shared
                        # worker exception would have.
                        for item in batch:
                            if self._fail(item, KIND_ERROR, exc):
                                waiting.append(item)
                    else:
                        for item, (tag, payload) in zip(batch, outcomes):
                            if tag == dispatch.OUTCOME_OK:
                                self._succeed(item, payload)
                            elif isinstance(payload, SimulatedWorkerCrash):
                                if self._fail(item, KIND_CRASH, payload):
                                    waiting.append(item)
                            elif self._fail(item, KIND_ERROR, payload):
                                waiting.append(item)
                if broken_exc is not None:
                    # The pool is dead; its leftover futures only ever
                    # raise BrokenProcessPool, so never await them.
                    in_flight = crashed + [
                        item for batch in running.values() for item in batch
                    ]
                    running.clear()
                    self._recycle_pool(kill=False)
                    if len(in_flight) == 1:
                        # A solo break names its culprit.
                        item = in_flight[0]
                        if self._fail(item, KIND_CRASH, broken_exc):
                            (suspects if suspects else waiting).append(item)
                    else:
                        in_flight.sort(key=lambda it: it.index)
                        for item in in_flight:
                            item.eligible = 0.0
                        suspects.extend(in_flight)
                    continue
                if self.policy.timeout is not None:
                    self._reap_timeouts(running, waiting)
        except SweepExecutionError:
            # Fail-fast path: don't leave stalled workers behind.
            workerpool.retire(self._pool, kill=True)
            raise
        finally:
            # The warm pool outlives the sweep on purpose — the next
            # sweep in this process reuses its already-imported workers.
            self._pool = None

    def _reap_timeouts(
        self,
        running: Dict[Future, List[_Item]],
        waiting: List[_Item],
    ) -> None:
        """Fail attempts past their deadline, replacing the pool if so.

        A busy worker cannot be interrupted portably, so any timeout
        kills the whole pool; innocent in-flight attempts are resubmitted
        without burning an attempt.  A timeout policy forces chunks of one
        (:meth:`_chunk_size`), so every running future maps to exactly
        one item and deadlines stay per grid point.
        """
        now = time.monotonic()
        expired = [f for f, batch in running.items()
                   if now - batch[0].started > self.policy.timeout]
        if not expired:
            return
        for future in expired:
            for item in running.pop(future):
                if self._fail(item, KIND_TIMEOUT, None):
                    waiting.append(item)
        for batch in running.values():
            for item in batch:
                item.eligible = 0.0
                waiting.append(item)
        running.clear()
        self._recycle_pool(kill=True)

    def _recycle_pool(self, kill: bool) -> None:
        """Retire the current (dead or poisoned) pool and acquire a fresh
        one.  ``kill=True`` terminates workers first — the timeout path,
        where attempts must actually stop, not drain."""
        assert self._pool is not None
        workerpool.retire(self._pool, kill=kill)
        self.report.pool_restarts += 1
        self._pool = workerpool.acquire(self.jobs)


def run_supervised(
    configs: Sequence[ExperimentConfig],
    jobs: int = 1,
    cache: Optional[ResultCache] = None,
    policy: Optional[SupervisionPolicy] = None,
    journal: Optional[SweepJournal] = None,
) -> SweepReport:
    """Run every config under supervision; never loses partial progress.

    When *cache* is given and *journal* is not, a journal next to the
    cache (``sweep-journal.jsonl``) is opened once the cache probe leaves
    a point to run, so interrupted sweeps resume: successes
    short-circuit through the cache, failed points re-run with their
    global attempt number carried forward.

    Parallel points share worker round-trips in chunks of about a
    quarter of the sweep per job (one point each under a per-attempt
    timeout).  Chunking changes dispatch granularity only — results,
    ordering, journal records, and retry accounting stay per grid point.
    """
    policy = policy or SupervisionPolicy()
    return _Supervisor(configs, jobs, cache, policy, journal).run()


def run_sweep(
    configs: Sequence[ExperimentConfig],
    jobs: int = 1,
    cache: Optional[ResultCache] = None,
    policy: Optional[SupervisionPolicy] = None,
) -> List[Measurement]:
    """Run every config, in input order; returns a dense list or raises.

    ``jobs`` controls process-pool fan-out (1 = in-process); parallel
    execution is exact, not approximate: every config carries its own
    seed and machine, so ``jobs=4`` returns bit-identical measurements
    to ``jobs=1``.  Any hole in the report (possible only under a
    ``"skip"``/``"collect"`` policy) raises
    :class:`~repro.errors.SweepExecutionError` naming the first missing
    grid point.  Use :func:`run_supervised` to consume partial results.
    """
    report = run_supervised(configs, jobs=jobs, cache=cache, policy=policy)
    for index, measurement in enumerate(report.measurements):
        if measurement is None:
            raise SweepExecutionError(
                f"config {index} produced no measurement "
                f"({len(report.failures)} failure(s) recorded): "
                + "; ".join(f.describe() for f in report.failures[:3]),
                index=index,
                item=_describe_item(configs[index]),
            )
    return report.measurements  # type: ignore[return-value]
