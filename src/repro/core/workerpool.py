"""Persistent warm worker pools for sweep execution.

Historically every ``run_sweep(jobs=N)`` built a fresh
:class:`~concurrent.futures.ProcessPoolExecutor`, paid worker spawn plus a
full ``import repro`` in every worker, and tore the pool down at the end —
which is why ``BENCH_runner_scaling.json`` showed ``jobs=2/4`` *slower*
than serial on this repo's grids of cheap points.  This module keeps one
executor per worker count alive for the whole process:

* pools are created with the cheapest start method the platform offers
  (``fork`` where available, so workers inherit the parent's
  already-imported ``repro``; ``forkserver``, then ``spawn`` otherwise —
  override with ``$REPRO_POOL_START_METHOD``);
* every worker runs :func:`_warm_import` once at startup, so even
  spawn-start workers import the heavy modules exactly once, not once
  per sweep;
* :func:`acquire` hands back the warm pool for a worker count, creating
  it only on first use (or after the previous one was retired);
* :func:`retire` removes a pool from the registry — with ``kill=True``
  its worker processes are terminated, which is how the supervised
  runner reaps stalled workers and how fail-fast sweeps actually stop
  instead of letting running attempts finish unobserved.

The registry is process-global on purpose: back-to-back sweeps (every
figure regeneration runs several) reuse the same warm workers, and an
``atexit`` hook shuts everything down when the process ends.
"""

from __future__ import annotations

import atexit
import importlib
import logging
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Dict

log = logging.getLogger(__name__)

#: Environment override for the pool start method.
START_METHOD_ENV = "REPRO_POOL_START_METHOD"

#: Start methods in preference order: ``fork`` is the cheapest warm start
#: (workers share the parent's imported modules via copy-on-write);
#: ``forkserver`` forks warm workers from a clean preloaded server; plain
#: ``spawn`` is the portable fallback.
PREFERRED_START_METHODS = ("fork", "forkserver", "spawn")

#: Modules imported by every worker at startup.  Covers the transitive
#: bulk of an experiment run, so the first task dispatched to a fresh
#: worker pays no import latency.
WARM_MODULES = (
    "repro.core.experiment",
    "repro.core.dispatch",
    "repro.engine.engine",
    "repro.backends",
    "repro.workloads",
)


def _warm_import() -> None:
    """Worker initializer: front-load every heavy import exactly once."""
    for name in WARM_MODULES:
        importlib.import_module(name)


def start_method() -> str:
    """The multiprocessing start method warm pools use on this platform."""
    available = multiprocessing.get_all_start_methods()
    override = os.environ.get(START_METHOD_ENV)
    if override:
        if override in available:
            return override
        log.warning(
            "%s=%r is not available on this platform (have %s); ignoring",
            START_METHOD_ENV, override, available,
        )
    for method in PREFERRED_START_METHODS:
        if method in available:
            return method
    return multiprocessing.get_start_method()  # pragma: no cover


@dataclass
class WarmPool:
    """One persistent executor plus its bookkeeping."""

    executor: ProcessPoolExecutor
    workers: int
    method: str
    #: Monotonic id distinguishing successive pools at one worker count
    #: (a recycled pool is a *new* generation, which tests assert on).
    generation: int
    tasks_dispatched: int = field(default=0)
    #: Set by :func:`retire`; makes retirement idempotent (a pool can be
    #: retired both by a failing sweep and by the atexit sweep, or twice
    #: when chaos kills its workers while a retire is in flight).
    retired: bool = field(default=False)

    @property
    def broken(self) -> bool:
        """True once a worker died and the executor can't be reused."""
        return bool(getattr(self.executor, "_broken", False))

    def submit(self, fn, /, *args, **kwargs):
        self.tasks_dispatched += 1
        return self.executor.submit(fn, *args, **kwargs)


_pools: Dict[int, WarmPool] = {}
_generation = 0
_stats = {"created": 0, "reused": 0, "retired": 0}


def acquire(workers: int) -> WarmPool:
    """The warm pool for *workers* processes, created on first use.

    A pool that broke (worker death) since it was last seen is silently
    replaced — callers always get an executor that accepts submissions.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    global _generation
    pool = _pools.get(workers)
    if pool is not None and not pool.broken:
        _stats["reused"] += 1
        return pool
    if pool is not None:  # broken but never retired; clean it up
        retire(pool, kill=True)
    method = start_method()
    context = multiprocessing.get_context(method)
    executor = ProcessPoolExecutor(
        max_workers=workers,
        mp_context=context,
        initializer=_warm_import,
    )
    _generation += 1
    _stats["created"] += 1
    pool = WarmPool(executor=executor, workers=workers, method=method,
                    generation=_generation)
    _pools[workers] = pool
    return pool


def retire(pool: WarmPool, kill: bool = False) -> None:
    """Remove *pool* from the registry and shut its executor down.

    ``kill=True`` terminates the worker processes first — the only way to
    stop attempts that are already running (a busy worker cannot be
    interrupted portably).  Pending futures are cancelled either way, so
    a fail-fast sweep stops instead of draining its queue.

    Idempotent: retiring a pool that is already retired — or whose
    workers a chaos fault already killed — is a no-op, not an exception,
    and is counted once.  The registry entry is removed *before* any
    process teardown so a teardown failure can never leave a dead pool
    discoverable.
    """
    current = _pools.get(pool.workers)
    if current is pool:
        del _pools[pool.workers]
    if pool.retired:
        return
    pool.retired = True
    _stats["retired"] += 1
    if kill:
        kill_workers(pool.executor)
    try:
        pool.executor.shutdown(wait=False, cancel_futures=True)
    except TypeError:  # pragma: no cover - cancel_futures is 3.9+
        pool.executor.shutdown(wait=False)
    except Exception:  # pragma: no cover - already-dead executor state
        # A pool whose workers were externally killed can surface broken
        # internals from shutdown(); the pool is gone either way.
        pass


def kill_workers(executor: ProcessPoolExecutor) -> None:
    """Terminate an executor's worker processes (best effort).

    ``_processes`` is executor-internal; guard every access so a stdlib
    layout change degrades to an orderly shutdown instead of an
    attribute error.
    """
    processes = getattr(executor, "_processes", None) or {}
    for process in list(processes.values()):
        try:
            process.terminate()
        except Exception:  # pragma: no cover - best effort
            pass


def active_pools() -> Dict[int, WarmPool]:
    """Snapshot of live pools keyed by worker count (for tests/stats)."""
    return dict(_pools)


def pool_stats() -> Dict[str, int]:
    """Lifetime counters: pools created, reuse hits, retirements."""
    return dict(_stats)


def shutdown_all() -> None:
    """Retire every live pool (registered atexit; safe to call any time)."""
    for pool in list(_pools.values()):
        retire(pool)


atexit.register(shutdown_all)
