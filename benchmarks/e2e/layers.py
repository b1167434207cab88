"""Per-layer attribution of a traced pass.

A traced pass runs under ``cProfile``.  Self time is ``tottime`` summed
by layer, where a layer is a set of ``repro`` modules (the map below).
Time in C builtins, the standard library and numpy has no layer of its
own: it is charged to the calling layer through the pstats caller
breakdown.  Blocking waits (lock acquires, sleeps, polls) are charged to
``wait`` instead, so a process that mostly waits on its workers does not
show that wait as work of the layer that called it.

Counts come from ``ncalls`` for plain functions.  cProfile counts every
resume of a generator as a call, so generator entry points are counted
by wrappers installed only for the traced pass (:class:`CallCounters`).
"""

from __future__ import annotations

import os
from typing import Dict, Iterable, List, Optional, Tuple

import repro
from repro.core.journal import SweepJournal
from repro.core.resultcache import ResultCache, config_digest
from repro.engine.executor import Executor
from repro.engine.optimizer.optimizer import Optimizer
from repro.engine.plancache import PlanCache
from repro.engine.sqlos import SqlOs
from repro.fleet.cluster import FleetCluster, priority_watermark
from repro.sim.events import Event, EventLoop
from repro.sim.process import Process
from repro.sim.resources import TokenBucket
from repro.sim.waterfill import WaterfillServer
from repro.workloads.oltp import OltpWorkloadBase

#: The directory the ``repro`` package was imported from.
SRC_DIR = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))

#: The layers, in table order.
LAYERS = (
    "workloads", "engine.executor", "engine.optimizer", "engine.runtime",
    "sim.events", "sim.process", "sim.resources", "sim.waterfill",
    "hardware", "backends", "fleet", "core.runner", "core.resultcache",
    "core.journal", "core.analysis",
)
WAIT = "wait"                   #: blocking waits in builtins
HARNESS = "harness"             #: the benchmark's own code and the root
UNATTRIBUTED = "unattributed"   #: a repro module missing from the map

#: Packages whose every module (and the package itself) is one layer.
PACKAGE_LAYER = {
    "repro.workloads": "workloads",
    "repro.engine.optimizer": "engine.optimizer",
    "repro.engine.plan": "engine.optimizer",
    "repro.hardware": "hardware",
    "repro.backends": "backends",
    "repro.fleet": "fleet",
    "repro.faults": "engine.runtime",
    "repro.surrogate": "core.analysis",
}

#: Modules of packages that hold several layers; consulted first.  A new
#: module in one of these packages, or a new top-level module, must be
#: added here (test_e2e checks that every imported module resolves).
MODULE_LAYER = {
    "repro": "core.analysis",
    "repro.__main__": "core.analysis",
    "repro.calibration": "core.analysis",
    "repro.cli": "core.analysis",
    "repro.errors": "core.analysis",
    "repro.units": "core.analysis",
    "repro.engine.executor": "engine.executor",
    "repro.engine.plancache": "engine.optimizer",
    **{f"repro.engine{suffix}": "engine.runtime" for suffix in (
        "", ".bufferpool", ".catalog", ".checkpoint", ".engine", ".locks",
        ".memory_grants", ".resource_governor", ".schemas", ".semaphore",
        ".sqlos", ".statistics", ".types", ".wal")},
    "repro.faults.chaos": "fleet",
    "repro.sim": "sim.events",
    "repro.sim.events": "sim.events",
    "repro.sim.tracing": "sim.events",
    "repro.sim.process": "sim.process",
    "repro.sim.resources": "sim.resources",
    "repro.sim.waterfill": "sim.waterfill",
    # Seeded input streams feed the workload generators.
    "repro.sim.randomness": "workloads",
    # Cdf percentiles are measurement statistics.
    "repro.sim.stats": "core.analysis",
    "repro.core.runner": "core.runner",
    "repro.core.dispatch": "core.runner",
    "repro.core.workerpool": "core.runner",
    "repro.core.resultcache": "core.resultcache",
    "repro.core.journal": "core.journal",
    **{f"repro.core{suffix}": "core.analysis" for suffix in (
        "", ".admission", ".analysis", ".colocation", ".experiment",
        ".figures", ".knobs", ".measurement", ".models", ".partitioning",
        ".regression", ".report", ".sensitivity", ".sweeps")},
}

#: Builtins whose time is blocking, not work.
_WAIT_MARKERS = ("'acquire' of '_thread.", "time.sleep", "select.",
                 "posix.waitpid")


def layer_of(module: str) -> Optional[str]:
    """The layer of a ``repro`` module, or None when the map misses it."""
    if module in MODULE_LAYER:
        return MODULE_LAYER[module]
    parts = module.split(".")
    for end in range(len(parts), 0, -1):
        layer = PACKAGE_LAYER.get(".".join(parts[:end]))
        if layer is not None:
            return layer
    return None


def unmapped_modules(modules: Iterable[str]) -> List[str]:
    """The ``repro`` modules among *modules* that no layer claims."""
    return sorted(m for m in modules
                  if (m == "repro" or m.startswith("repro."))
                  and layer_of(m) is None)


def _module_of(filename: str) -> Optional[str]:
    rel = os.path.relpath(filename, SRC_DIR)
    if rel.startswith("..") or not rel.endswith(".py"):
        return None
    parts = rel[:-3].split(os.sep)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def _key(function) -> Tuple[str, int, str]:
    """The pstats key of a Python function."""
    code = function.__code__
    return (code.co_filename, code.co_firstlineno, code.co_name)


def attribute(stats: Dict) -> Dict[str, float]:
    """Self seconds per layer from a ``pstats.Stats.stats`` table."""
    own: Dict[Tuple, Optional[str]] = {}

    def layer(func) -> Optional[str]:
        """The bucket a function's own time belongs to; None when it is
        charged to its callers."""
        if func not in own:
            filename, _, name = func
            if filename == "~":
                result = WAIT if any(m in name for m in _WAIT_MARKERS) else None
            elif filename.startswith(BENCH_DIR):
                result = HARNESS
            else:
                module = _module_of(filename)
                result = (None if module is None
                          else layer_of(module) or UNATTRIBUTED)
            own[func] = result
        return own[func]

    memo: Dict[Tuple, Dict[str, float]] = {}
    in_progress = set()

    def split_over_callers(func, weight_index: int) -> Dict[str, float]:
        """Fractions of *func*'s time per layer, following its callers.

        Each caller is weighted by the time *func* spent under it (its
        own time for the first hop, its cumulative time further up);
        a caller already on the resolution path is skipped, which
        breaks recursion cycles.  With no usable caller the time
        belongs to the harness (the profiled root).
        """
        weights = {c: v[weight_index] for c, v in stats[func][4].items()
                   if c in stats and c != func and c not in in_progress}
        total = sum(weights.values())
        if total <= 0:
            return {HARNESS: 1.0}
        split: Dict[str, float] = {}
        for caller, weight in weights.items():
            for name, fraction in owners(caller).items():
                split[name] = split.get(name, 0.0) + fraction * weight / total
        return split

    def owners(func) -> Dict[str, float]:
        bucket = layer(func)
        if bucket is not None:
            return {bucket: 1.0}
        if func not in memo:
            in_progress.add(func)
            memo[func] = split_over_callers(func, 3)
            in_progress.discard(func)
        return memo[func]

    seconds: Dict[str, float] = {}
    for func, (_, _, tottime, _, _) in stats.items():
        bucket = layer(func)
        split = ({bucket: 1.0} if bucket is not None
                 else split_over_callers(func, 2))
        for name, fraction in split.items():
            seconds[name] = seconds.get(name, 0.0) + tottime * fraction
    return seconds


class CallCounters:
    """Counting wrappers for generator entry points, installed on the
    classes for the traced pass and removed by :meth:`remove`.

    A wrapper returns the original generator, so behaviour is unchanged.
    """

    TARGETS = {
        "sim.waterfill.submits": (WaterfillServer, "submit"),
        "sim.resources.token_consumes": (TokenBucket, "consume"),
        # Every engine personality's transactions and queries go through
        # the executor, so it counts them once whatever the backend.
        "workloads.transactions": (Executor, "execute_transaction"),
        "engine.queries": (Executor, "execute_query"),
    }

    def __init__(self):
        self.counts = {name: 0 for name in self.TARGETS}
        self._saved = []
        for name, (owner, attr) in self.TARGETS.items():
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._counting(name, original))

    def _counting(self, name, original):
        def counted(*args, **kwargs):
            self.counts[name] += 1
            return original(*args, **kwargs)
        return counted

    def remove(self):
        for owner, attr, original in self._saved:
            setattr(owner, attr, original)
        self._saved = []


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(stats: Dict, counters: CallCounters, counts: Dict,
                  workerpool_delta: Dict[str, int]) -> Dict[str, float]:
    """The per-layer metrics of one traced pass (see BENCHMARK.json).

    *counts* carries the observables only the pass can see (fleet
    arrivals, result-cache statistics).  ``trace.overhead`` and
    ``sim.events.host_us_per_step`` need the untraced wall time and are
    added by the caller.
    """
    seconds = attribute(stats)
    total = sum(seconds.values())
    metrics: Dict[str, float] = {}
    for name in LAYERS + (WAIT, HARNESS):
        metrics[f"{name}.self_s"] = seconds.get(name, 0.0)
        metrics[f"{name}.share"] = _ratio(seconds.get(name, 0.0), total)

    def calls(function) -> int:
        entry = stats.get(_key(function))
        return entry[1] if entry else 0

    def micros(function) -> float:
        entry = stats.get(_key(function))
        return _ratio(entry[3], entry[1]) * 1e6 if entry else 0.0

    steps = calls(EventLoop.step)
    scheduled = calls(Event.__init__)
    cancelled = calls(EventLoop._note_cancelled)
    transactions = counters.counts["workloads.transactions"]
    # The engine puts a plan exactly when its get missed.
    plan_gets = calls(PlanCache.get)
    gets = counts.get("core.resultcache.hits", 0) + counts.get(
        "core.resultcache.misses", 0)
    arrivals = counts.get("fleet.arrivals", 0)
    metrics.update({
        "sim.events.steps": steps,
        "sim.events.scheduled": scheduled,
        "sim.events.cancelled": cancelled,
        "sim.events.cancel_ratio": _ratio(cancelled, scheduled),
        "sim.process.resumes": calls(Process._resume),
        "sim.waterfill.submits": counters.counts["sim.waterfill.submits"],
        "sim.resources.token_consumes":
            counters.counts["sim.resources.token_consumes"],
        "workloads.transactions": transactions,
        "workloads.build_demand_calls": calls(OltpWorkloadBase.build_demand),
        "workloads.steps_per_txn": _ratio(steps, transactions),
        "engine.queries": counters.counts["engine.queries"],
        "engine.optimizer.optimize_calls": calls(Optimizer.optimize),
        "engine.plancache.hit_ratio": _ratio(
            plan_gets - calls(PlanCache.put), plan_gets),
        "hardware.counter_samples": calls(SqlOs.counter_totals),
        "core.resultcache.gets": gets,
        "core.resultcache.puts": counts.get("core.resultcache.stores", 0),
        "core.resultcache.hit_ratio": _ratio(
            counts.get("core.resultcache.hits", 0), gets),
        "core.resultcache.get_us": micros(ResultCache.get_by_digest),
        "core.resultcache.put_us": micros(ResultCache.put),
        "core.resultcache.digest_us": micros(config_digest),
        "core.journal.records": calls(SweepJournal.record),
        "core.journal.record_us": micros(SweepJournal.record),
        "core.workerpool.created": workerpool_delta.get("created", 0),
        "core.workerpool.reused": workerpool_delta.get("reused", 0),
        "fleet.arrivals": arrivals,
        "fleet.placements": calls(FleetCluster._place),
        "fleet.watermark_checks_per_arrival": _ratio(
            calls(priority_watermark), arrivals),
    })
    return metrics
