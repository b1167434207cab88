"""A routed multi-backend engine behind the single-engine facade.

:class:`RoutedEngine` runs several backend personalities side by side on
one machine — each on a disjoint cpuset, private CAT partition, and DRAM
share (the :func:`~repro.core.colocation.tenant_machine` partitioning;
the NVMe device stays shared, as §10's co-location discussion requires)
— and routes every query through a
:class:`~repro.backends.router.Router`.  It exposes exactly the engine
surface the workload clients and the experiment harness touch
(``machine``, ``run_query``, ``run_transaction``, ``buffer_pool``,
``locks``, ``database``, ``optimize``, ``semaphore``, ``sqlos``,
``counter_totals``), so closed-loop clients drive a heterogeneous fleet
without knowing it.

Transactions are not routed per-call: they are pinned to the backend
with the best point-lookup score (the rowstore, unless it is not
configured), matching how consolidation layers keep OLTP on the
row-oriented engine and float analytics.
"""

from __future__ import annotations

from dataclasses import replace
from typing import TYPE_CHECKING, Dict, Generator, List, Sequence, Tuple

from repro.backends.base import EngineBackend, make_backend
from repro.backends.router import Router
from repro.engine.engine import SqlEngine
from repro.engine.executor import TransactionDemand
from repro.engine.optimizer.optimizer import OptimizedQuery
from repro.engine.optimizer.queryspec import QuerySpec
from repro.errors import ConfigurationError
from repro.hardware.counters import SSD_READ_BYTES, SSD_WRITE_BYTES
from repro.hardware.machine import Machine
from repro.workloads.base import Workload

if TYPE_CHECKING:  # pragma: no cover - hint-only (avoids a repro.core cycle)
    from repro.core.knobs import ResourceAllocation


def partition_allocation(
    allocation: "ResourceAllocation", count: int
) -> List["ResourceAllocation"]:
    """Split one allocation into *count* near-equal sub-allocations.

    Cores and LLC (2 MB CAT granularity) are divided with the remainder
    going to the earlier backends; every slice needs at least one core
    and one CAT way-pair, so a routed run requires
    ``logical_cores >= count`` and ``llc_mb >= 2 * count``.
    """
    if allocation.logical_cores < count:
        raise ConfigurationError(
            f"routed run needs at least {count} cores "
            f"(one per backend); allocation has {allocation.logical_cores}"
        )
    if allocation.llc_mb < 2 * count:
        raise ConfigurationError(
            f"routed run needs at least {2 * count} MB LLC "
            f"(2 MB CAT granularity per backend); allocation has "
            f"{allocation.llc_mb} MB"
        )
    cores = [allocation.logical_cores // count] * count
    for i in range(allocation.logical_cores % count):
        cores[i] += 1
    pairs = allocation.llc_mb // 2
    llc = [(pairs // count) * 2] * count
    for i in range(pairs % count):
        llc[i] += 2
    return [
        replace(allocation, logical_cores=cores[i], llc_mb=llc[i])
        for i in range(count)
    ]


class _MergedSemaphore:
    """Summed RESOURCE_SEMAPHORE counters across the fleet's engines."""

    def __init__(self, engines: Dict[str, SqlEngine]):
        self._engines = engines

    def summary(self) -> Dict[str, float]:
        totals: Dict[str, float] = {}
        for engine in self._engines.values():
            for key, value in engine.semaphore.summary().items():
                if key == "grant_queue_peak":
                    totals[key] = max(totals.get(key, 0.0), value)
                else:
                    totals[key] = totals.get(key, 0.0) + value
        return totals


class _MergedSqlos:
    """Fleet-level MPKI and SMT multiplier, instruction-weighted."""

    def __init__(self, engines: Dict[str, SqlEngine]):
        self._engines = engines

    def _weighted(self, attribute: str) -> float:
        total_instructions = 0.0
        accumulated = 0.0
        fallback = 0.0
        for engine in self._engines.values():
            value = getattr(engine.sqlos, attribute)
            fallback = value
            instructions = engine.sqlos.instructions_retired()
            total_instructions += instructions
            accumulated += value * instructions
        if total_instructions <= 0:
            return fallback
        return accumulated / total_instructions

    @property
    def mpki(self) -> float:
        return self._weighted("mpki")

    @property
    def smt_multiplier(self) -> float:
        return self._weighted("smt_multiplier")


class _MergedLockAccounting:
    """Summed wait-time breakdown across the fleet's lock managers."""

    def __init__(self, engines: Dict[str, SqlEngine]):
        self._engines = engines

    @property
    def wait_time(self) -> Dict:
        totals: Dict = {}
        for engine in self._engines.values():
            for wait_type, seconds in engine.locks.accounting.wait_time.items():
                totals[wait_type] = totals.get(wait_type, 0.0) + seconds
        return totals


class _MergedLocks:
    """Fleet lock view: accounting merges across engines, while the lock
    *tables* (row locks, page latches, latches) are the transaction
    backend's — transactions all execute there, so that is where
    contention structure lives."""

    def __init__(self, engines: Dict[str, SqlEngine], txn_engine: SqlEngine):
        self.accounting = _MergedLockAccounting(engines)
        self._txn_locks = txn_engine.locks

    @property
    def row_locks(self):
        return self._txn_locks.row_locks

    @property
    def page_latches(self):
        return self._txn_locks.page_latches

    @property
    def latches(self):
        return self._txn_locks.latches


class RoutedEngine:
    """Several backend engines on one machine, behind a router.

    Built by :func:`build_routed_engine`; ``machine`` is the *base*
    machine (whose simulator drives every partition), while each backend
    engine lives on its own partitioned view of it.
    """

    def __init__(
        self,
        machine: Machine,
        backends: Sequence[EngineBackend],
        engines: Dict[str, SqlEngine],
        router: Router,
    ):
        self.machine = machine
        self.backends = {backend.name: backend for backend in backends}
        self.engines = engines
        self.router = router
        # Transactions pin to the best point-access personality.
        self._txn_backend = max(
            self.router.order,
            key=lambda name: self.backends[name]
            .resource_profile()
            .point_lookup_score,
        )
        self.semaphore = _MergedSemaphore(engines)
        self.sqlos = _MergedSqlos(engines)
        self.locks = _MergedLocks(engines, self.engines[self._txn_backend])

    # -- single-engine facade (the surface workload clients touch) ----------

    @property
    def transaction_engine(self) -> SqlEngine:
        return self.engines[self._txn_backend]

    @property
    def buffer_pool(self):
        return self.transaction_engine.buffer_pool

    @property
    def database(self):
        return self.transaction_engine.database

    @property
    def executor(self):
        return self.transaction_engine.executor

    def run_query(self, spec: QuerySpec, dop_hint: int = 0) -> Generator:
        """Generator: route, then execute on the chosen backend."""
        name, engine = self.router.engine_for(spec)
        self.router.note_start(name)
        try:
            result = yield from engine.run_query(spec, dop_hint=dop_hint)
        finally:
            self.router.note_done(name)
        return result

    def run_transaction(self, demand: TransactionDemand) -> Generator:
        return self.transaction_engine.run_transaction(demand)

    def optimize(self, spec: QuerySpec, dop_hint: int = 0) -> OptimizedQuery:
        """Plan on the backend the router would pick, without recording a
        decision (plan-signature collection must not skew the counters)."""
        name = self.router.peek(spec)
        return self.engines[name].optimize(spec, dop_hint=dop_hint)

    # -- health ------------------------------------------------------------------

    def suspend_backend(self, name: str) -> None:
        """Route queries around *name* (fleet health signal) until
        restored; transactions stay pinned — their backend holds the
        lock tables, so moving them mid-run would corrupt contention
        state rather than improve availability."""
        self.router.suspend_backend(name)

    def restore_backend(self, name: str) -> None:
        self.router.restore_backend(name)

    # -- counters ------------------------------------------------------------

    def counter_totals(self) -> Dict[str, float]:
        """Fleet totals: CPU-side counters sum across partitions; the SSD
        is one shared device, so its counters are taken once."""
        totals: Dict[str, float] = {}
        for engine in self.engines.values():
            for key, value in engine.counter_totals().items():
                if key in (SSD_READ_BYTES, SSD_WRITE_BYTES):
                    totals[key] = value
                else:
                    totals[key] = totals.get(key, 0.0) + value
        return totals


def build_routed_engine(
    machine: Machine,
    workload: Workload,
    allocation: "ResourceAllocation",
    backend_names: Sequence[str],
    policy: str,
) -> RoutedEngine:
    """Partition *machine* across *backend_names* and wire the router.

    The machine must already have the allocation applied (cpuset, CAT,
    blkio) — each backend then gets a disjoint slice of the *allocated*
    resources, in the §4 core-allocation order, with equal DRAM shares.
    The SSD and its blkio limits stay shared.
    """
    from repro.core.colocation import tenant_machine

    names = list(backend_names)
    if len(set(names)) != len(names):
        raise ConfigurationError(f"duplicate backends in router spec: {names}")
    backends = [make_backend(name) for name in names]
    subs = partition_allocation(allocation, len(backends))

    order = sorted(
        machine.topology.paper_allocation(allocation.logical_cores),
        key=lambda cpu_id: (machine.topology.cpu(cpu_id).smt_index,
                            machine.topology.cpu(cpu_id).physical_core),
    )
    engines: Dict[str, SqlEngine] = {}
    cursor = 0
    fraction = 1.0 / len(backends)
    for backend, sub in zip(backends, subs):
        cpu_ids = frozenset(order[cursor:cursor + sub.logical_cores])
        cursor += sub.logical_cores
        view = tenant_machine(machine, cpu_ids, sub.llc_mb, fraction)
        engines[backend.name] = backend.build_engine(view, workload, sub)
    router = Router(
        engines=engines,
        profiles={b.name: b.resource_profile() for b in backends},
        policy=policy,
    )
    return RoutedEngine(
        machine=machine, backends=backends, engines=engines, router=router
    )
