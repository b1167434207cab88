"""The :class:`SqlEngine` facade: one configured database engine instance.

Construction wires the whole engine stack to a machine: buffer pool, WAL,
lock manager, query memory pool, optimizer, SQLOS runtime, and executor.
An engine instance is built per experiment run (like restarting the server
between the paper's experiments) so that runtime state — CAT allocation,
cpuset shape, counters — is frozen consistently.
"""

from __future__ import annotations

from typing import Generator, Optional

from repro.engine.bufferpool import BufferPool
from repro.engine.catalog import Database
from repro.engine.checkpoint import CheckpointWriter
from repro.engine.executor import Executor, TransactionDemand
from repro.engine.locks import LockManager
from repro.engine.memory_grants import MemoryGrant, QueryMemoryPool
from repro.engine.optimizer.cost_model import CostModel
from repro.engine.optimizer.optimizer import OptimizedQuery, Optimizer, PlanningContext
from repro.engine.optimizer.queryspec import QuerySpec
from repro.engine.plancache import DEFAULT_PLAN_CACHE_SIZE, PlanCache
from repro.engine.resource_governor import ResourceGovernor
from repro.engine.semaphore import ResourceSemaphore
from repro.engine.sqlos import ExecutionCharacteristics, SqlOs
from repro.engine.wal import WriteAheadLog
from repro.hardware.machine import Machine


class SqlEngine:
    """A database engine bound to a machine and one database."""

    def __init__(
        self,
        machine: Machine,
        database: Database,
        execution: ExecutionCharacteristics,
        governor: ResourceGovernor = ResourceGovernor(),
        hot_lock_rows: int = 1024,
        hot_latch_pages: int = 256,
        reserved_grant_bytes: float = 0.0,
        concurrent_grant_slots: int = 0,
        share_cpu_pool: bool = False,
        cost_model: Optional[CostModel] = None,
        search_strategy: str = "greedy",
        plan_cache_size: int = DEFAULT_PLAN_CACHE_SIZE,
        backend_name: str = "rowstore-oltp",
    ):
        self.machine = machine
        self.database = database
        self.governor = governor
        self.backend_name = backend_name
        self.memory_pool = QueryMemoryPool(
            server_memory_bytes=machine.dram.capacity_bytes,
            grant_percent=governor.grant_percent,
        )
        # RESOURCE_SEMAPHORE: grant queueing + graceful degradation under
        # saturation.  Disabled (exact pass-through) unless the governor
        # carries an overload knob.
        self.semaphore = ResourceSemaphore(
            sim=machine.sim, pool=self.memory_pool, governor=governor
        )
        # Memory promised to concurrently-running queries is unavailable
        # to the buffer pool — this couples §8's grant knob to IO volume.
        reserved = reserved_grant_bytes + (
            concurrent_grant_slots * self.memory_pool.per_query_cap_bytes
        )
        self.buffer_pool = BufferPool(
            database=database,
            server_memory_bytes=machine.dram.capacity_bytes,
            reserved_grant_bytes=reserved,
        )
        self.wal = WriteAheadLog(machine.sim, machine.ssd)
        self.checkpoint = CheckpointWriter(machine.sim, machine.ssd, wal=self.wal)
        self.locks = LockManager(
            machine.sim, hot_rows=hot_lock_rows, hot_pages=hot_latch_pages
        )
        self.sqlos = SqlOs(machine, execution, shared_cpu_pool=share_cpu_pool)
        self.executor = Executor(
            sim=machine.sim,
            machine=machine,
            sqlos=self.sqlos,
            buffer_pool=self.buffer_pool,
            lock_manager=self.locks,
            wal=self.wal,
            checkpoint=self.checkpoint,
        )
        self._planning = PlanningContext(
            database=database,
            buffer_pool=self.buffer_pool,
            cost_model=cost_model or CostModel(),
            max_dop=governor.max_dop,
            search_strategy=search_strategy,
        )
        self.optimizer = Optimizer(self._planning)
        self.plan_cache = PlanCache(maxsize=plan_cache_size)

    # -- planning and admission ----------------------------------------------------

    def optimize(self, spec: QuerySpec, dop_hint: int = 0) -> OptimizedQuery:
        """Optimize under the governor's DOP cap and the current cpuset.

        Results are memoized in an LRU plan cache.  Within one engine the
        plan is fully determined by the spec (which encodes query name
        and scale factor) and the effective DOP; everything else that
        could change it — the database, buffer-pool residency, the
        governor's MAXDOP and grant percentage — is frozen at engine
        construction, so a hit is exact.  Plans are immutable
        (:class:`OptimizedQuery` and every ``PlanNode`` are frozen
        dataclasses), making the shared object safe to execute repeatedly.
        """
        dop = self.governor.effective_dop(len(self.machine.cpuset), hint=dop_hint)
        key = (spec, dop)
        cached = self.plan_cache.get(key)
        if cached is not None:
            return cached
        optimized = self.optimizer.optimize(spec, max_dop=dop)
        self.plan_cache.put(key, optimized)
        return optimized

    def admit(self, optimized: OptimizedQuery) -> MemoryGrant:
        return self.memory_pool.admit(optimized.required_memory_bytes)

    # -- execution ------------------------------------------------------------------

    def run_query(self, spec: QuerySpec, dop_hint: int = 0) -> Generator:
        """Generator: optimize, admit through the semaphore, and execute.

        Admission may suspend (RESOURCE_SEMAPHORE queueing), time out
        into a degraded grant that spills, or raise
        :class:`~repro.errors.GrantTimeoutError`, depending on the
        governor's overload policy; with protection off it is the
        historical instant admission.  Returns an
        :class:`~repro.engine.executor.ExecutionResult`.
        """
        optimized = self.optimize(spec, dop_hint=dop_hint)
        ticket = yield from self.semaphore.acquire(
            optimized.required_memory_bytes, name=spec.name
        )
        try:
            demand = self.executor.demand_for_query(optimized, ticket.grant)
            result = yield from self.executor.execute_query(demand)
        finally:
            self.semaphore.release(ticket)
        result.grant_wait = ticket.waited
        return result

    def run_transaction(self, demand: TransactionDemand) -> Generator:
        """Generator: execute one OLTP transaction.  Returns its result.

        Hands back the executor's generator itself: a pass-through
        wrapper would cost a frame switch on every resume.
        """
        return self.executor.execute_transaction(demand)

    # -- counters -------------------------------------------------------------------

    def counter_totals(self):
        return self.sqlos.counter_totals()
