"""DMV-style statistics views over a running engine.

The paper's Table 3 comes from SQL Server's wait statistics (the
``sys.dm_os_wait_stats`` view); its §8 analysis reads memory-grant
information.  This module exposes the same surface on the simulated
engine so analyses can be written the way a practitioner would write
them — as queries over management views rather than pokes into model
internals.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.engine.engine import SqlEngine
from repro.engine.locks import WaitType
from repro.units import GIB


@dataclass(frozen=True)
class WaitStatRow:
    """One row of ``dm_os_wait_stats``."""

    wait_type: str
    waiting_tasks_count: int
    wait_time_ms: float

    @property
    def avg_wait_ms(self) -> float:
        if self.waiting_tasks_count == 0:
            return 0.0
        return self.wait_time_ms / self.waiting_tasks_count


def dm_os_wait_stats(engine: SqlEngine) -> List[WaitStatRow]:
    """Cumulative waits by type, like ``sys.dm_os_wait_stats``."""
    accounting = engine.locks.accounting
    return [
        WaitStatRow(
            wait_type=wait_type.value,
            waiting_tasks_count=accounting.wait_count[wait_type],
            wait_time_ms=accounting.wait_time[wait_type] * 1000.0,
        )
        for wait_type in WaitType
    ]


@dataclass(frozen=True)
class MemoryGrantRow:
    """One row of ``dm_exec_query_memory_grants``-style output."""

    query: str
    requested_kb: float
    granted_kb: float
    spilled: bool


def dm_exec_query_memory_grants(engine: SqlEngine, specs) -> List[MemoryGrantRow]:
    """Grant admission outcomes for a set of query specs under the
    engine's current governor settings."""
    rows = []
    for spec in specs:
        optimized = engine.optimize(spec)
        grant = engine.admit(optimized)
        rows.append(
            MemoryGrantRow(
                query=spec.name,
                requested_kb=grant.required_bytes / 1024.0,
                granted_kb=grant.granted_bytes / 1024.0,
                spilled=grant.spills,
            )
        )
    return rows


@dataclass(frozen=True)
class BufferPoolSummary:
    """A ``dm_os_buffer_descriptors`` aggregate."""

    capacity_gb: float
    database_gb: float
    resident_fraction: float
    reserved_for_grants_gb: float


def dm_os_buffer_summary(engine: SqlEngine) -> BufferPoolSummary:
    pool = engine.buffer_pool
    return BufferPoolSummary(
        capacity_gb=pool.capacity_bytes / GIB,
        database_gb=pool.database.total_bytes / GIB,
        resident_fraction=pool.resident_fraction(),
        reserved_for_grants_gb=pool.reserved_grant_bytes / GIB,
    )


@dataclass(frozen=True)
class ReplicaHealthRow:
    """One row of ``dm_fleet_replicas``: a replica's role, reachability,
    replication progress, and the failure detector's current view."""

    replica: int
    role: str                   #: "primary" | "secondary"
    up: bool
    fenced: bool
    partitioned: bool
    durable_lsn: int
    checkpoint_lsn: int
    recoveries: int
    suspicion: float            #: phi-accrual score (0.0 without a monitor)
    suspected: bool


def dm_fleet_replicas(group, monitor=None) -> List[ReplicaHealthRow]:
    """Fleet membership and health, one row per replica.

    Duck-typed over :class:`~repro.fleet.replicas.ReplicaGroup` plus an
    optional :class:`~repro.fleet.health.HeartbeatMonitor` — the DMV
    module stays importable without the fleet package loaded.
    """
    rows = []
    for replica in group.replicas:
        if monitor is not None:
            suspicion = monitor.suspicion(replica.index)
            suspected = monitor.suspected(replica.index)
        else:
            suspicion, suspected = 0.0, False
        rows.append(
            ReplicaHealthRow(
                replica=replica.index,
                role=replica.role,
                up=replica.up,
                fenced=replica.fenced,
                partitioned=replica.partitioned,
                durable_lsn=replica.durable_lsn,
                checkpoint_lsn=replica.checkpoint_lsn,
                recoveries=replica.recoveries,
                suspicion=suspicion,
                suspected=suspected,
            )
        )
    return rows


@dataclass(frozen=True)
class HedgeOutcomeRow:
    """One row of ``dm_hedge_outcomes``: the hedged-read policy's
    counters plus the budget's remaining headroom."""

    reads: int
    hedges: int
    hedge_wins: int
    budget_denied: int
    sheds: int
    stalls: int
    budget_tokens: float        #: default tenant's remaining hedge tokens


def dm_hedge_outcomes(reader) -> HedgeOutcomeRow:
    """Hedging effectiveness for a
    :class:`~repro.fleet.hedging.HedgedReader` (duck-typed)."""
    return HedgeOutcomeRow(
        reads=reader.reads,
        hedges=reader.hedges,
        hedge_wins=reader.hedge_wins,
        budget_denied=reader.budget_denied,
        sheds=reader.sheds,
        stalls=reader.stalls,
        budget_tokens=reader.budget.tokens(),
    )


@dataclass(frozen=True)
class PerfCounterRow:
    """One row of a PCM-style snapshot."""

    counter: str
    value: float


def pcm_snapshot(engine: SqlEngine) -> List[PerfCounterRow]:
    """Instantaneous cumulative counters, PCM-style."""
    return [
        PerfCounterRow(counter=name, value=value)
        for name, value in sorted(engine.counter_totals().items())
    ]
