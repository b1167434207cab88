"""Shared machinery for transactional workloads (TPC-E, ASDB, HTAP-OLTP).

A transactional workload is a weighted mix of :class:`TransactionType`
templates.  Each client is a closed-loop process: draw a type, build a
:class:`~repro.engine.executor.TransactionDemand` against the current
engine state (buffer-pool residency decides PAGEIOLATCH-producing page
reads), execute, record, repeat.

Contention model: a transaction touches the workload's hot rows / hot
pages with per-type probabilities; slots are drawn with a skew toward low
indexes (hot keys).  Slot-array sizes scale with the database scale
factor, which is exactly the Table 3 mechanism: bigger databases spread
conflicts thinner.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, List, Optional, Tuple

import numpy as np

from repro.engine.catalog import Table
from repro.engine.engine import SqlEngine
from repro.engine.executor import ContentionPoint, TransactionDemand
from repro.engine.locks import WaitType
from repro.errors import WorkloadError
from repro.sim.randomness import draw_index, weight_cdf
from repro.workloads.base import ThroughputTracker, Workload


@dataclass(frozen=True)
class TransactionType:
    """A template for one class of OLTP transaction."""

    name: str
    weight: float
    instructions: float
    page_accesses: float        # point lookups against the main table
    log_bytes: float
    main_table: str
    lock_probability: float = 0.0
    lock_hold_ms: float = 0.0
    pagelatch_probability: float = 0.0
    pagelatch_hold_ms: float = 0.0
    latch_probability: float = 0.05
    latch_hold_ms: float = 0.05
    dirty_page_writes: float = 0.0

    def __post_init__(self):
        if self.weight <= 0 or self.instructions <= 0:
            raise WorkloadError(f"{self.name}: bad transaction shape")


def _skewed_slot(rng: np.random.Generator, num_slots: int, skew: float = 3.0) -> int:
    """Pick a slot with probability density concentrated at low indexes."""
    return min(num_slots - 1, int(num_slots * (1.0 - rng.power(skew))))


class OltpWorkloadBase(Workload):
    """Common closed-loop client machinery for transactional mixes."""

    primary_kind = "txn"

    def __init__(self, scale_factor: int, clients: int):
        super().__init__(scale_factor)
        if clients < 1:
            raise WorkloadError("need at least one client")
        self.clients = clients

    # subclasses provide the mix ------------------------------------------------

    def transaction_types(self) -> Tuple[TransactionType, ...]:
        raise NotImplementedError

    def hot_lock_rows(self) -> int:
        """Hot row-lock slots; scales with SF (contention dilution —
        the Table 3 mechanism: 3x the customers spread trade/last_trade
        conflicts over 3x the rows)."""
        return max(4, self.scale_factor // 1000)

    def hot_latch_pages(self) -> int:
        """Hot page-latch slots (insert points); grows sublinearly with
        scale — page hot spots depend on tables/partitions more than
        rows."""
        return max(4, int(0.6 * self.scale_factor ** 0.5))

    def engine_parameters(self) -> dict:
        return {
            "hot_lock_rows": self.hot_lock_rows(),
            "hot_latch_pages": self.hot_latch_pages(),
        }

    # client processes -------------------------------------------------------------

    def spawn_clients(
        self, engine: SqlEngine, tracker: ThroughputTracker, until: float
    ) -> List:
        sim = engine.machine.sim
        # One batched start-up: ASDB spawns 128 clients per experiment.
        # RNG streams are still drawn per client, in client order.
        return sim.spawn_many(
            [
                self._client(
                    engine, tracker, until,
                    engine.machine.streams.get(f"{self.name}.client{client_id}"),
                )
                for client_id in range(self.clients)
            ],
            name=f"{self.name}-client",
        )

    def _client(self, engine, tracker, until, rng) -> Generator:
        sim = engine.machine.sim
        types = self.transaction_types()
        cdf = weight_cdf([t.weight for t in types])
        while sim.now < until:
            txn_type = types[draw_index(rng, cdf)]
            demand = self.build_demand(engine, txn_type, rng)
            result = yield from engine.run_transaction(demand)
            tracker.record("txn", result.elapsed)
            tracker.record(txn_type.name, result.elapsed)
        return None

    # demand construction ------------------------------------------------------------

    def build_demand(
        self, engine: SqlEngine, txn_type: TransactionType, rng: np.random.Generator
    ) -> TransactionDemand:
        table = self._main_table(engine, txn_type)
        miss = 1.0 - engine.buffer_pool.point_hit_probability(table)
        # Draw the actual number of cold reads; most transactions see none
        # when the database is resident.
        expected_cold = txn_type.page_accesses * miss
        page_reads = float(rng.poisson(expected_cold)) if expected_cold > 0 else 0.0

        locks: List[ContentionPoint] = []
        latches: List[ContentionPoint] = []
        if txn_type.lock_probability > 0 and rng.random() < txn_type.lock_probability:
            locks.append(
                ContentionPoint(
                    wait_type=WaitType.LOCK,
                    slot=_skewed_slot(rng, engine.locks.row_locks.num_slots),
                    hold_seconds=txn_type.lock_hold_ms / 1000.0,
                )
            )
        if (
            txn_type.pagelatch_probability > 0
            and rng.random() < txn_type.pagelatch_probability
        ):
            latches.append(
                ContentionPoint(
                    wait_type=WaitType.PAGELATCH,
                    slot=_skewed_slot(rng, engine.locks.page_latches.num_slots),
                    hold_seconds=txn_type.pagelatch_hold_ms / 1000.0,
                )
            )
        if txn_type.latch_probability > 0 and rng.random() < txn_type.latch_probability:
            latches.append(
                ContentionPoint(
                    wait_type=WaitType.LATCH,
                    slot=int(rng.integers(0, engine.locks.latches.num_slots)),
                    hold_seconds=txn_type.latch_hold_ms / 1000.0,
                )
            )

        # Instruction budget varies transaction to transaction.
        instructions = txn_type.instructions * float(rng.lognormal(0.0, 0.25))
        return TransactionDemand(
            name=txn_type.name,
            instructions=instructions,
            page_reads=page_reads,
            log_bytes=txn_type.log_bytes,
            latches=tuple(latches),
            locks=tuple(locks),
            dirty_page_writes=txn_type.dirty_page_writes,
        )

    def _main_table(self, engine: SqlEngine, txn_type: TransactionType) -> Table:
        return engine.database.table(txn_type.main_table)
