"""The ``columnstore-dss`` personality: batch-mode analytics engine.

Models a warehouse-style engine (vectorized/batch execution over
compressed column segments):

* **Cheap scans.**  Batch mode drops per-row scan and join CPU by a
  factor the paper's Fig 5 row/column comparison motivates — the scan
  cost constants shrink ~4x, which also means the engine *demands* scan
  bandwidth: the same allocation pulls far more bytes per second.
* **Deep MAXDOP scaling.**  Exchange and parallel-startup costs shrink,
  so the optimizer keeps choosing high DOP where the rowstore's cost
  model would back off (§7's repartitioning overhead is the rowstore
  story, not the batch one).
* **Weak point access.**  There is no B-tree: a "seek" is rowgroup
  elimination plus a segment read, so probe costs and random-IO
  penalties roughly double, and OLTP transactions pay a large
  instruction multiplier (``txn_instruction_scale``) — delete-bitmap
  maintenance and tuple-mover overheads.
* **Patient grants.**  Big hash/sort grants are the norm; the
  personality's RESOURCE_SEMAPHORE default queues grants with a long
  timeout and a small-query bypass instead of degrading instantly.
"""

from __future__ import annotations

from dataclasses import replace
from typing import TYPE_CHECKING

from repro.backends.base import EngineBackend, register_backend
from repro.engine.optimizer.cost_model import CostModel
from repro.engine.resource_governor import ResourceGovernor
from repro.engine.sqlos import ExecutionCharacteristics
from repro.units import MB
from repro.workloads.base import Workload

if TYPE_CHECKING:  # pragma: no cover - hint-only (avoids a repro.core cycle)
    from repro.core.knobs import ResourceAllocation

#: RESOURCE_SEMAPHORE defaults applied when the allocation leaves
#: overload protection off: queue patiently, never starve point lookups.
DEFAULT_GRANT_TIMEOUT_S = 120.0
DEFAULT_SMALL_QUERY_BYPASS_BYTES = 8 * MB

#: OLTP instruction penalty: no row-oriented access path.
TXN_INSTRUCTION_SCALE = 6.0


@register_backend
class ColumnstoreDssBackend(EngineBackend):
    """Batch-mode DSS engine: scan-hungry, deeply parallel, poor OLTP."""

    name = "columnstore-dss"
    description = (
        "batch-mode analytics: ~4x cheaper scans and joins, deep MAXDOP "
        "scaling, weak point access, patient memory grants"
    )

    def cost_model(self) -> CostModel:
        return CostModel(
            # Batch-mode scans and joins: far fewer instructions per row.
            columnstore_scan_per_row=0.02,
            rowstore_scan_per_row=0.2,
            hash_build_per_row=0.45,
            hash_probe_per_row=0.15,
            hash_agg_per_input_row=0.2,
            # Deep MAXDOP: exchanges are batch-granular and startup is
            # amortized, so parallel plans stay attractive at high DOP.
            exchange_per_row=0.012,
            parallel_startup_per_worker=1000.0,
            # Point access without a B-tree: every probe is rowgroup
            # elimination plus a segment read.
            seek_base=6.0,
            columnstore_seek_multiplier=8.0,
            random_io_per_miss=220.0,
        )

    def execution_characteristics(
        self, workload: Workload
    ) -> ExecutionCharacteristics:
        base = workload.execution_characteristics()
        # Vectorized execution retires more per cycle but streams column
        # segments through the cache, raising memory-level parallelism
        # (and bandwidth demand) at the same calibrated MRC.
        return replace(
            base,
            cpi_base=base.cpi_base * 0.8,
            mlp=base.mlp * 1.5,
            txn_instruction_scale=TXN_INSTRUCTION_SCALE,
        )

    def governor_for(self, allocation: ResourceAllocation) -> ResourceGovernor:
        governor = super().governor_for(allocation)
        if governor.overload_protection_enabled:
            return governor  # the allocation chose its own policy
        return replace(
            governor,
            grant_timeout_s=DEFAULT_GRANT_TIMEOUT_S,
            small_query_bypass_bytes=DEFAULT_SMALL_QUERY_BYPASS_BYTES,
        )
