"""Operator cost model.

Costs are in *cost units*; one unit corresponds to
:data:`repro.calibration.INSTRUCTIONS_PER_COST_UNIT` retired instructions
(1000 by default), so a cost of 1e6 is roughly a billion instructions —
about half a second of single-core work on the testbed CPU.

IO enters the cost model the way commercial optimizers treat it: scans
charge sequential IO per byte *not expected to be resident*, and index
nested-loops charge a random-IO penalty per probe that misses the buffer
pool.  The parallel cost model divides operator work by the degree of
parallelism but adds exchange costs: a per-worker startup charge and, for
hash joins, a broadcast of the build side to every worker (which scales
*with* DOP — the mechanism that makes the optimizer flip Q20's part join
from hash (serial) to nested loops (MAXDOP=32), Fig 7).
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class CostModel:
    """All per-row / per-byte cost constants in one place."""

    # Scans.
    columnstore_scan_per_row: float = 0.08
    rowstore_scan_per_row: float = 0.6
    filter_per_row: float = 0.02
    # Index seeks (B-tree or columnstore rowgroup elimination).
    seek_base: float = 3.0
    seek_per_level: float = 0.15
    output_per_row: float = 0.1
    # Hash join.
    hash_build_per_row: float = 0.9
    hash_probe_per_row: float = 0.45
    hash_row_bytes: float = 96.0
    # Merge join (both inputs must already be sorted; rarely wins here).
    merge_per_row: float = 0.30
    # Aggregation.
    hash_agg_per_input_row: float = 0.5
    hash_agg_per_group: float = 1.0
    agg_row_bytes: float = 64.0
    stream_agg_per_row: float = 0.25
    # Semi/anti hash joins keep only join keys (bitmap-style), not rows.
    semi_key_bytes: float = 24.0
    # Sort.
    sort_per_row_log: float = 0.03
    sort_row_bytes: float = 100.0
    top_per_row: float = 0.01
    #: A "seek" into a columnstore cannot use a B-tree; rowgroup
    #: elimination still reads whole segments, so per-probe cost is much
    #: higher than a B-tree seek.  Calibrated so that the optimizer keeps
    #: hash joins for large probes but flips Q20's part join to parallel
    #: nested loops at MAXDOP=32 (Fig 7).
    columnstore_seek_multiplier: float = 4.0
    # Parallelism.
    exchange_per_row: float = 0.03
    broadcast_per_row_per_dop: float = 0.15
    parallel_startup_per_worker: float = 2500.0
    # IO, in cost units of *time*: 1 MiB at the device's 2500 MB/s takes
    # ~0.42 ms, which at 2.3 GHz is ~966k instructions ~ 900 cost units.
    # A random 8 KiB read costs ~latency (~50 us ~ 110 units).
    sequential_io_per_mib: float = 900.0
    random_io_per_miss: float = 110.0

    # -- scans ------------------------------------------------------------------

    def scan_cpu(self, rows: float, columnstore: bool, column_fraction: float) -> float:
        per_row = (
            self.columnstore_scan_per_row * column_fraction
            if columnstore
            else self.rowstore_scan_per_row
        )
        return rows * per_row

    def scan_io(self, cold_bytes: float) -> float:
        return (cold_bytes / 2**20) * self.sequential_io_per_mib

    # -- joins ------------------------------------------------------------------

    def hash_join_cpu(self, build_rows: float, probe_rows: float) -> float:
        return build_rows * self.hash_build_per_row + probe_rows * self.hash_probe_per_row

    def broadcast_cost(self, build_rows: float, dop: int) -> float:
        return build_rows * self.broadcast_per_row_per_dop * max(0, dop - 1)

    def seek_cost(self, inner_rows_unfiltered: float, columnstore: bool = False) -> float:
        levels = math.log2(max(2.0, inner_rows_unfiltered))
        cost = self.seek_base + self.seek_per_level * levels
        if columnstore:
            cost *= self.columnstore_seek_multiplier
        return cost

    def nl_join_cpu(self, outer_rows: float, inner_rows_unfiltered: float,
                    output_rows: float, columnstore: bool = False) -> float:
        return outer_rows * self.seek_cost(inner_rows_unfiltered, columnstore) + (
            output_rows * self.output_per_row
        )

    def nl_join_io(self, outer_rows: float, miss_probability: float) -> float:
        return outer_rows * miss_probability * self.random_io_per_miss

    # -- aggregation / sort ------------------------------------------------------

    def hash_agg_cpu(self, input_rows: float, groups: float) -> float:
        return (
            input_rows * self.hash_agg_per_input_row
            + groups * self.hash_agg_per_group
        )

    def hash_agg_memory(self, groups: float) -> float:
        return groups * self.agg_row_bytes

    def sort_cpu(self, rows: float) -> float:
        if rows <= 1:
            return 0.0
        return rows * math.log2(rows) * self.sort_per_row_log

    def sort_memory(self, rows: float) -> float:
        return rows * self.sort_row_bytes

    # -- parallelism ----------------------------------------------------------------

    def exchange_cpu(self, rows: float) -> float:
        return rows * self.exchange_per_row

    def startup_cost(self, dop: int) -> float:
        return self.parallel_startup_per_worker * max(0, dop - 1)
