"""Physical plan operators.

A plan is a tree of :class:`PlanNode`.  Every node carries the estimates
the executor needs: output cardinality, CPU cost (in optimizer cost units,
see :data:`repro.calibration.INSTRUCTIONS_PER_COST_UNIT`), the bytes of
base data it scans (for buffer-pool/SSD accounting), the memory it needs
(hash tables, sort runs — the §8 grant), and whether it runs in parallel
(rendered as the "double arrow" the paper describes in Fig 7).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from typing import Iterator, Optional, Tuple

from repro.errors import PlanningError


class OpKind(enum.Enum):
    COLUMNSTORE_SCAN = "Columnstore Index Scan"
    TABLE_SCAN = "Table Scan"
    INDEX_SEEK = "Index Seek"
    FILTER = "Filter"
    HASH_JOIN = "Hash Match (Join)"
    NESTED_LOOPS = "Nested Loops"
    MERGE_JOIN = "Merge Join"
    HASH_AGGREGATE = "Hash Match (Aggregate)"
    STREAM_AGGREGATE = "Stream Aggregate"
    SORT = "Sort"
    TOP = "Top"
    EXCHANGE_GATHER = "Parallelism (Gather Streams)"
    EXCHANGE_REPARTITION = "Parallelism (Repartition Streams)"
    SPOOL = "Table Spool"


class JoinAlgorithm(enum.Enum):
    HASH = "hash"
    NESTED_LOOPS = "nested_loops"
    MERGE = "merge"

    @property
    def op_kind(self) -> OpKind:
        return {
            JoinAlgorithm.HASH: OpKind.HASH_JOIN,
            JoinAlgorithm.NESTED_LOOPS: OpKind.NESTED_LOOPS,
            JoinAlgorithm.MERGE: OpKind.MERGE_JOIN,
        }[self]


@dataclass(frozen=True)
class PlanNode:
    """One physical operator in a plan tree."""

    op: OpKind
    children: Tuple["PlanNode", ...] = ()
    table: Optional[str] = None
    rows_out: float = 0.0
    cpu_cost: float = 0.0
    scan_bytes: float = 0.0
    memory_bytes: float = 0.0
    parallel: bool = False
    detail: str = ""

    def __post_init__(self):
        if self.rows_out < 0 or self.cpu_cost < 0 or self.scan_bytes < 0:
            raise PlanningError(f"negative estimate on {self.op}")
        if self.memory_bytes < 0:
            raise PlanningError(f"negative memory on {self.op}")

    # -- tree traversal --------------------------------------------------------

    def walk(self) -> Iterator["PlanNode"]:
        """Pre-order traversal of the subtree rooted here."""
        yield self
        for child in self.children:
            yield from child.walk()

    def total_cpu_cost(self) -> float:
        return sum(node.cpu_cost for node in self.walk())

    def total_scan_bytes(self) -> float:
        return sum(node.scan_bytes for node in self.walk())

    def total_memory_bytes(self) -> float:
        """Peak memory grant estimate: sum of memory-consuming operators.

        SQL Server sizes the grant for concurrently-active memory
        consumers; summing is the conservative model the grant follows.
        """
        return sum(node.memory_bytes for node in self.walk())

    def operator_count(self) -> int:
        return sum(1 for _ in self.walk())

    def join_count(self) -> int:
        join_kinds = (OpKind.HASH_JOIN, OpKind.NESTED_LOOPS, OpKind.MERGE_JOIN)
        return sum(1 for node in self.walk() if node.op in join_kinds)

    def uses(self, op: OpKind) -> bool:
        return any(node.op is op for node in self.walk())

    def tables_touched(self) -> Tuple[str, ...]:
        return tuple(
            node.table for node in self.walk() if node.table is not None
        )

    def is_parallel_plan(self) -> bool:
        return any(node.parallel for node in self.walk())

    def signature(self) -> str:
        """A compact structural fingerprint, used to detect optimizer
        adaptation across resource settings (pitfall #6)."""
        parts = []
        for node in self.walk():
            tag = node.op.name
            if node.table:
                tag += f":{node.table}"
            if node.parallel:
                tag += "*"
            parts.append(tag)
        return "|".join(parts)

    def with_parallelism(self, parallel: bool) -> "PlanNode":
        """A copy of the subtree with the parallel flag forced."""
        return replace(
            self,
            parallel=parallel,
            children=tuple(c.with_parallelism(parallel) for c in self.children),
        )
