"""Declarative query specifications.

A :class:`QuerySpec` describes a query the way the optimizer sees it:
which tables it touches (with filter selectivities), how they join (a join
graph with per-edge key sides and fanouts), and what post-join work
remains (aggregation groups, sort, top).  The 22 TPC-H templates in
:mod:`repro.workloads.tpch` are expressed in this form.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.errors import PlanningError


class JoinKind(enum.Enum):
    INNER = "inner"
    SEMI = "semi"       # IN / EXISTS subqueries
    ANTI = "anti"       # NOT IN / NOT EXISTS
    OUTER = "outer"     # left outer join (Q13)


@dataclass(frozen=True)
class TableRef:
    """A table occurrence in a query.

    Attributes:
        table: catalog table name.
        alias: unique name within the query (a table may appear twice,
            e.g. nation in Q7, lineitem in Q21).
        selectivity: fraction of rows surviving the local predicate.
        column_fraction: fraction of the row width actually read —
            columnstore scans only fetch referenced columns (§2.2.1).
    """

    table: str
    alias: str
    selectivity: float = 1.0
    column_fraction: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.selectivity <= 1.0:
            raise PlanningError(f"{self.alias}: selectivity must be in (0, 1]")
        if not 0.0 < self.column_fraction <= 1.0:
            raise PlanningError(f"{self.alias}: column fraction must be in (0, 1]")


@dataclass(frozen=True)
class JoinEdge:
    """A join between two table occurrences.

    ``key_side`` names the side whose join key is (close to) a primary
    key; the classic FK-join cardinality rule then gives
    ``|A join B| = |A| * |B| * fanout / unfiltered_rows(key_side)``.
    """

    left: str
    right: str
    key_side: str
    kind: JoinKind = JoinKind.INNER
    fanout: float = 1.0
    #: For semi/anti joins: which side survives the join.  Defaults to the
    #: non-key side (the usual ``fact IN (SELECT pk FROM dim)`` shape);
    #: Q20's ``supplier IN (SELECT ps_suppkey ...)`` preserves the key side.
    preserved: Optional[str] = None
    #: Semi/anti hash builds normally keep only join keys (bitmap); set
    #: this when the existence check compares additional attributes
    #: (Q21's "another supplier on the same order" predicates need the
    #: full row), forcing a full-width build.
    wide_build: bool = False

    def __post_init__(self):
        if self.key_side not in (self.left, self.right):
            raise PlanningError(
                f"key_side {self.key_side!r} not an endpoint of "
                f"({self.left}, {self.right})"
            )
        if self.fanout <= 0:
            raise PlanningError("fanout must be positive")
        if self.preserved is not None and self.preserved not in (self.left, self.right):
            raise PlanningError("preserved side must be an endpoint")

    @property
    def preserved_side(self) -> str:
        if self.preserved is not None:
            return self.preserved
        return self.other(self.key_side)

    def other(self, alias: str) -> str:
        if alias == self.left:
            return self.right
        if alias == self.right:
            return self.left
        raise PlanningError(f"{alias!r} is not an endpoint of this edge")


@dataclass(frozen=True)
class QuerySpec:
    """A whole query, ready for optimization.

    Attributes:
        name: e.g. ``"Q20"``.
        tables: all table occurrences.
        joins: the join graph (must keep the tables connected).
        agg_input_fraction: fraction of the final join output feeding the
            aggregate (after any residual predicates).
        group_rows: number of output groups (1 = scalar aggregate,
            0 = no aggregation).
        sort_rows: rows sorted at the end (0 = no sort).
        top: TOP-N row goal (0 = none).
        correlated_passes: extra passes over the join pipeline for
            correlated subqueries evaluated per outer row (Q17-style).
    """

    name: str
    tables: Tuple[TableRef, ...]
    joins: Tuple[JoinEdge, ...] = ()
    agg_input_fraction: float = 1.0
    group_rows: float = 1.0
    sort_rows: float = 0.0
    top: int = 0
    correlated_passes: float = 1.0
    #: Bias of the optimizer's *estimate* relative to true cost, applied
    #: only at the serial-vs-parallel threshold decision.  Models known
    #: estimation quirks: correlated IN-subquery chains are
    #: underestimated (Q20 < 1), complex OR predicates overestimated
    #: (Q19 > 1).  Execution costs are unaffected.
    optimizer_cost_scale: float = 1.0

    def __post_init__(self):
        aliases = [t.alias for t in self.tables]
        if len(set(aliases)) != len(aliases):
            raise PlanningError(f"{self.name}: duplicate aliases")
        known = set(aliases)
        for edge in self.joins:
            if edge.left not in known or edge.right not in known:
                raise PlanningError(f"{self.name}: edge references unknown alias")
        if self.tables and self.joins is not None:
            self._check_connected(known)

    def _check_connected(self, aliases: set) -> None:
        if len(aliases) <= 1:
            return
        adjacency: Dict[str, set] = {a: set() for a in aliases}
        for edge in self.joins:
            adjacency[edge.left].add(edge.right)
            adjacency[edge.right].add(edge.left)
        seen = set()
        stack = [next(iter(aliases))]
        while stack:
            node = stack.pop()
            if node in seen:
                continue
            seen.add(node)
            stack.extend(adjacency[node] - seen)
        if seen != aliases:
            raise PlanningError(
                f"{self.name}: join graph is disconnected "
                f"(unreached: {sorted(aliases - seen)})"
            )

    def table_ref(self, alias: str) -> TableRef:
        for ref in self.tables:
            if ref.alias == alias:
                return ref
        raise PlanningError(f"{self.name}: no alias {alias!r}")

    def edges_between(self, placed: set, alias: str) -> Tuple[JoinEdge, ...]:
        """Edges connecting an unplaced *alias* to the placed set."""
        return tuple(
            e
            for e in self.joins
            if (e.left == alias and e.right in placed)
            or (e.right == alias and e.left in placed)
        )
