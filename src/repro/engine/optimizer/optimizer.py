"""Greedy cost-based optimizer.

Plan search, per query:

1. Build the best *serial* plan: greedy join ordering from several start
   tables, choosing the cheapest join algorithm (hash / index nested
   loops / merge) at every step under the serial cost model.
2. If the serial plan's estimated cost is below the cost threshold for
   parallelism, keep it — this is how cheap queries (TPC-H Q2, Q6, Q14,
   Q15, Q20 at SF 10) end up completely insensitive to MAXDOP (§7).
3. Otherwise, rerun the search under the parallel cost model at
   DOP = MAXDOP (operator work divides by DOP; broadcast and startup
   overheads do not) and keep whichever plan is estimated faster.

Because both the join *order* and the join *algorithms* are re-chosen
under the parallel cost model, the optimizer adapts plans to the degree
of parallelism, reproducing the paper's Fig 7 observation for Q20.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.calibration import PARALLELISM_COST_THRESHOLD
from repro.engine.bufferpool import BufferPool
from repro.engine.catalog import Database, Table
from repro.engine.optimizer.cost_model import CostModel
from repro.engine.optimizer.queryspec import JoinEdge, JoinKind, QuerySpec, TableRef
from repro.engine.plan.operators import OpKind, PlanNode
from repro.engine.types import StorageFormat
from repro.errors import PlanningError

#: Memory-grant scaling with DOP: more workers need more state.  At DOP=1
#: a query uses 55% of its DOP=32 memory — "TPC-H query 20 uses 45% less
#: memory with MAXDOP=1 compared to that with MAXDOP=32" (§8).
GRANT_DOP_BASE = 0.55

#: The DOP whose memory grant the factor is relative to (Fig 6's
#: baseline MAXDOP).
GRANT_REFERENCE_DOP = 32


def grant_dop_factor(dop: int) -> float:
    """Memory scaling factor for a given DOP, relative to DOP 32."""
    return GRANT_DOP_BASE + (1.0 - GRANT_DOP_BASE) * dop / GRANT_REFERENCE_DOP


@dataclass
class PlanningContext:
    """Everything the optimizer needs about the environment.

    ``search_strategy`` selects the join-ordering search:

    * ``"greedy"`` (default) — expand from the smallest filtered inputs,
      always taking the cheapest next join; linear in joins and what the
      experiments use.
    * ``"dp"`` — Selinger-style left-deep dynamic programming over
      connected subsets; exhaustive for left-deep shapes, never worse
      than greedy in estimated cost.  Exponential in the table count
      (TPC-H tops out at 8 occurrences, so it stays cheap).
    """

    database: Database
    buffer_pool: BufferPool
    cost_model: CostModel = CostModel()
    max_dop: int = 32
    parallelism_threshold: float = PARALLELISM_COST_THRESHOLD
    search_strategy: str = "greedy"


@dataclass(frozen=True)
class OptimizedQuery:
    """The optimizer's output for one query."""

    spec: QuerySpec
    plan: PlanNode
    dop: int
    estimated_elapsed_cost: float
    serial_elapsed_cost: float
    required_memory_bytes: float
    random_reads: float


@dataclass
class _Partial:
    """State of a greedy join-ordering walk."""

    plan: PlanNode
    rows: float
    placed: frozenset
    elapsed: float          # elapsed cost estimate under the active model
    memory: float
    random_reads: float


class Optimizer:
    """Cost-based planner for :class:`QuerySpec` queries."""

    def __init__(self, context: PlanningContext):
        self._ctx = context

    # -- public API ------------------------------------------------------------

    def optimize(self, spec: QuerySpec, max_dop: Optional[int] = None) -> OptimizedQuery:
        dop_cap = self._ctx.max_dop if max_dop is None else max_dop
        if dop_cap < 1:
            raise PlanningError("max_dop must be >= 1")
        serial = self._best_plan(spec, dop=1)
        serial_cost = serial.elapsed
        estimated = serial_cost * spec.optimizer_cost_scale
        if dop_cap == 1 or estimated < self._ctx.parallelism_threshold:
            return self._finish(spec, serial, dop=1, serial_cost=serial_cost)
        parallel = self._best_plan(spec, dop=dop_cap)
        if parallel.elapsed < serial_cost:
            return self._finish(spec, parallel, dop=dop_cap, serial_cost=serial_cost)
        return self._finish(spec, serial, dop=1, serial_cost=serial_cost)

    # -- helpers ---------------------------------------------------------------

    def _finish(
        self, spec: QuerySpec, partial: _Partial, dop: int, serial_cost: float
    ) -> OptimizedQuery:
        memory = partial.memory * grant_dop_factor(dop)
        return OptimizedQuery(
            spec=spec,
            plan=partial.plan,
            dop=dop,
            estimated_elapsed_cost=partial.elapsed,
            serial_elapsed_cost=serial_cost,
            required_memory_bytes=memory,
            random_reads=partial.random_reads,
        )

    def _table(self, ref: TableRef) -> Table:
        return self._ctx.database.table(ref.table)

    def _filtered_rows(self, ref: TableRef) -> float:
        return self._table(ref).rows * ref.selectivity

    def _edge_selectivity(self, edge: JoinEdge, spec: QuerySpec) -> float:
        key_ref = spec.table_ref(edge.key_side)
        unfiltered = max(1.0, float(self._table(key_ref).rows))
        return edge.fanout / unfiltered

    # -- plan search -----------------------------------------------------------

    def _best_plan(self, spec: QuerySpec, dop: int) -> _Partial:
        if self._ctx.search_strategy == "dp":
            best = self._dp_search(spec, dop)
        elif self._ctx.search_strategy == "greedy":
            best = self._greedy_search(spec, dop)
        else:
            raise PlanningError(
                f"unknown search strategy {self._ctx.search_strategy!r}"
            )
        if best is None:
            raise PlanningError(f"{spec.name}: no plan found")
        return self._add_post_join_ops(spec, best, dop)

    def _greedy_search(self, spec: QuerySpec, dop: int) -> Optional[_Partial]:
        starts = self._start_candidates(spec)
        best: Optional[_Partial] = None
        for start in starts:
            candidate = self._greedy_from(spec, start, dop)
            if candidate is None:
                continue
            if best is None or candidate.elapsed < best.elapsed:
                best = candidate
        return best

    def _dp_search(self, spec: QuerySpec, dop: int) -> Optional[_Partial]:
        """Left-deep dynamic programming over connected alias subsets.

        ``best[frozenset]`` holds the cheapest partial joining exactly
        that subset; subsets are extended one base table at a time, so
        every left-deep join order is considered.
        """
        aliases = [ref.alias for ref in spec.tables]
        best: Dict[frozenset, _Partial] = {}
        for ref in spec.tables:
            partial = self._scan_partial(spec, ref, dop)
            best[frozenset([ref.alias])] = partial
        for size in range(1, len(aliases)):
            # Extend every known subset of this size by one connected table.
            for subset in [s for s in list(best) if len(s) == size]:
                state = best[subset]
                for ref in spec.tables:
                    if ref.alias in subset:
                        continue
                    edges = spec.edges_between(set(subset), ref.alias)
                    if not edges:
                        continue
                    out_rows = self._join_output_rows(spec, state, ref.alias, edges)
                    for candidate in self._join_candidates(
                        spec, state, ref, edges, out_rows, dop
                    ):
                        key = frozenset(candidate.placed)
                        incumbent = best.get(key)
                        if incumbent is None or candidate.elapsed < incumbent.elapsed:
                            best[key] = candidate
        return best.get(frozenset(aliases))

    def _start_candidates(self, spec: QuerySpec) -> List[str]:
        """Start the greedy walk from each of the smallest filtered inputs."""
        ranked = sorted(spec.tables, key=self._filtered_rows)
        return [ref.alias for ref in ranked[:3]]

    def _greedy_from(self, spec: QuerySpec, start: str, dop: int) -> Optional[_Partial]:
        state = self._scan_partial(spec, spec.table_ref(start), dop)
        while len(state.placed) < len(spec.tables):
            step = self._best_step(spec, state, dop)
            if step is None:
                return None  # disconnected from here (shouldn't happen)
            state = step
        return state

    def _scan_partial(self, spec: QuerySpec, ref: TableRef, dop: int) -> _Partial:
        node = self._scan_node(spec, ref, dop)
        seq_io = self._ctx.cost_model.scan_io(self._cold_bytes(ref))
        return _Partial(
            plan=node,
            rows=self._filtered_rows(ref),
            placed=frozenset([ref.alias]),
            elapsed=node.cpu_cost / dop + seq_io,
            memory=0.0,
            random_reads=0.0,
        )

    def _scan_node(self, spec: QuerySpec, ref: TableRef, dop: int) -> PlanNode:
        table = self._table(ref)
        columnstore = table.storage is StorageFormat.COLUMN
        scan_bytes = table.data_bytes * ref.column_fraction
        # The HTAP design (§2.3.1): analytical scans of a row-store table
        # go through its updateable non-clustered columnstore index, which
        # keeps a separate compressed copy of the data.
        ncci = next(
            (
                ix
                for ix in table.indexes
                if ix.kind.name == "COLUMNSTORE_NONCLUSTERED"
            ),
            None,
        )
        if not columnstore and ncci is not None:
            columnstore = True
            scan_bytes = ncci.size_bytes(table.rows) * ref.column_fraction
        cpu = self._ctx.cost_model.scan_cpu(table.rows, columnstore, ref.column_fraction)
        if ref.selectivity < 1.0:
            cpu += table.rows * self._ctx.cost_model.filter_per_row
        op = OpKind.COLUMNSTORE_SCAN if columnstore else OpKind.TABLE_SCAN
        detail = "" if ref.selectivity == 1.0 else f"sel={ref.selectivity:.3g}"
        return PlanNode(
            op=op,
            table=ref.alias,
            rows_out=self._filtered_rows(ref),
            cpu_cost=cpu,
            scan_bytes=scan_bytes,
            parallel=dop > 1,
            detail=detail,
        )

    def _cold_bytes(self, ref: TableRef) -> float:
        table = self._table(ref)
        return self._ctx.buffer_pool.scan_read_bytes(table, ref.column_fraction)

    def _miss_probability(self, ref: TableRef) -> float:
        table = self._table(ref)
        return 1.0 - self._ctx.buffer_pool.scan_hit_fraction(table)

    def _join_output_rows(
        self, spec: QuerySpec, state: _Partial, alias: str, edges: Tuple[JoinEdge, ...]
    ) -> float:
        ref = spec.table_ref(alias)
        t_rows = self._filtered_rows(ref)
        kinds = {e.kind for e in edges}
        selectivity = 1.0
        for edge in edges:
            selectivity *= self._edge_selectivity(edge, spec)
        if JoinKind.SEMI in kinds or JoinKind.ANTI in kinds:
            edge = edges[0]
            if edge.preserved_side == alias:
                # The new table survives, filtered by the accumulated join.
                match_prob = min(1.0, selectivity * state.rows)
                survivors = t_rows
            else:
                match_prob = min(1.0, selectivity * t_rows)
                survivors = state.rows
            if JoinKind.ANTI in kinds:
                return survivors * max(0.0, 1.0 - match_prob)
            return survivors * match_prob
        rows = state.rows * t_rows * selectivity
        if JoinKind.OUTER in kinds:
            rows = max(rows, state.rows)
        return rows

    def _best_step(self, spec: QuerySpec, state: _Partial, dop: int) -> Optional[_Partial]:
        best: Optional[_Partial] = None
        placed = set(state.placed)
        for ref in spec.tables:
            if ref.alias in placed:
                continue
            edges = spec.edges_between(placed, ref.alias)
            if not edges:
                continue
            out_rows = self._join_output_rows(spec, state, ref.alias, edges)
            for candidate in self._join_candidates(spec, state, ref, edges, out_rows, dop):
                if best is None or candidate.elapsed < best.elapsed:
                    best = candidate
        return best

    def _join_candidates(
        self,
        spec: QuerySpec,
        state: _Partial,
        ref: TableRef,
        edges: Tuple[JoinEdge, ...],
        out_rows: float,
        dop: int,
    ) -> List[_Partial]:
        cm = self._ctx.cost_model
        table = self._table(ref)
        t_rows = self._filtered_rows(ref)
        kind = edges[0].kind
        is_semi = kind in (JoinKind.SEMI, JoinKind.ANTI)
        columnstore = table.storage is StorageFormat.COLUMN
        parallel = dop > 1
        candidates: List[_Partial] = []

        # --- hash join: scan the new table, build on the smaller input ----
        scan = self._scan_node(spec, ref, dop)
        build_rows = min(t_rows, state.rows)
        probe_rows = max(t_rows, state.rows)
        narrow = is_semi and not any(e.wide_build for e in edges)
        hash_memory = build_rows * (cm.semi_key_bytes if narrow else cm.hash_row_bytes)
        hash_cpu = cm.hash_join_cpu(build_rows, probe_rows)
        # Parallel hash joins pay an exchange overhead that does not
        # shrink with DOP: either broadcast the build side to every worker
        # (cost grows with DOP; semi-join bitmaps are cheaper to ship) or
        # repartition both inputs (synchronization cost per row).  The
        # optimizer assumes the cheaper strategy.
        if parallel:
            semi_scale = cm.semi_key_bytes / cm.hash_row_bytes if is_semi else 1.0
            broadcast = min(
                cm.broadcast_cost(build_rows, dop) * semi_scale,
                cm.exchange_cpu(build_rows + probe_rows),
            )
            exchange = cm.exchange_cpu(probe_rows)
        else:
            broadcast = 0.0
            exchange = 0.0
        hash_node = PlanNode(
            op=OpKind.HASH_JOIN,
            children=(scan, state.plan),
            rows_out=out_rows,
            cpu_cost=hash_cpu + broadcast + exchange,
            memory_bytes=hash_memory,
            parallel=parallel,
            detail=f"{kind.value} join, build={build_rows:.0f} rows",
        )
        seq_io = cm.scan_io(self._cold_bytes(ref))
        candidates.append(
            _Partial(
                plan=hash_node,
                rows=out_rows,
                placed=state.placed | {ref.alias},
                elapsed=state.elapsed
                + (scan.cpu_cost + hash_cpu + exchange) / dop
                + broadcast
                + seq_io,
                memory=state.memory + hash_memory,
                random_reads=state.random_reads,
            )
        )

        # --- index nested loops: seek into the new table per outer row.
        # Only possible when the new table is the key (PK) side of every
        # connecting edge — that is where a seekable B-tree exists.  TPC-H
        # kits create PK constraints even on columnstore tables, but
        # fetching from a columnstore after the seek costs extra
        # (columnstore_seek_multiplier).  Wide existence checks (Q21's
        # suppkey comparisons) need full rows per probe, which the
        # key-only B-tree cannot serve — no NLJ there.
        nl_possible = all(e.key_side == ref.alias for e in edges) and not any(
            e.wide_build for e in edges
        )
        miss_prob = self._miss_probability(ref)
        nl_cpu = cm.nl_join_cpu(state.rows, table.rows, out_rows, columnstore=columnstore)
        nl_io_cost = cm.nl_join_io(state.rows, miss_prob)
        random_reads = state.rows * miss_prob
        seek_node = PlanNode(
            op=OpKind.INDEX_SEEK,
            table=ref.alias,
            rows_out=t_rows,
            cpu_cost=0.0,
            parallel=parallel,
            detail="seek per outer row",
        )
        nl_node = PlanNode(
            op=OpKind.NESTED_LOOPS,
            children=(state.plan, seek_node),
            rows_out=out_rows,
            cpu_cost=nl_cpu,
            parallel=parallel,
            detail=f"{kind.value} join",
        )
        if nl_possible:
            candidates.append(
                _Partial(
                    plan=nl_node,
                    rows=out_rows,
                    placed=state.placed | {ref.alias},
                    elapsed=state.elapsed + (nl_cpu + nl_io_cost) / dop,
                    memory=state.memory,
                    random_reads=state.random_reads + random_reads,
                )
            )

        # --- merge join: sort both inputs, then merge.  Only considered
        # for serial plans; parallel merge would need order-preserving
        # exchanges the engine model does not implement.
        if parallel:
            return candidates
        merge_cpu = (
            cm.sort_cpu(state.rows)
            + cm.sort_cpu(t_rows)
            + (state.rows + t_rows) * cm.merge_per_row
        )
        merge_scan = self._scan_node(spec, ref, dop)
        merge_node = PlanNode(
            op=OpKind.MERGE_JOIN,
            children=(state.plan, merge_scan),
            rows_out=out_rows,
            cpu_cost=merge_cpu,
            memory_bytes=cm.sort_memory(state.rows + t_rows),
            parallel=parallel,
            detail=f"{kind.value} join (sorted)",
        )
        candidates.append(
            _Partial(
                plan=merge_node,
                rows=out_rows,
                placed=state.placed | {ref.alias},
                elapsed=state.elapsed + (merge_scan.cpu_cost + merge_cpu) / dop + seq_io,
                memory=state.memory + cm.sort_memory(state.rows + t_rows),
                random_reads=state.random_reads,
            )
        )
        return candidates

    # -- post-join operators ----------------------------------------------------

    def _add_post_join_ops(self, spec: QuerySpec, state: _Partial, dop: int) -> _Partial:
        cm = self._ctx.cost_model
        parallel = dop > 1
        plan = state.plan
        rows = state.rows
        elapsed = state.elapsed
        memory = state.memory

        if spec.group_rows > 0:
            agg_input = rows * spec.agg_input_fraction
            if spec.group_rows <= 1:
                cpu = agg_input * cm.stream_agg_per_row
                plan = PlanNode(
                    op=OpKind.STREAM_AGGREGATE,
                    children=(plan,),
                    rows_out=1,
                    cpu_cost=cpu,
                    parallel=parallel,
                )
            else:
                cpu = cm.hash_agg_cpu(agg_input, spec.group_rows)
                agg_memory = cm.hash_agg_memory(spec.group_rows)
                memory += agg_memory
                plan = PlanNode(
                    op=OpKind.HASH_AGGREGATE,
                    children=(plan,),
                    rows_out=spec.group_rows,
                    cpu_cost=cpu,
                    memory_bytes=agg_memory,
                    parallel=parallel,
                )
            rows = plan.rows_out
            elapsed += cpu / dop

        if spec.sort_rows > 0:
            sort_input = spec.sort_rows
            cpu = cm.sort_cpu(sort_input)
            sort_memory = cm.sort_memory(sort_input)
            memory += sort_memory
            plan = PlanNode(
                op=OpKind.SORT,
                children=(plan,),
                rows_out=sort_input,
                cpu_cost=cpu,
                memory_bytes=sort_memory,
                parallel=parallel,
            )
            rows = sort_input
            elapsed += cpu / dop

        if spec.top > 0:
            plan = PlanNode(
                op=OpKind.TOP,
                children=(plan,),
                rows_out=min(rows, spec.top) if rows else spec.top,
                cpu_cost=rows * cm.top_per_row,
                parallel=False,
            )
            elapsed += plan.cpu_cost

        if parallel:
            gather_cpu = cm.exchange_cpu(rows) + cm.startup_cost(dop)
            plan = PlanNode(
                op=OpKind.EXCHANGE_GATHER,
                children=(plan,),
                rows_out=rows,
                cpu_cost=gather_cpu,
                parallel=True,
                detail=f"DOP={dop}",
            )
            elapsed += gather_cpu

        # Correlated subquery passes multiply the whole pipeline.
        passes = spec.correlated_passes
        if passes != 1.0:
            elapsed *= passes

        return _Partial(
            plan=plan,
            rows=rows,
            placed=state.placed,
            elapsed=elapsed,
            memory=memory,
            random_reads=state.random_reads,
        )
