"""Regenerators for every table and figure in the paper's evaluation.

Each function runs the necessary experiments on the simulated testbed and
returns the table rows / figure series the paper reports.  Benchmarks in
``benchmarks/`` wrap these and print them; ``duration_scale`` trades
precision for speed (tests use small values).

Every experiment-running regenerator accepts ``jobs`` (process-pool
fan-out; grid points are independent, so parallel results are identical
to serial) and ``cache`` (a :class:`~repro.core.resultcache.ResultCache`
making re-runs — and grid points shared between artifacts, like the LLC
sweep behind Fig 2, Fig 3, and Table 4 — disk reads instead of
simulations).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.calibration import TABLE2_SIZES_GB
from repro.core.analysis import (
    LinearComparison,
    linear_response_comparison,
    sufficient_allocation,
    wait_ratio_table,
)
from repro.core.experiment import ExperimentConfig
from repro.core.resultcache import ResultCache
from repro.core.runner import SupervisionPolicy, run_supervised
from repro.core.knobs import (
    CORE_SWEEP,
    GRANT_SWEEP_PERCENT,
    LLC_SWEEP_MB,
    MAXDOP_SWEEP,
    ResourceAllocation,
)
from repro.core.measurement import Measurement
from repro.core.sweeps import (
    STUDY_MATRIX,
    core_sweep,
    duration_for,
    grant_sweep,
    llc_sweep,
    maxdop_sweep,
    read_bandwidth_sweep,
    run_sweep,
    write_bandwidth_sweep,
)
from repro.engine.plan.render import plan_diff_summary, render_plan
from repro.engine.schemas import build
from repro.hardware.counters import (
    DRAM_READ_BYTES,
    DRAM_WRITE_BYTES,
    SSD_READ_BYTES,
    SSD_WRITE_BYTES,
)
from repro.units import GIB, mb_per_s, to_mb_per_s
from repro.workloads.tpch import TPCH_QUERIES, tpch_query


# ---------------------------------------------------------------------------
# Table 2
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Table2Row:
    workload: str
    scale_factor: int
    data_gb: float
    index_gb: float
    paper_data_gb: float
    paper_index_gb: float
    fits_in_memory: bool


def table2(memory_bytes: float = 64 * GIB) -> List[Table2Row]:
    """Database scale factors and initial sizes (shading = does not fit)."""
    rows: List[Table2Row] = []
    for workload, sizes in TABLE2_SIZES_GB.items():
        for sf, (paper_data, paper_index) in sorted(sizes.items()):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                db = build(workload, sf)
            rows.append(
                Table2Row(
                    workload=workload,
                    scale_factor=sf,
                    data_gb=db.data_bytes / GIB,
                    index_gb=db.index_bytes / GIB,
                    paper_data_gb=paper_data,
                    paper_index_gb=paper_index,
                    fits_in_memory=db.total_bytes <= memory_bytes,
                )
            )
    return rows


# ---------------------------------------------------------------------------
# Table 3
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Table3Result:
    small_sf: int
    large_sf: int
    ratios: Dict[str, float]
    sigma_ratio: float
    paper_ratios: Dict[str, float] = field(
        default_factory=lambda: {
            "LOCK": 0.15, "PAGELATCH": 0.56, "PAGEIOLATCH": 74.61, "SIGMA": 0.49,
        }
    )


def table3(
    duration_scale: float = 1.0, seed: int = 0,
    jobs: int = 1, cache: Optional[ResultCache] = None,
) -> Table3Result:
    """Lock/latch wait times for TPC-E at SF=15000 relative to SF=5000."""
    configs = [
        ExperimentConfig(
            workload="tpce", scale_factor=sf,
            duration=duration_for("tpce", sf, duration_scale), seed=seed,
        )
        for sf in (5000, 15000)
    ]
    small, large = run_sweep(configs, jobs=jobs, cache=cache)
    ratios = wait_ratio_table(small.wait_times, large.wait_times)
    sigma_small = small.lock_latch_pagelatch_total()
    sigma_large = large.lock_latch_pagelatch_total()
    sigma = sigma_large / sigma_small if sigma_small > 0 else float("nan")
    return Table3Result(small_sf=5000, large_sf=15000, ratios=ratios,
                        sigma_ratio=sigma)


# ---------------------------------------------------------------------------
# Fig 2 and Table 4
# ---------------------------------------------------------------------------

@dataclass
class SweepSeries:
    """One panel's x/y series plus the raw measurements."""

    workload: str
    scale_factor: int
    xs: List[float]
    measurements: List[Measurement]

    @property
    def performance(self) -> List[float]:
        return [m.primary_metric for m in self.measurements]

    @property
    def mpki(self) -> List[float]:
        return [m.mpki_model for m in self.measurements]

    @property
    def p50_latency_ms(self) -> List[float]:
        """Per-point median latency of the primary completion class."""
        return [m.p50_latency_ms for m in self.measurements]

    @property
    def p99_latency_ms(self) -> List[float]:
        return [m.p99_latency_ms for m in self.measurements]

    @property
    def p999_latency_ms(self) -> List[float]:
        """The 1-in-1000 tail — p99 alone hides exactly the requests
        fleet autoscaling and shedding exist to protect."""
        return [m.p999_latency_ms for m in self.measurements]


def _sweep_series(
    workload: str, scale_factor: int,
    configs, xs: List[float],
    jobs: int, cache: Optional[ResultCache],
    policy: Optional[SupervisionPolicy],
) -> SweepSeries:
    """Run one panel's grid, tolerating holes when the policy allows them.

    Under ``on_error="raise"`` (the default) the supervisor raises rather
    than leave a hole.  Under ``"skip"``/``"collect"`` a failed grid point
    is *dropped from the series* — x and measurement together, so the
    panel stays plottable — with a warning naming what's missing."""
    report = run_supervised(configs, jobs=jobs, cache=cache, policy=policy)
    kept_xs: List[float] = []
    kept: List[Measurement] = []
    for x, measurement in zip(xs, report.measurements):
        if measurement is None:
            warnings.warn(
                f"{workload} sf={scale_factor}: dropping grid point x={x} "
                f"({len(report.failures)} failure(s) in sweep)"
            )
        else:
            kept_xs.append(x)
            kept.append(measurement)
    return SweepSeries(workload, scale_factor, kept_xs, kept)


def fig2_cores(
    workload: str, scale_factor: int,
    cores: Tuple[int, ...] = CORE_SWEEP,
    duration_scale: float = 1.0,
    jobs: int = 1, cache: Optional[ResultCache] = None,
    policy: Optional[SupervisionPolicy] = None,
) -> SweepSeries:
    """Fig 2 (a,d,g,j): average performance vs logical cores, 40 MB LLC."""
    configs = core_sweep(workload, scale_factor, cores=cores,
                         duration_scale=duration_scale)
    return _sweep_series(workload, scale_factor, configs,
                         [float(c) for c in cores], jobs, cache, policy)


def fig2_llc(
    workload: str, scale_factor: int,
    sizes_mb: Tuple[int, ...] = LLC_SWEEP_MB,
    duration_scale: float = 1.0,
    jobs: int = 1, cache: Optional[ResultCache] = None,
    policy: Optional[SupervisionPolicy] = None,
) -> SweepSeries:
    """Fig 2 (b,e,h,k) performance and (c,f,i,l) MPKI vs LLC allocation."""
    configs = llc_sweep(workload, scale_factor, sizes_mb=sizes_mb,
                        duration_scale=duration_scale)
    return _sweep_series(workload, scale_factor, configs,
                         [float(s) for s in sizes_mb], jobs, cache, policy)


#: Table 4 values from the paper: {(workload, sf): (mb_90, mb_95)}.
TABLE4_PAPER = {
    ("asdb", 2000): (8, 8), ("asdb", 6000): (8, 10),
    ("tpce", 5000): (6, 8), ("tpce", 15000): (12, 14),
    ("htap", 5000): (16, 18), ("htap", 15000): (10, 14),
    ("tpch", 10): (10, 14), ("tpch", 30): (10, 16),
    ("tpch", 100): (16, 22), ("tpch", 300): (12, 12),
}


@dataclass(frozen=True)
class Table4Row:
    workload: str
    scale_factor: int
    mb_for_90: Optional[float]
    mb_for_95: Optional[float]
    paper_mb_for_90: int
    paper_mb_for_95: int


def table4(
    matrix: Tuple[Tuple[str, int], ...] = STUDY_MATRIX,
    sizes_mb: Tuple[int, ...] = LLC_SWEEP_MB,
    duration_scale: float = 1.0,
    jobs: int = 1, cache: Optional[ResultCache] = None,
) -> List[Table4Row]:
    """Sufficient LLC capacity for >=90% / >=95% performance (32 cores)."""
    rows: List[Table4Row] = []
    for workload, sf in matrix:
        series = fig2_llc(workload, sf, sizes_mb=sizes_mb,
                          duration_scale=duration_scale,
                          jobs=jobs, cache=cache)
        paper90, paper95 = TABLE4_PAPER[(workload, sf)]
        rows.append(
            Table4Row(
                workload=workload,
                scale_factor=sf,
                mb_for_90=sufficient_allocation(series.xs, series.performance, 0.90),
                mb_for_95=sufficient_allocation(series.xs, series.performance, 0.95),
                paper_mb_for_90=paper90,
                paper_mb_for_95=paper95,
            )
        )
    return rows


# ---------------------------------------------------------------------------
# Fig 3 / Fig 4 — bandwidth utilizations and CDFs
# ---------------------------------------------------------------------------

@dataclass
class BandwidthPoint:
    x: float
    performance: float
    ssd_read_mb: float
    ssd_write_mb: float
    dram_read_mb: float
    dram_write_mb: float


def fig3_bandwidths(
    workload: str, scale_factor: int, axis: str = "cores",
    duration_scale: float = 1.0,
    jobs: int = 1, cache: Optional[ResultCache] = None,
) -> List[BandwidthPoint]:
    """Fig 3: average SSD and DRAM bandwidths along the core axis
    (``axis='cores'``) or the LLC axis (``axis='llc'``)."""
    if axis == "cores":
        series = fig2_cores(workload, scale_factor, duration_scale=duration_scale,
                            jobs=jobs, cache=cache)
    elif axis == "llc":
        series = fig2_llc(workload, scale_factor, duration_scale=duration_scale,
                          jobs=jobs, cache=cache)
    else:
        raise ValueError(f"axis must be 'cores' or 'llc', not {axis!r}")
    return [
        BandwidthPoint(
            x=x,
            performance=m.primary_metric,
            ssd_read_mb=m.ssd_read_mb,
            ssd_write_mb=m.ssd_write_mb,
            dram_read_mb=m.dram_read_mb,
            dram_write_mb=m.dram_write_mb,
        )
        for x, m in zip(series.xs, series.measurements)
    ]


def fig4_cdfs(
    matrix: Tuple[Tuple[str, int], ...] = STUDY_MATRIX,
    duration_scale: float = 1.0,
    num_points: int = 50,
    jobs: int = 1, cache: Optional[ResultCache] = None,
) -> Dict[Tuple[str, int], Dict[str, List[Tuple[float, float]]]]:
    """Fig 4: CDFs of SSD and DRAM bandwidth with full allocations.

    Returns, per (workload, sf), the four CDF series in MB/s.
    """
    configs = [
        ExperimentConfig(
            workload=workload, scale_factor=sf,
            duration=duration_for(workload, sf, duration_scale),
        )
        for workload, sf in matrix
    ]
    measurements = run_sweep(configs, jobs=jobs, cache=cache)
    result = {}
    for (workload, sf), m in zip(matrix, measurements):
        result[(workload, sf)] = {
            counter: [
                (to_mb_per_s(value), fraction)
                for value, fraction in m.bandwidth_cdf(counter).series(num_points)
            ]
            for counter in (SSD_READ_BYTES, SSD_WRITE_BYTES,
                            DRAM_READ_BYTES, DRAM_WRITE_BYTES)
        }
    return result


# ---------------------------------------------------------------------------
# Fig 5 — SSD read-bandwidth limits + §6 write limits
# ---------------------------------------------------------------------------

DEFAULT_READ_LIMITS_MB = (200, 400, 600, 800, 1000, 1400, 1800, 2500)


@dataclass
class Fig5Result:
    limits_mb: List[float]
    qps: List[float]
    comparison: LinearComparison


def fig5_read_limits(
    limits_mb: Tuple[int, ...] = DEFAULT_READ_LIMITS_MB,
    duration_scale: float = 1.0,
    jobs: int = 1, cache: Optional[ResultCache] = None,
) -> Fig5Result:
    """Fig 5: nonlinear TPC-H SF=300 QPS response to read-BW limits."""
    configs = read_bandwidth_sweep(
        [mb_per_s(l) for l in limits_mb], duration_scale=duration_scale
    )
    measurements = run_sweep(configs, jobs=jobs, cache=cache)
    qps = [m.primary_metric for m in measurements]
    comparison = linear_response_comparison(
        [float(l) for l in limits_mb], qps, probe_fraction=0.9
    )
    return Fig5Result(limits_mb=[float(l) for l in limits_mb], qps=qps,
                      comparison=comparison)


def write_limit_drops(
    limits_mb: Tuple[int, ...] = (100, 50),
    duration_scale: float = 1.0,
    jobs: int = 1, cache: Optional[ResultCache] = None,
) -> Dict[int, float]:
    """§6: fractional ASDB TPS drop under write-bandwidth caps
    (paper: 6% at 100 MB/s, 44% at 50 MB/s)."""
    configs = write_bandwidth_sweep(
        [None] + [mb_per_s(limit) for limit in limits_mb],
        duration_scale=duration_scale,
    )
    baseline, *capped = run_sweep(configs, jobs=jobs, cache=cache)
    return {
        limit: 1.0 - m.primary_metric / baseline.primary_metric
        for limit, m in zip(limits_mb, capped)
    }


# ---------------------------------------------------------------------------
# Fig 6 — MAXDOP speedups per query
# ---------------------------------------------------------------------------

def fig6_maxdop(
    scale_factor: int,
    maxdops: Tuple[int, ...] = MAXDOP_SWEEP,
    duration_scale: float = 1.0,
    jobs: int = 1, cache: Optional[ResultCache] = None,
) -> Dict[str, List[float]]:
    """Fig 6: per-query speedup at each MAXDOP relative to MAXDOP=32.

    Returns {query: [speedup at each maxdop]}, with the last entry 1.0.
    Values below 1 mean the restricted setting is slower.
    """
    configs = maxdop_sweep(scale_factor, maxdops=maxdops,
                           duration_scale=duration_scale)
    measurements = run_sweep(configs, jobs=jobs, cache=cache)
    result: Dict[str, List[float]] = {}
    for number in TPCH_QUERIES:
        name = f"Q{number}"
        latencies = [m.mean_query_latency(name) for m in measurements]
        baseline = latencies[-1]
        if any(l != l for l in latencies) or baseline <= 0:  # NaN guard
            continue
        result[name] = [baseline / l if l > 0 else float("nan") for l in latencies]
    return result


# ---------------------------------------------------------------------------
# Fig 7 — Q20 plans
# ---------------------------------------------------------------------------

@dataclass
class Fig7Result:
    serial_plan_text: str
    parallel_plan_text: str
    diff_summary: str
    serial_uses_hash_for_part: bool
    parallel_uses_nlj_for_part: bool


def fig7_q20_plans(scale_factor: int = 300) -> Fig7Result:
    """Fig 7: Q20's serial vs MAXDOP=32 plans at SF=300."""
    from repro.engine.engine import SqlEngine
    from repro.engine.plan.operators import OpKind
    from repro.engine.resource_governor import ResourceGovernor
    from repro.hardware.machine import Machine
    from repro.workloads import make_workload

    workload = make_workload("tpch", scale_factor)
    machine = Machine()
    ResourceAllocation().apply_to(machine)
    engine = SqlEngine(
        machine, workload.database, workload.execution_characteristics(),
        governor=ResourceGovernor(max_dop=32), **workload.engine_parameters(),
    )
    spec = tpch_query(20, scale_factor)
    serial = engine.optimizer.optimize(spec, max_dop=1)
    parallel = engine.optimizer.optimize(spec, max_dop=32)
    nlj_inners = [
        node.children[1].table
        for node in parallel.plan.walk()
        if node.op is OpKind.NESTED_LOOPS and len(node.children) > 1
    ]
    return Fig7Result(
        serial_plan_text=render_plan(serial.plan),
        parallel_plan_text=render_plan(parallel.plan),
        diff_summary=plan_diff_summary(serial.plan, parallel.plan),
        serial_uses_hash_for_part=serial.plan.uses(OpKind.HASH_JOIN)
        and not serial.plan.uses(OpKind.NESTED_LOOPS),
        parallel_uses_nlj_for_part="p" in nlj_inners,
    )


# ---------------------------------------------------------------------------
# Fig 8 — memory grant speedups
# ---------------------------------------------------------------------------

def fig8_memory_grants(
    scale_factor: int = 100,
    percents: Tuple[float, ...] = GRANT_SWEEP_PERCENT,
    duration_scale: float = 1.0,
    jobs: int = 1, cache: Optional[ResultCache] = None,
) -> Dict[str, List[float]]:
    """Fig 8: per-query execution-time speedup at reduced grant percents
    relative to the default 25% (first entry of *percents*).

    Returns {query: [speedup at each percent]}; values < 1 = slower.
    """
    configs = grant_sweep(scale_factor, percents=percents,
                          duration_scale=duration_scale)
    measurements = run_sweep(configs, jobs=jobs, cache=cache)
    result: Dict[str, List[float]] = {}
    for number in TPCH_QUERIES:
        name = f"Q{number}"
        latencies = [m.mean_query_latency(name) for m in measurements]
        baseline = latencies[0]
        if any(l != l for l in latencies) or baseline <= 0:
            continue
        result[name] = [baseline / l if l > 0 else float("nan") for l in latencies]
    return result


def q20_memory_vs_dop(scale_factor: int = 100) -> Tuple[float, float]:
    """§8: Q20's memory requirement at MAXDOP=1 vs MAXDOP=32 (bytes)."""
    from repro.engine.engine import SqlEngine
    from repro.engine.resource_governor import ResourceGovernor
    from repro.hardware.machine import Machine
    from repro.workloads import make_workload

    workload = make_workload("tpch", scale_factor)
    machine = Machine()
    ResourceAllocation().apply_to(machine)
    engine = SqlEngine(
        machine, workload.database, workload.execution_characteristics(),
        governor=ResourceGovernor(max_dop=32), **workload.engine_parameters(),
    )
    spec = tpch_query(20, scale_factor)
    serial = engine.optimizer.optimize(spec, max_dop=1)
    parallel = engine.optimizer.optimize(spec, max_dop=32)
    return serial.required_memory_bytes, parallel.required_memory_bytes
