"""Sweep builders: the experiment grids behind each figure.

A sweep is a list of :class:`~repro.core.experiment.ExperimentConfig`
sharing a workload and varying exactly one resource axis, mirroring the
paper's methodology (§4-§8).  ``run_sweep`` executes them — optionally in
parallel and through the on-disk result cache (see
:mod:`repro.core.runner`) — and returns the measurements in order;
:func:`on_backend` re-targets a grid at another engine personality.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.backends import DEFAULT_BACKEND
from repro.core.experiment import ExperimentConfig
from repro.core.knobs import (
    CORE_SWEEP,
    GRANT_SWEEP_PERCENT,
    LLC_SWEEP_MB,
    MAXDOP_SWEEP,
    ResourceAllocation,
)
from repro.core.runner import run_sweep  # noqa: F401 - the sweeps' executor

#: All (workload, scale factor) pairs of the study (Table 2).
STUDY_MATRIX: Tuple[Tuple[str, int], ...] = (
    ("tpch", 10), ("tpch", 30), ("tpch", 100), ("tpch", 300),
    ("asdb", 2000), ("asdb", 6000),
    ("tpce", 5000), ("tpce", 15000),
    ("htap", 5000), ("htap", 15000),
)

#: Simulated seconds per run, scaled so slow configurations still
#: complete enough queries for stable averages.
DEFAULT_DURATIONS: Dict[Tuple[str, int], float] = {
    ("tpch", 10): 200.0,
    ("tpch", 30): 500.0,
    ("tpch", 100): 1500.0,
    ("tpch", 300): 4000.0,
    ("asdb", 2000): 15.0,
    ("asdb", 6000): 15.0,
    ("tpce", 5000): 20.0,
    ("tpce", 15000): 20.0,
    ("htap", 5000): 30.0,
    ("htap", 15000): 30.0,
}


def duration_for(workload: str, scale_factor: int, scale: float = 1.0) -> float:
    return DEFAULT_DURATIONS.get((workload, scale_factor), 30.0) * scale


def on_backend(
    configs: Sequence[ExperimentConfig],
    backend: str = DEFAULT_BACKEND,
) -> List[ExperimentConfig]:
    """Re-target a sweep at an engine personality.

    Every figure/sensitivity grid sweeps across backends by composition:
    ``on_backend(core_sweep(...), backend="columnstore-dss")`` measures
    the same axis on a different personality.  The backend is part of
    the result-cache key, so re-targeted grids never collide with the
    originals.
    """
    return [replace(config, backend=backend) for config in configs]


def core_sweep(
    workload: str,
    scale_factor: int,
    cores: Sequence[int] = CORE_SWEEP,
    llc_mb: int = 40,
    duration_scale: float = 1.0,
) -> List[ExperimentConfig]:
    """Fig 2 (a,d,g,j): performance vs number of logical cores, full LLC.

    Follows §4: MAXDOP is limited to the allocated core count.  Small
    core counts get proportionally longer measurement windows so that
    slow configurations still complete enough work for stable averages
    (the paper ran every point for a full hour).
    """
    def window(n: int) -> float:
        # Only the low-QPS analytical workload needs longer windows at
        # small core counts; OLTP completes thousands of transactions in
        # the base window regardless of the allocation.
        base_duration = duration_for(workload, scale_factor, duration_scale)
        if workload == "tpch":
            return base_duration * max(1.0, (32.0 / n) ** 0.75)
        return base_duration

    return [
        ExperimentConfig(
            workload=workload,
            scale_factor=scale_factor,
            allocation=ResourceAllocation(logical_cores=n, llc_mb=llc_mb),
            duration=window(n),
        )
        for n in cores
    ]


def llc_sweep(
    workload: str,
    scale_factor: int,
    sizes_mb: Sequence[int] = LLC_SWEEP_MB,
    cores: int = 32,
    duration_scale: float = 1.0,
) -> List[ExperimentConfig]:
    """Fig 2 (b,e,h,k and c,f,i,l): performance and MPKI vs LLC size.

    Follows §5: 32 cores allocated, CAT allocation grown as supersets.
    """
    return [
        ExperimentConfig(
            workload=workload,
            scale_factor=scale_factor,
            allocation=ResourceAllocation(logical_cores=cores, llc_mb=mb),
            duration=duration_for(workload, scale_factor, duration_scale),
        )
        for mb in sizes_mb
    ]


def read_bandwidth_sweep(
    limits_bytes_per_s: Sequence[Optional[float]],
    workload: str = "tpch",
    scale_factor: int = 300,
    duration_scale: float = 1.0,
) -> List[ExperimentConfig]:
    """Fig 5: QPS vs SSD read-bandwidth limit (full cores + LLC).

    Bandwidth-capped runs are slow, so the measurement window is doubled
    relative to the workload default to keep completion counts stable.
    """
    return [
        ExperimentConfig(
            workload=workload,
            scale_factor=scale_factor,
            allocation=ResourceAllocation(read_bw_limit=limit),
            duration=2.0 * duration_for(workload, scale_factor, duration_scale),
        )
        for limit in limits_bytes_per_s
    ]


def write_bandwidth_sweep(
    limits_bytes_per_s: Sequence[Optional[float]],
    workload: str = "asdb",
    scale_factor: int = 2000,
    duration_scale: float = 1.0,
) -> List[ExperimentConfig]:
    """§6: TPS vs SSD write-bandwidth limit for transactional workloads."""
    return [
        ExperimentConfig(
            workload=workload,
            scale_factor=scale_factor,
            allocation=ResourceAllocation(write_bw_limit=limit),
            duration=duration_for(workload, scale_factor, duration_scale),
        )
        for limit in limits_bytes_per_s
    ]


def maxdop_sweep(
    scale_factor: int,
    maxdops: Sequence[int] = MAXDOP_SWEEP,
    duration_scale: float = 1.0,
) -> List[ExperimentConfig]:
    """Fig 6: single-stream TPC-H with MAXDOP (and cores) limited (§7)."""
    return [
        ExperimentConfig(
            workload="tpch",
            scale_factor=scale_factor,
            allocation=ResourceAllocation(logical_cores=dop, max_dop=dop),
            duration=duration_for("tpch", scale_factor, duration_scale),
            workload_kwargs={"streams": 1},
        )
        for dop in maxdops
    ]


def grant_sweep(
    scale_factor: int = 100,
    percents: Sequence[float] = GRANT_SWEEP_PERCENT,
    duration_scale: float = 1.0,
) -> List[ExperimentConfig]:
    """Fig 8: single-stream TPC-H SF=100 with query memory grant limits."""
    return [
        ExperimentConfig(
            workload="tpch",
            scale_factor=scale_factor,
            allocation=ResourceAllocation(grant_percent=pct),
            duration=duration_for("tpch", scale_factor, duration_scale),
            workload_kwargs={"streams": 1},
        )
        for pct in percents
    ]
