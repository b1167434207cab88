"""The sensitivity matrix: the paper's thesis in one table.

The paper's Figure 1 frames the study as a cross product of workloads,
resources, sizes, and configurations; its abstract promises "the wide
spectrum of resource sensitivities".  This module condenses the whole
study into one matrix: for every (workload, scale factor), the fraction
of performance lost when each resource is cut to a stress level —

* cores: 32 logical -> 2 (§4 shows every class scales with physical
  cores, even those that dislike hyper-threading),
* LLC: 40 MB -> 6 MB,
* read bandwidth: unlimited -> 200 MB/s,
* write bandwidth: unlimited -> 50 MB/s,
* memory grant: 25% -> 5%.

An index of 0.0 means the workload does not care; 0.75 means it runs at
a quarter of full performance.  The matrix is what a DBaaS placement
engine would precompute per tenant (§1's motivation).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core.experiment import ExperimentConfig
from repro.core.knobs import ResourceAllocation
from repro.core.resultcache import ResultCache
from repro.core.sweeps import STUDY_MATRIX, duration_for, run_sweep
from repro.units import mb_per_s

#: The stress allocation per resource axis.
STRESS_ALLOCATIONS: Dict[str, ResourceAllocation] = {
    "cores": ResourceAllocation(logical_cores=2),
    "llc": ResourceAllocation(llc_mb=6),
    "read_bw": ResourceAllocation(read_bw_limit=mb_per_s(200)),
    "write_bw": ResourceAllocation(write_bw_limit=mb_per_s(50)),
    "grant": ResourceAllocation(grant_percent=5.0),
}

RESOURCES: Tuple[str, ...] = tuple(STRESS_ALLOCATIONS)


@dataclass(frozen=True)
class SensitivityRow:
    """One workload's sensitivity indices."""

    workload: str
    scale_factor: int
    baseline: float
    indices: Dict[str, float]

    def most_sensitive(self) -> str:
        return max(self.indices, key=self.indices.get)


def sensitivity_index(baseline: float, stressed: float) -> float:
    """Fraction of performance lost under stress (clamped to [0, 1])."""
    if baseline <= 0:
        return 0.0
    return min(1.0, max(0.0, 1.0 - stressed / baseline))


def sensitivity_matrix(
    matrix: Tuple[Tuple[str, int], ...] = STUDY_MATRIX,
    duration_scale: float = 1.0,
    seed: int = 0,
    jobs: int = 1,
    cache: Optional[ResultCache] = None,
) -> List[SensitivityRow]:
    """Compute the full workload x resource sensitivity matrix.

    The grid — one baseline plus one stressed run per resource, for
    every (workload, SF) — is flattened into a single sweep so it can
    fan out over ``jobs`` workers and reuse cached grid points (the
    baselines are the same full-allocation runs Fig 4 measures).
    """
    configs: List[ExperimentConfig] = []
    for workload, sf in matrix:
        duration = duration_for(workload, sf, duration_scale)
        configs.append(ExperimentConfig(workload=workload, scale_factor=sf,
                                        duration=duration, seed=seed))
        configs.extend(
            ExperimentConfig(workload=workload, scale_factor=sf,
                             allocation=allocation, duration=duration, seed=seed)
            for allocation in STRESS_ALLOCATIONS.values()
        )
    measurements = iter(run_sweep(configs, jobs=jobs, cache=cache))

    rows: List[SensitivityRow] = []
    for workload, sf in matrix:
        baseline = next(measurements).primary_metric
        indices: Dict[str, float] = {
            resource: sensitivity_index(baseline, next(measurements).primary_metric)
            for resource in STRESS_ALLOCATIONS
        }
        rows.append(SensitivityRow(workload=workload, scale_factor=sf,
                                   baseline=baseline, indices=indices))
    return rows


def spectrum_width(rows: List[SensitivityRow]) -> Dict[str, float]:
    """Per-resource spread across workloads (max - min index).

    A wide spread is exactly the paper's point: no single workload class
    predicts another's sensitivities, so servers must be provisioned for
    the envelope.
    """
    spread: Dict[str, float] = {}
    for resource in RESOURCES:
        values = [row.indices[resource] for row in rows]
        spread[resource] = max(values) - min(values)
    return spread
