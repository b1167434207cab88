"""Resource partitioning among co-located tenants (§10's first research
question: how should system resources be partitioned among streams to
meet SLAs?).

A :class:`TenantProfile` holds a tenant's measured sensitivity curves
(performance at each candidate core count and LLC allocation, from the
Fig 2-style sweeps).  :func:`partition_resources` searches the discrete
allocation space for the cheapest feasible split — every tenant meets its
SLO, total cores and CAT ways within the machine — preferring partitions
that leave the most slack for future tenants.

The search is exact over the (small) discrete knob space the hardware
exposes: core counts and 2 MB CAT steps, which is precisely why the paper
highlights these two knobs as *quickly modifiable* at runtime.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class TenantProfile:
    """Measured sensitivity of one tenant.

    ``performance[(cores, llc_mb)]`` is the tenant's standalone metric at
    that allocation — typically collected with
    :func:`repro.core.sweeps.core_sweep` / ``llc_sweep`` or condensed
    from separable curves via :meth:`from_curves`.
    """

    name: str
    performance: Dict[Tuple[int, int], float]
    slo: float

    def __post_init__(self):
        if not self.performance:
            raise ConfigurationError(f"{self.name}: empty profile")
        if self.slo <= 0:
            raise ConfigurationError(f"{self.name}: SLO must be positive")

    @classmethod
    def from_curves(
        cls,
        name: str,
        core_curve: Dict[int, float],
        llc_curve: Dict[int, float],
        slo: float,
    ) -> "TenantProfile":
        """Combine separable core and LLC curves multiplicatively.

        ``llc_curve`` must contain the full-allocation point (its max),
        which anchors the relative cache factor.
        """
        if not core_curve or not llc_curve:
            raise ConfigurationError("curves must be non-empty")
        llc_reference = max(llc_curve.values())
        performance = {
            (cores, llc): core_perf * (llc_curve[llc] / llc_reference)
            for cores, core_perf in core_curve.items()
            for llc in llc_curve
        }
        return cls(name=name, performance=performance, slo=slo)

    def candidate_allocations(self) -> List[Tuple[int, int]]:
        return sorted(self.performance)

    def meets_slo(self, cores: int, llc_mb: int) -> bool:
        value = self.performance.get((cores, llc_mb))
        return value is not None and value >= self.slo


@dataclass(frozen=True)
class PartitionPlan:
    """A feasible split of the machine among tenants."""

    assignments: Dict[str, Tuple[int, int]]
    total_cores: int
    total_llc_mb: int
    spare_cores: int
    spare_llc_mb: int

    @property
    def spare_fraction(self) -> float:
        return 0.5 * (
            self.spare_cores / max(1, self.total_cores)
            + self.spare_llc_mb / max(1, self.total_llc_mb)
        )


def partition_resources(
    tenants: Sequence[TenantProfile],
    total_cores: int = 32,
    total_llc_mb: int = 40,
    llc_step_mb: int = 2,
) -> Optional[PartitionPlan]:
    """Find the feasible partition leaving the most spare resources.

    Exhaustive over each tenant's SLO-meeting allocations (the frontier
    is pruned first: dominated allocations — more of everything for the
    same SLO satisfaction — are dropped).  Returns ``None`` when no
    feasible split exists.
    """
    if total_cores < 1 or total_llc_mb < llc_step_mb:
        raise ConfigurationError("machine too small")
    frontiers: List[List[Tuple[int, int]]] = []
    for tenant in tenants:
        feasible = [
            alloc for alloc in tenant.candidate_allocations()
            if tenant.meets_slo(*alloc)
        ]
        frontier = _pareto_min(feasible)
        if not frontier:
            return None
        frontiers.append(frontier)

    best: Optional[PartitionPlan] = None
    for combo in itertools.product(*frontiers):
        cores_used = sum(c for c, _ in combo)
        llc_used = sum(l for _, l in combo)
        if cores_used > total_cores or llc_used > total_llc_mb:
            continue
        plan = PartitionPlan(
            assignments={t.name: alloc for t, alloc in zip(tenants, combo)},
            total_cores=total_cores,
            total_llc_mb=total_llc_mb,
            spare_cores=total_cores - cores_used,
            spare_llc_mb=total_llc_mb - llc_used,
        )
        if best is None or plan.spare_fraction > best.spare_fraction:
            best = plan
    return best


def _pareto_min(allocations: Sequence[Tuple[int, int]]) -> List[Tuple[int, int]]:
    """Keep only allocations not dominated by a smaller-or-equal one."""
    frontier: List[Tuple[int, int]] = []
    for candidate in sorted(allocations):
        if not any(
            other[0] <= candidate[0] and other[1] <= candidate[1]
            and other != candidate
            for other in allocations
        ):
            frontier.append(candidate)
    return frontier
