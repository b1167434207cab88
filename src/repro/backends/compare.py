"""Cross-backend comparison grids (the ``repro route`` command).

The consolidation question the paper's characterization raises — which
engine personality should own which workload, and does a resource-aware
router beat any fixed choice? — is answered by re-running the paper's
own grids once per personality plus once through the routed fleet:

* :func:`compare_fig2` re-measures the Fig 2 core-count axis on every
  backend and on the router, producing the per-backend sensitivity
  curves side by side;
* :func:`compare_admission` re-runs the §10 admission/overload grid the
  same way and checks the *router floor*: on per-stream throughput the
  routed fleet must never do worse than the worst single backend at the
  same grid point (a router that loses to its own worst member is
  misrouting).

Both helpers drive the ordinary experiment harness, so results are
deterministic, cacheable, and journaled like any other sweep.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from repro.backends.base import DEFAULT_ROUTER_BACKENDS, make_backend
from repro.backends.router import POLICY_RULE_BASED
from repro.core.admission import AdmissionPolicySweep, sweep_admission_policies
from repro.core.measurement import Measurement
from repro.core.sweeps import core_sweep, on_backend, run_sweep
from repro.errors import ConfigurationError

#: Core counts used for the cross-backend Fig 2 axis.  A routed fleet
#: partitions its allocation one slice per backend (plus 2 MB of CAT
#: each), so the axis starts where every member still gets a core.
ROUTE_CORE_AXIS = (4, 8, 16, 32)


def _router_label(policy: str) -> str:
    return f"router:{policy}"


@dataclass(frozen=True)
class BackendFigure:
    """One paper axis measured per backend and through the router.

    ``series`` maps a label — a backend name or ``router:<policy>`` —
    to the measurements along ``xs``, in label configuration order.
    """

    workload: str
    scale_factor: int
    axis: str
    xs: Tuple[int, ...]
    labels: Tuple[str, ...]
    series: Dict[str, Tuple[Measurement, ...]] = field(default_factory=dict)

    @property
    def router_labels(self) -> Tuple[str, ...]:
        return tuple(l for l in self.labels if l.startswith("router:"))

    def routing_summary(self) -> Dict[str, Dict[str, int]]:
        """Total router placements per routed label, summed over the axis."""
        out: Dict[str, Dict[str, int]] = {}
        for label in self.router_labels:
            totals: Dict[str, int] = {}
            for m in self.series[label]:
                for name, count in m.router_decisions.items():
                    totals[name] = totals.get(name, 0) + count
            out[label] = totals
        return out


def compare_fig2(
    workload: str = "tpch",
    scale_factor: int = 10,
    cores: Sequence[int] = ROUTE_CORE_AXIS,
    llc_mb: int = 40,
    duration_scale: float = 1.0,
    backends: Sequence[str] = DEFAULT_ROUTER_BACKENDS,
    policy: str = POLICY_RULE_BASED,
    jobs: int = 1,
    cache=None,
    supervision=None,
) -> BackendFigure:
    """The Fig 2 core-count axis, once per backend plus the routed fleet.

    All grid points run through one supervised sweep (shared journal,
    shared cache, full fan-out), then slice back into per-label series;
    a grid point left without a measurement raises
    :class:`~repro.errors.SweepExecutionError`.
    """
    names = list(backends)
    if len(set(names)) != len(names):
        raise ConfigurationError(f"duplicate backends: {names}")
    for name in names:
        make_backend(name)  # fail fast before running anything
    base = core_sweep(workload, scale_factor, cores=cores, llc_mb=llc_mb,
                      duration_scale=duration_scale)
    labels = tuple(names) + (_router_label(policy),)
    configs = []
    for name in names:
        configs.extend(on_backend(base, backend=name))
    configs.extend(
        on_backend(base, router=policy, router_backends=tuple(names))
    )
    measurements = run_sweep(configs, jobs=jobs, cache=cache,
                             policy=supervision)
    width = len(base)
    series = {
        label: tuple(measurements[i * width:(i + 1) * width])
        for i, label in enumerate(labels)
    }
    return BackendFigure(
        workload=workload,
        scale_factor=scale_factor,
        axis="cores",
        xs=tuple(int(c) for c in cores),
        labels=labels,
        series=series,
    )


@dataclass(frozen=True)
class AdmissionBackendComparison:
    """The §10 admission grid per backend and through the routed fleet."""

    labels: Tuple[str, ...]
    sweeps: Dict[str, AdmissionPolicySweep] = field(default_factory=dict)

    @property
    def router_labels(self) -> Tuple[str, ...]:
        return tuple(l for l in self.labels if l.startswith("router:"))

    @property
    def backend_labels(self) -> Tuple[str, ...]:
        return tuple(l for l in self.labels if not l.startswith("router:"))

    def floor_violations(self) -> List[str]:
        """Grid points where a routed fleet undercuts the *worst* single
        backend on per-stream throughput (the router-floor invariant)."""
        violations: List[str] = []
        singles = [self.sweeps[l] for l in self.backend_labels]
        for label in self.router_labels:
            routed = self.sweeps[label]
            for point in routed.points:
                floor = min(
                    p.per_stream_qps
                    for sweep in singles
                    for p in sweep.points
                    if p.policy == point.policy
                    and p.oversubscription == point.oversubscription
                )
                if point.per_stream_qps < floor * (1.0 - 1e-9):
                    violations.append(
                        f"{label} {point.policy}@{point.oversubscription}x: "
                        f"{point.per_stream_qps:.5f} < floor {floor:.5f}"
                    )
        return violations

    @property
    def router_floor_ok(self) -> bool:
        return not self.floor_violations()


def compare_admission(
    scale_factor: int = 10,
    oversubscription: Sequence[int] = (1, 4),
    policies: Sequence[str] = ("immediate", "queued"),
    base_streams: int = 4,
    duration_scale: float = 0.1,
    seed: int = 0,
    grant_timeout_s: float = 30.0,
    backends: Sequence[str] = DEFAULT_ROUTER_BACKENDS,
    policy: str = POLICY_RULE_BASED,
) -> AdmissionBackendComparison:
    """The admission/overload grid on every backend plus the router.

    Defaults are sized for a quick check (SF=10, two oversubscription
    levels, two admission policies); the paper-scale grid is one
    ``scale_factor=100, duration_scale=0.4`` call away.
    """
    names = list(backends)
    if len(set(names)) != len(names):
        raise ConfigurationError(f"duplicate backends: {names}")
    for name in names:
        make_backend(name)
    labels = tuple(names) + (_router_label(policy),)
    sweeps: Dict[str, AdmissionPolicySweep] = {}
    for name in names:
        sweeps[name] = sweep_admission_policies(
            scale_factor=scale_factor,
            oversubscription=oversubscription,
            policies=policies,
            base_streams=base_streams,
            duration_scale=duration_scale,
            seed=seed,
            grant_timeout_s=grant_timeout_s,
            backend=name,
        )
    sweeps[_router_label(policy)] = sweep_admission_policies(
        scale_factor=scale_factor,
        oversubscription=oversubscription,
        policies=policies,
        base_streams=base_streams,
        duration_scale=duration_scale,
        seed=seed,
        grant_timeout_s=grant_timeout_s,
        router=policy,
        router_backends=tuple(names),
    )
    return AdmissionBackendComparison(labels=labels, sweeps=sweeps)
