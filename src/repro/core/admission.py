"""Query admission policies (§10's third research question).

    "In a concurrent stream, is it better to immediately start executing
     queries even with limited resources, or delay them till others
     finish and free up resources?"

:func:`compare_admission_policies` is the original two-point comparison
(all streams at once vs one stream with the full machine).

:func:`sweep_admission_policies` generalizes it into the overload study:
three admission policies, each swept across stream *oversubscription*
levels relative to the query-memory pool's natural concurrency (the
default 25% per-query cap fits exactly four cap-sized grants, so four
streams are "1x"):

* **immediate** — overload protection off: every query is admitted
  unconditionally with whatever grant the cap allows (the seed
  behavior; memory pressure shows up only as spills);
* **serialized** — ``grant_percent=100`` plus grant queueing: a
  memory-hungry query takes the whole pool and the RESOURCE_SEMAPHORE
  queue serializes the rest behind it ("delay them till others finish
  and free up resources", with no deadline);
* **queued** — grant queueing with a timeout: waiters that exceed
  ``grant_timeout_s`` degrade to whatever memory is free and spill (the
  middle ground SQL Server actually ships).

Every point is driven through the normal experiment harness, so plan
adaptation, grants, and the buffer-pool coupling all participate —
exactly the interactions the paper argues make the question non-trivial
(runtime DOP and memory are expensive to change once a query starts).

The sweep's headline invariant is *monotone graceful degradation*:
per-stream throughput must never increase with oversubscription, and
the run must complete without unhandled exceptions at every level.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

from repro.core.experiment import ExperimentConfig, Experiment
from repro.core.knobs import ResourceAllocation
from repro.core.measurement import Measurement
from repro.core.sweeps import duration_for
from repro.errors import ConfigurationError


@dataclass(frozen=True)
class AdmissionComparison:
    """Throughput of the two policies on the same workload."""

    workload: str
    scale_factor: int
    streams: int
    immediate_qps: float
    serialized_qps: float

    @property
    def immediate_wins(self) -> bool:
        return self.immediate_qps >= self.serialized_qps

    @property
    def advantage(self) -> float:
        """Relative QPS advantage of the better policy."""
        lo = min(self.immediate_qps, self.serialized_qps)
        hi = max(self.immediate_qps, self.serialized_qps)
        if lo <= 0:
            return float("inf")
        return hi / lo - 1.0


def compare_admission_policies(
    scale_factor: int,
    streams: int = 3,
    duration_scale: float = 1.0,
    seed: int = 0,
) -> AdmissionComparison:
    """Run both policies for TPC-H at one scale factor.

    The serialized policy runs a single stream for the same total
    simulated time; since a lone stream holds the whole machine, its QPS
    is directly comparable (queries completed per second of wall time).
    """
    duration = duration_for("tpch", scale_factor, duration_scale)
    immediate = Experiment(
        ExperimentConfig(
            workload="tpch", scale_factor=scale_factor, duration=duration,
            seed=seed, workload_kwargs={"streams": streams},
        )
    ).run()
    serialized = Experiment(
        ExperimentConfig(
            workload="tpch", scale_factor=scale_factor, duration=duration,
            seed=seed, workload_kwargs={"streams": 1},
        )
    ).run()
    return AdmissionComparison(
        workload="tpch",
        scale_factor=scale_factor,
        streams=streams,
        immediate_qps=immediate.primary_metric,
        serialized_qps=serialized.primary_metric,
    )


# -- the oversubscription sweep -------------------------------------------------

POLICY_IMMEDIATE = "immediate"
POLICY_SERIALIZED = "serialized"
POLICY_QUEUED = "queued"

#: Policies accepted by :func:`sweep_admission_policies`.
ADMISSION_POLICIES = (POLICY_IMMEDIATE, POLICY_SERIALIZED, POLICY_QUEUED)

#: Streams at 1x oversubscription: the default pool (25% per-query cap)
#: admits exactly four cap-sized grants concurrently.
BASE_STREAMS = 4

#: Default oversubscription ladder (1x, 4x, 16x the pool's capacity).
DEFAULT_OVERSUBSCRIPTION = (1, 4, 16)


def allocation_for_policy(
    policy: str, grant_timeout_s: float = 30.0
) -> ResourceAllocation:
    """The resource allocation that implements one admission policy."""
    if policy == POLICY_IMMEDIATE:
        return ResourceAllocation()
    if policy == POLICY_SERIALIZED:
        # The whole pool per query; the (unbounded, deadline-free) grant
        # queue then serializes every memory-hungry query.
        return ResourceAllocation(grant_percent=100.0, max_queue_depth=2 ** 20)
    if policy == POLICY_QUEUED:
        return ResourceAllocation(grant_timeout_s=grant_timeout_s)
    raise ConfigurationError(
        f"admission policy must be one of {ADMISSION_POLICIES}, got {policy!r}"
    )


@dataclass(frozen=True)
class AdmissionPolicyPoint:
    """One (policy, oversubscription) grid point of the overload sweep."""

    policy: str
    oversubscription: int
    streams: int
    qps: float
    grant_waits: int
    grant_wait_seconds: float
    grant_timeouts: int
    grant_degrades: int
    grant_queue_peak: int

    @property
    def per_stream_qps(self) -> float:
        """Throughput one closed-loop client actually experienced."""
        return self.qps / self.streams


@dataclass(frozen=True)
class AdmissionPolicySweep:
    """The full policy x oversubscription grid, plus its invariant."""

    workload: str
    scale_factor: int
    duration: float
    points: Tuple[AdmissionPolicyPoint, ...]

    def points_for(self, policy: str) -> Tuple[AdmissionPolicyPoint, ...]:
        return tuple(
            sorted(
                (p for p in self.points if p.policy == policy),
                key=lambda p: p.oversubscription,
            )
        )

    def monotone_degradation(self, policy: str = "") -> bool:
        """True when per-stream throughput never *increases* with
        oversubscription — the graceful-degradation invariant.  With no
        *policy* given, every swept policy must satisfy it."""
        policies = (policy,) if policy else {p.policy for p in self.points}
        for name in policies:
            ladder = self.points_for(name)
            for earlier, later in zip(ladder, ladder[1:]):
                if later.per_stream_qps > earlier.per_stream_qps * (1 + 1e-9):
                    return False
        return True


def _sweep_point(
    policy: str,
    oversubscription: int,
    scale_factor: int,
    base_streams: int,
    duration: float,
    seed: int,
    grant_timeout_s: float,
) -> AdmissionPolicyPoint:
    streams = base_streams * oversubscription
    measurement: Measurement = Experiment(
        ExperimentConfig(
            workload="tpch",
            scale_factor=scale_factor,
            allocation=allocation_for_policy(policy, grant_timeout_s),
            duration=duration,
            seed=seed,
            workload_kwargs={"streams": streams},
        )
    ).run()
    return AdmissionPolicyPoint(
        policy=policy,
        oversubscription=oversubscription,
        streams=streams,
        qps=measurement.primary_metric,
        grant_waits=int(measurement.grant_waits),
        grant_wait_seconds=measurement.grant_wait_seconds,
        grant_timeouts=int(measurement.grant_timeouts),
        grant_degrades=int(measurement.grant_degrades),
        grant_queue_peak=int(measurement.grant_queue_peak),
    )


def sweep_admission_policies(
    scale_factor: int = 100,
    oversubscription: Sequence[int] = DEFAULT_OVERSUBSCRIPTION,
    policies: Sequence[str] = ADMISSION_POLICIES,
    base_streams: int = BASE_STREAMS,
    duration_scale: float = 0.4,
    seed: int = 0,
    grant_timeout_s: float = 30.0,
) -> AdmissionPolicySweep:
    """Run the §10-style overload grid: policies x oversubscription.

    Levels must be positive and are swept in ascending order so the
    returned points line up with the monotone-degradation ladder.
    """
    levels = sorted(set(int(level) for level in oversubscription))
    if not levels or levels[0] < 1:
        raise ConfigurationError(f"oversubscription levels must be >= 1: "
                                 f"oversubscription={tuple(oversubscription)!r}")
    if not base_streams >= 1:
        raise ConfigurationError(
            f"base_streams must be >= 1: base_streams={base_streams!r}")
    for policy in policies:
        if policy not in ADMISSION_POLICIES:
            raise ConfigurationError(
                f"admission policy must be one of {ADMISSION_POLICIES}, "
                f"got {policy!r}"
            )
    duration = duration_for("tpch", scale_factor, duration_scale)
    points = tuple(
        _sweep_point(policy, level, scale_factor, base_streams, duration,
                     seed, grant_timeout_s)
        for policy in policies
        for level in levels
    )
    return AdmissionPolicySweep(
        workload="tpch",
        scale_factor=scale_factor,
        duration=duration,
        points=points,
    )
