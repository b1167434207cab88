"""Sharded, multi-tenant fleet traffic simulation with SLO accounting.

The paper characterizes how *one* engine degrades as resources shrink;
this module asks the consolidated-fleet version of the question — how
gracefully a sharded cluster of engines degrades as offered load rises
past capacity.  The pieces:

* **Shards.**  :class:`FleetCluster` composes N engine instances (the
  backend personalities of :mod:`repro.backends`, cycled across shards)
  on one shared simulator clock.  Each shard comes from
  :func:`~repro.fleet.replicas.build_replica_group`, the builder chaos
  soaks use, so replication >= 2 gives a guarded
  :class:`~repro.fleet.replicas.ReplicaGroup`.  Chaos episodes reuse
  the shared fault pieces too: a crash or partition runs
  :meth:`~repro.fleet.replicas.ReplicaGroup.outage` on the primary, a
  brownout :func:`~repro.faults.injector.hold_brownout`, a storm
  :func:`~repro.faults.injector.spawn_grant_storm`.
* **Tenants.**  Open-loop arrivals (:mod:`repro.workloads.arrivals`
  traces: diurnal / MMPP burst / flash-crowd) are attributed to weighted
  :class:`TenantSpec` tenants with priorities and p99 SLOs.
* **Governance.**  Each governed tenant owns a
  :class:`~repro.fleet.hedging.RetryBudget` (a token bucket refilled
  lazily from the sim clock) refilling at its purchased rate; an
  arrival that finds less than one token is refused *before* the
  engines see the traffic — layered on top of the per-engine
  RESOURCE_SEMAPHORE, which keeps doing per-query memory admission
  underneath.  This is not :class:`repro.sim.resources.TokenBucket`,
  which blocks a byte stream FIFO behind timers: an admission decision
  neither waits nor moves bytes.
* **Priority shedding.**  Each shard admits at most
  ``capacity_per_shard`` concurrent transactions, but the admission
  watermark *decreases with tenant priority number*: the most protected
  class (priority 0) may fill the shard, lower classes are refused
  progressively earlier.  That ordering is the mechanism behind the
  monotone-graceful-degradation contract — as load rises, sheds
  concentrate on low-priority traffic while the protected class's p99
  stays inside its SLO.
* **Placement.**  An admitted arrival goes to the least-loaded ready
  shard below its class's watermark, ties to the lowest index.  The
  watermarks are computed once per cluster, and one index-order scan
  against a shrinking load bound finds the shard, checking readiness
  only for a would-be winner.
* **Arrivals.**  The arrival instants come from
  :func:`~repro.workloads.arrivals.arrival_times`, the same thinning
  generator the single-engine open-loop driver uses; thinned candidates
  never become events.
* **Autoscaling.**  An optional deterministic
  :class:`~repro.fleet.autoscale.Autoscaler` grows/shrinks the ready
  shard set on queue-depth + grant-wait signals, paying the serverless
  cold-start cost for each scale-out.

Outputs are tail-first: :class:`FleetReport` carries p50/p99/p999 per
tenant and fleet-wide, the scaling timeline and the chaos episodes.  It
holds only primitives and :class:`TenantStats`, so
:func:`dataclasses.asdict` is its canonical form: the determinism digest
hashes it and journal lines store it for resume.  ``repro fleet`` prints
the :class:`TenantStats` rows, most-protected class first.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, replace
from typing import Dict, Generator, List, Optional, Sequence, Tuple

from repro.backends import make_backend
from repro.core.knobs import ResourceAllocation
from repro.core.resultcache import canonical_digest
from repro.errors import ConfigurationError, FaultInjectionError
from repro.faults.injector import hold_brownout, spawn_grant_storm
from repro.fleet.autoscale import Autoscaler, AutoscalePolicy
from repro.fleet.hedging import RetryBudget
from repro.fleet.replicas import ReplicaGroup, build_replica_group
from repro.hardware.machine import Machine
from repro.sim.process import At, Simulator, Timeout
from repro.sim.randomness import RandomStreams, draw_index, weight_cdf
from repro.sim.stats import Cdf
from repro.workloads import make_workload
from repro.workloads.arrivals import ArrivalSpec, arrival_times

#: Default ``FleetSpec.backends``.  Shard *i* runs
#: ``backends[i % len(backends)]``: the seed engine first, then the
#: specialists.
SHARD_BACKENDS = ("rowstore-oltp", "columnstore-dss", "elastic-serverless")

#: Priority-shedding watermarks: the admission fraction of shard
#: capacity available to priority *p* is ``max(FLOOR, 1 - STEP * p)``.
#: Priority 0 may fill the shard; every next class is refused earlier —
#: which is what makes shed ordering (low priority strictly first)
#: structural rather than statistical.
PRIORITY_WATERMARK_STEP = 0.25
PRIORITY_WATERMARK_FLOOR = 0.25

#: Tolerance on the monotone-goodput invariant: a tenant's completed
#: fraction may wiggle up by at most this (absolute) between adjacent
#: oversubscription levels before the invariant is called violated.
MONOTONE_TOLERANCE = 0.02


def priority_watermark(priority: int, capacity: int) -> int:
    """Concurrent-transaction bound for one priority class on one shard."""
    fraction = max(PRIORITY_WATERMARK_FLOOR,
                   1.0 - PRIORITY_WATERMARK_STEP * priority)
    return max(1, int(math.ceil(capacity * fraction)))


@dataclass(frozen=True)
class TenantSpec:
    """One tenant of the fleet: traffic share, protection, governance."""

    name: str
    priority: int = 1               #: 0 = most protected, sheds last
    weight: float = 1.0             #: share of the offered arrival stream
    slo_p99_ms: float = 250.0       #: the p99 bound the fleet must defend
    #: Token-bucket refill rate (tps); 0 = ungoverned.  Governance caps a
    #: tenant at its purchased rate before the engines see the traffic.
    rate_limit_tps: float = 0.0
    #: Bucket capacity; 0 = ``max(1, 2x rate)``.  An admission spends one
    #: whole token, so a capacity below 1 would never admit anything.
    burst_allowance: float = 0.0

    def __post_init__(self):
        # Negated comparisons, so NaN fails every check.
        if not 0 < self.weight < math.inf:
            self._reject("weight", "finite and > 0", self.weight)
        if not self.priority >= 0:
            self._reject("priority", ">= 0", self.priority)
        if not self.slo_p99_ms > 0:
            self._reject("slo_p99_ms", "> 0", self.slo_p99_ms)
        if not 0 <= self.rate_limit_tps < math.inf:
            self._reject("rate_limit_tps", "finite and >= 0",
                         self.rate_limit_tps)
        if not (self.burst_allowance == 0
                or 1 <= self.burst_allowance < math.inf):
            self._reject("burst_allowance", "0 (the default) or finite "
                         "and >= 1", self.burst_allowance)

    def _reject(self, field_name: str, rule: str, value) -> None:
        raise ConfigurationError(
            f"TenantSpec.{field_name} must be {rule}, got {value!r} "
            f"(tenant {self.name!r})"
        )


def default_tenants(count: int, slo_p99_ms: float = 250.0,
                    ) -> Tuple[TenantSpec, ...]:
    """A mixed-priority tenant population: priorities cycle 0/1/2 so any
    population has protected, standard, and best-effort classes."""
    if not count >= 1:
        raise ConfigurationError(f"need at least one tenant: count={count!r}")
    return tuple(
        TenantSpec(name=f"tenant{i}", priority=i % 3,
                   weight=1.0, slo_p99_ms=slo_p99_ms)
        for i in range(count)
    )


@dataclass(frozen=True)
class FleetSpec:
    """Everything a fleet-traffic run needs; hashable and
    cache/digest-canonical like :class:`ChaosConfig`."""

    shards: int = 2
    backends: Tuple[str, ...] = SHARD_BACKENDS
    workload: str = "asdb"
    scale_factor: int = 10
    duration: float = 8.0
    seed: int = 0
    arrival: ArrivalSpec = ArrivalSpec(offered_tps=300.0)
    tenants: Tuple[TenantSpec, ...] = default_tenants(4)
    capacity_per_shard: int = 32    #: concurrent-txn admission bound
    replication: int = 1            #: replicas per shard (1 = unreplicated)
    autoscale: Optional[AutoscalePolicy] = None

    def __post_init__(self):
        if not self.shards >= 1:
            raise ConfigurationError(
                f"FleetSpec.shards must be >= 1, got {self.shards!r}")
        if not self.backends:
            raise ConfigurationError("need at least one backend personality")
        if not 0 < self.duration < math.inf:
            raise ConfigurationError(
                f"FleetSpec.duration must be finite and > 0, "
                f"got {self.duration!r}")
        if not self.capacity_per_shard >= 1:
            raise ConfigurationError(
                f"FleetSpec.capacity_per_shard must be >= 1, "
                f"got {self.capacity_per_shard!r}")
        if not self.replication >= 1:
            raise ConfigurationError(
                f"FleetSpec.replication must be >= 1, "
                f"got {self.replication!r}")
        if not self.tenants:
            raise ConfigurationError("FleetSpec.tenants must name at least one tenant")
        names = [t.name for t in self.tenants]
        if len(set(names)) != len(names):
            raise ConfigurationError("tenant names must be unique")


class _Shard:
    """One shard: an engine (or replica group) plus admission state."""

    def __init__(self, index: int, group: ReplicaGroup, backend: str,
                 ready_at: float):
        self.index = index
        self.backend = backend
        #: The replica group, or None for an unreplicated shard, whose
        #: lone replica serves directly.
        self.group = group if len(group.replicas) > 1 else None
        self._solo = group.replicas[0]
        self.active = True          #: takes traffic (False once scaled in)
        self.down = False           #: chaos-crashed (unreplicated shards)
        self.ready_at = ready_at    #: cold start: takes traffic after this
        self.in_flight = 0
        self.in_flight_peak = 0
        self.completed = 0

    @property
    def engine(self):
        """The serving engine — the replica group's current primary when
        replicated (None mid-failover), the single engine otherwise."""
        if self.group is not None:
            primary = self.group.primary
            return primary.engine if primary is not None else None
        return self._solo.engine

    @property
    def machine(self) -> Machine:
        if self.group is not None and self.group.primary is not None:
            return self.group.primary.machine
        return self._solo.machine

    def ready(self, now: float) -> bool:
        return (self.active and not self.down and now >= self.ready_at
                and self.engine is not None)

    def grant_wait_seconds(self) -> float:
        engine = self.engine
        if engine is None:
            return 0.0
        return engine.semaphore.summary()["grant_wait_seconds"]


@dataclass(frozen=True)
class TenantStats:
    """One tenant's fleet-SLO outcome: a row of the ``repro fleet``
    table.  Primitive fields only, so a journal line's ``asdict`` form
    rebuilds it with ``TenantStats(**row)``."""

    name: str
    priority: int
    arrivals: int
    completed: int
    shed: int
    governed: int
    goodput_tps: float
    p50_ms: float
    p99_ms: float
    p999_ms: float
    slo_p99_ms: float
    first_shed_at: Optional[float]

    @property
    def goodput_fraction(self) -> float:
        if self.arrivals == 0:
            return 1.0
        return self.completed / self.arrivals

    @property
    def slo_ok(self) -> bool:
        """SLO attainment: NaN p99 (a tenant with traffic but no
        completions) counts as a violation, not a pass."""
        if self.arrivals == 0:
            return True
        if math.isnan(self.p99_ms):
            return False
        return self.p99_ms <= self.slo_p99_ms


@dataclass
class FleetReport:
    """Tail-first outcome of one fleet-traffic run."""

    shards_initial: int
    shards_peak: int
    shards_final: int
    offered_tps: float
    trace: str
    duration: float
    seed: int
    arrivals: int
    completed: int
    shed: int
    governed: int
    p50_ms: float
    p99_ms: float
    p999_ms: float
    tenants: Dict[str, TenantStats]
    per_shard: List[Dict[str, object]]
    scaling: Dict[str, object]
    reaction_seconds: Optional[float]
    episodes: List[Dict[str, object]] = field(default_factory=list)
    #: Per priority class, the first instant an arrival of that class
    #: was (or, by watermark nesting, would have been) refused.
    first_refusal_by_priority: Dict[int, float] = field(default_factory=dict)

    @property
    def completed_tps(self) -> float:
        return self.completed / self.duration if self.duration > 0 else 0.0

    def protected_violations(self) -> List[str]:
        """Tenants of the most-protected class whose p99 broke SLO."""
        top = min((t.priority for t in self.tenants.values()), default=0)
        return sorted(
            name for name, t in self.tenants.items()
            if t.priority == top and not t.slo_ok
        )

    def slo_ok(self) -> bool:
        return not self.protected_violations()

    @classmethod
    def from_payload(cls, payload: Dict) -> "FleetReport":
        """Rebuild a report from its ``asdict`` form as read back from a
        journal line: JSON keeps neither the :class:`TenantStats` type
        nor the int priority keys."""
        return cls(**{
            **payload,
            "tenants": {name: TenantStats(**stats)
                        for name, stats in payload["tenants"].items()},
            "first_refusal_by_priority": {
                int(priority): at for priority, at in payload.get(
                    "first_refusal_by_priority", {}).items()},
        })

    def digest(self) -> str:
        """Bit-exact fingerprint of everything a client observed —
        sha256 over the canonical ``asdict`` form, the chaos-style
        determinism handle."""
        return canonical_digest(asdict(self))


class FleetCluster:
    """The live cluster: shards, tenants, governance, shedding."""

    def __init__(self, spec: FleetSpec):
        self.spec = spec
        self.sim = Simulator()
        self.streams = RandomStreams(spec.seed).fork("fleet")
        self.workload = make_workload(spec.workload, spec.scale_factor)
        if not hasattr(self.workload, "transaction_types"):
            raise ConfigurationError(
                "fleet traffic needs a transactional workload; "
                f"{spec.workload!r} has no demand generator"
            )
        self.allocation = ResourceAllocation()
        self.capacity_per_shard = spec.capacity_per_shard
        self.shards: List[_Shard] = []
        self._built = 0
        for _ in range(spec.shards):
            self._build_shard(ready_at=0.0)
        # -- tenant state --------------------------------------------------------
        self._tenant_cdf = weight_cdf([t.weight for t in spec.tenants])
        # One budget per governed tenant, since their rates differ.
        self._buckets: Dict[str, RetryBudget] = {
            tenant.name: RetryBudget(
                self.sim,
                tenant.burst_allowance or max(1.0, 2.0 * tenant.rate_limit_tps),
                refill_per_s=tenant.rate_limit_tps)
            for tenant in spec.tenants if tenant.rate_limit_tps > 0
        }
        self.arrivals = 0
        self.completed = 0
        self.latencies = Cdf()
        self.tenant_arrivals: Dict[str, int] = {t.name: 0 for t in spec.tenants}
        self.tenant_completed: Dict[str, int] = {t.name: 0 for t in spec.tenants}
        self.tenant_sheds: Dict[str, int] = {t.name: 0 for t in spec.tenants}
        self.tenant_governed: Dict[str, int] = {t.name: 0 for t in spec.tenants}
        self.tenant_latencies: Dict[str, Cdf] = {t.name: Cdf()
                                                 for t in spec.tenants}
        self.first_shed_at: Dict[str, float] = {}
        self._priorities = sorted({t.priority for t in spec.tenants})
        #: Admission bound per priority class; ``capacity_per_shard`` is
        #: fixed for the cluster's life, so each is computed once.
        self._watermarks = {p: priority_watermark(p, self.capacity_per_shard)
                            for p in self._priorities}
        #: Per priority class: first instant an arrival of that class was
        #: (or would have been) refused.  Watermarks nest — a shard full
        #: for priority p is full for every q > p — so when priority p
        #: sheds, every less-protected class is marked refused at the
        #: same instant.  This clock is structurally ordered by priority,
        #: unlike per-tenant first sheds, which sample arrival times.
        self.first_refusal_at: Dict[int, float] = {}
        self.shards_peak = spec.shards
        self.autoscaler: Optional[Autoscaler] = None
        if spec.autoscale is not None:
            self.autoscaler = Autoscaler(self, spec.autoscale)
        self.episode_log: List[Dict[str, object]] = []

    # -- fleet membership --------------------------------------------------------

    def _build_shard(self, ready_at: float) -> _Shard:
        spec = self.spec
        index = self._built
        self._built += 1
        backend_name = spec.backends[index % len(spec.backends)]
        group, _, _ = build_replica_group(
            self.sim,
            [self.streams.fork(f"shard{index}.replica{r}").seed
             for r in range(spec.replication)],
            self.workload, make_backend(backend_name), self.allocation,
        )
        shard = _Shard(index, group, backend_name, ready_at)
        self.shards.append(shard)
        return shard

    def ready_shards(self) -> List[_Shard]:
        now = self.sim.now
        return [s for s in self.shards if s.ready(now)]

    def active_count(self) -> int:
        return sum(1 for s in self.shards if s.active and not s.down)

    def scale_out(self, ready_at: float) -> _Shard:
        """Provision one more shard; it takes traffic once the cold
        start completes (``ready_at``)."""
        for shard in self.shards:
            if not shard.active and not shard.down:
                # Reuse a drained scaled-in shard: warm capacity.
                shard.active = True
                shard.ready_at = ready_at
                self.shards_peak = max(self.shards_peak, self.active_count())
                return shard
        shard = self._build_shard(ready_at=ready_at)
        self.shards_peak = max(self.shards_peak, self.active_count())
        return shard

    def scale_in(self) -> Optional[_Shard]:
        """Deactivate the highest-index active shard; its in-flight work
        drains naturally (no new arrivals route to it)."""
        for shard in reversed(self.shards):
            if shard.active and not shard.down:
                shard.active = False
                return shard
        return None

    def total_grant_wait_seconds(self) -> float:
        return sum(s.grant_wait_seconds() for s in self.shards)

    def total_sheds(self) -> int:
        return sum(self.tenant_sheds.values())

    # -- admission ---------------------------------------------------------------

    def _place(self, priority: int) -> Optional[_Shard]:
        """Least-loaded ready shard that still admits this priority
        class (deterministic: ties break to the lowest index).

        One pass in index order against a shrinking bound: a shard must
        be strictly below the priority's watermark and, once a candidate
        is found, strictly below the best load so far.  Readiness is
        checked only for a shard that passes the load test, and an idle
        ready shard ends the scan — nothing can beat load 0.
        """
        now = self.sim.now
        bound = self._watermarks[priority]
        best = None
        for shard in self.shards:
            load = shard.in_flight
            if load < bound and shard.ready(now):
                best = shard
                if load == 0:
                    break
                bound = load
        return best

    # -- traffic -----------------------------------------------------------------

    def _arrivals_proc(self, until: float) -> Generator:
        spec = self.spec
        rng = self.streams.get("arrivals")
        trace_rng = self.streams.get("arrivals.trace")
        times = arrival_times(
            rng, spec.arrival.build_trace(until, trace_rng),
            spec.arrival.offered_tps, spec.arrival.trace == "deterministic",
            self.sim.now, until)
        types = self.workload.transaction_types()
        type_cdf = weight_cdf([t.weight for t in types])
        tenants = spec.tenants
        for t in times:
            yield At(t)
            tenant = tenants[draw_index(rng, self._tenant_cdf)]
            self.arrivals += 1
            self.tenant_arrivals[tenant.name] += 1
            bucket = self._buckets.get(tenant.name)
            if bucket is not None and not bucket.try_spend():
                self.tenant_governed[tenant.name] += 1
                continue
            shard = self._place(tenant.priority)
            if shard is None:
                self._shed(tenant)
                continue
            txn_type = types[draw_index(rng, type_cdf)]
            demand = self.workload.build_demand(shard.engine, txn_type, rng)
            shard.in_flight += 1
            shard.in_flight_peak = max(shard.in_flight_peak, shard.in_flight)
            self.sim.spawn(self._execute(shard, tenant, demand),
                           name=f"fleet-txn-{shard.index}")
        return None

    def _shed(self, tenant: TenantSpec) -> None:
        self.tenant_sheds[tenant.name] += 1
        self.first_shed_at.setdefault(tenant.name, self.sim.now)
        for priority in self._priorities:
            if priority >= tenant.priority:
                self.first_refusal_at.setdefault(priority, self.sim.now)

    def _execute(self, shard: _Shard, tenant: TenantSpec, demand) -> Generator:
        engine = shard.engine
        if engine is None:
            # The shard lost its primary between placement and dispatch
            # (chaos): the request is shed, not silently dropped.
            shard.in_flight -= 1
            self._shed(tenant)
            return None
        start = self.sim.now
        try:
            result = yield from engine.run_transaction(demand)
        except FaultInjectionError:
            shard.in_flight -= 1
            self._shed(tenant)
            return None
        shard.in_flight -= 1
        shard.completed += 1
        self.completed += 1
        self.tenant_completed[tenant.name] += 1
        elapsed = self.sim.now - start if result is None else result.elapsed
        self.latencies.add(elapsed)
        self.tenant_latencies[tenant.name].add(elapsed)
        return None

    # -- chaos composability -----------------------------------------------------

    def _drive_episode(self, episode) -> Generator:
        """Run one chaos episode against the fleet (duck-typed over
        :class:`~repro.faults.chaos.ChaosEpisode`, so the chaos
        scheduler's output composes without an import cycle)."""
        yield Timeout(episode.at)
        shard = self.shards[episode.replica % len(self.shards)]
        entry: Dict[str, object] = {
            "kind": episode.kind, "shard": shard.index,
            "at": self.sim.now, "duration": episode.duration,
        }
        if episode.kind == "brownout":
            yield from hold_brownout(shard.machine.ssd, episode.spec)
        elif episode.kind in ("crash", "partition"):
            if shard.group is not None:
                yield from shard.group.outage(shard.group.primary,
                                              episode.kind, episode.duration)
            else:
                # Unreplicated shard: the outage takes the whole shard
                # out of rotation — the autoscaler's problem now.
                shard.down = True
                yield Timeout(episode.duration)
                shard.down = False
        elif episode.kind == "storm":
            engine = shard.engine
            if engine is not None:
                spawn_grant_storm(self.sim, engine.semaphore, episode.spec,
                                  f"fleet-storm-{shard.index}")
            yield Timeout(episode.duration)
        entry["healed_at"] = self.sim.now
        self.episode_log.append(entry)

    # -- execution ---------------------------------------------------------------

    def run(self, schedule: Sequence = ()) -> FleetReport:
        spec = self.spec
        if self.autoscaler is not None:
            self.autoscaler.install()
        for i, episode in enumerate(schedule):
            self.sim.spawn(self._drive_episode(episode),
                           name=f"fleet-episode-{i}")
        self.sim.spawn(self._arrivals_proc(spec.duration), name="fleet-arrivals")
        self.sim.run(until=spec.duration)
        report = self._report()
        # Suspended processes and the shards reference each other;
        # closing lets reference counting free the fleet on return.
        self.sim.close()
        return report

    # -- reporting ---------------------------------------------------------------

    def _report(self) -> FleetReport:
        spec = self.spec
        tenants: Dict[str, TenantStats] = {}
        for tenant in spec.tenants:
            cdf = self.tenant_latencies[tenant.name]
            completed = self.tenant_completed[tenant.name]
            tenants[tenant.name] = TenantStats(
                name=tenant.name,
                priority=tenant.priority,
                arrivals=self.tenant_arrivals[tenant.name],
                completed=completed,
                shed=self.tenant_sheds[tenant.name],
                governed=self.tenant_governed[tenant.name],
                goodput_tps=completed / spec.duration,
                p50_ms=cdf.percentile_ms(50.0),
                p99_ms=cdf.percentile_ms(99.0),
                p999_ms=cdf.percentile_ms(99.9),
                slo_p99_ms=tenant.slo_p99_ms,
                first_shed_at=self.first_shed_at.get(tenant.name),
            )
        per_shard = [
            {
                "shard": s.index, "backend": s.backend,
                "completed": s.completed, "in_flight_peak": s.in_flight_peak,
                "active": s.active, "replicas": spec.replication,
            }
            for s in self.shards
        ]
        scaling = (self.autoscaler.summary()
                   if self.autoscaler is not None
                   else {"decisions": [], "scale_outs": 0, "scale_ins": 0,
                         "overload_onset": None})
        reaction = (self.autoscaler.reaction_seconds()
                    if self.autoscaler is not None else None)
        return FleetReport(
            shards_initial=spec.shards,
            shards_peak=self.shards_peak,
            shards_final=self.active_count(),
            offered_tps=spec.arrival.offered_tps,
            trace=spec.arrival.trace,
            duration=spec.duration,
            seed=spec.seed,
            arrivals=self.arrivals,
            completed=self.completed,
            shed=sum(self.tenant_sheds.values()),
            governed=sum(self.tenant_governed.values()),
            p50_ms=self.latencies.percentile_ms(50.0),
            p99_ms=self.latencies.percentile_ms(99.0),
            p999_ms=self.latencies.percentile_ms(99.9),
            tenants=tenants,
            per_shard=per_shard,
            scaling=scaling,
            reaction_seconds=reaction,
            episodes=list(self.episode_log),
            first_refusal_by_priority=dict(self.first_refusal_at),
        )


def run_fleet(spec: FleetSpec, schedule: Sequence = ()) -> FleetReport:
    """One fleet-traffic run: build the cluster, drive the trace (and
    any chaos episodes), return the tail-first report."""
    return FleetCluster(spec).run(schedule=schedule)


# ---------------------------------------------------------------------------
# Oversubscription sweeps and invariants
# ---------------------------------------------------------------------------

def spec_digest(spec: FleetSpec, schedule: Sequence = ()) -> str:
    """Canonical digest of one fleet point (journal resume key).  The
    chaos schedule is folded in so faulted and fault-free runs of the
    same spec never collide."""
    return canonical_digest({"spec": spec, "schedule": list(schedule)})


@dataclass
class FleetSweep:
    """Reports across rising oversubscription, plus the SLO contracts."""

    oversubscription: List[float]
    reports: List[FleetReport]
    resumed: int = 0

    def slo_invariant(self) -> bool:
        """The graceful-degradation contract's first half: at every
        offered-load level, every most-protected tenant's p99 stays
        inside its SLO."""
        return all(report.slo_ok() for report in self.reports)

    def slo_violations(self) -> List[str]:
        out = []
        for oversub, report in zip(self.oversubscription, self.reports):
            for name in report.protected_violations():
                stats = report.tenants[name]
                out.append(f"{oversub:g}x {name}: p99 {stats.p99_ms:.1f}ms "
                           f"> slo {stats.slo_p99_ms:.0f}ms")
        return out

    def monotone_degradation(self) -> bool:
        """The contract's second half: each tenant's goodput *fraction*
        (completed/offered) never recovers as load rises — capacity lost
        to oversubscription is surrendered in priority order, not
        reshuffled."""
        for name in self.reports[0].tenants if self.reports else ():
            previous = None
            for report in self.reports:
                fraction = report.tenants[name].goodput_fraction
                if previous is not None and fraction > previous + MONOTONE_TOLERANCE:
                    return False
                previous = fraction
        return True

    def shed_fairness(self) -> bool:
        """Sheds concentrate on low-priority traffic: at every level, a
        more-protected class never sheds a larger fraction than a
        less-protected one, and a protected class is never refused
        before a less-protected class was (the refusal clock — the
        instant a class's watermark was first hit fleet-wide — which is
        structurally ordered by watermark nesting, unlike per-tenant
        first-shed times, which sample each tenant's arrival process)."""
        for report in self.reports:
            by_priority: Dict[int, List[TenantStats]] = {}
            for stats in report.tenants.values():
                by_priority.setdefault(stats.priority, []).append(stats)
            priorities = sorted(by_priority)
            refusals = report.first_refusal_by_priority
            for higher, lower in zip(priorities, priorities[1:]):
                shed_hi = _class_shed_fraction(by_priority[higher])
                shed_lo = _class_shed_fraction(by_priority[lower])
                if shed_hi > shed_lo + 1e-9:
                    return False
                first_hi = refusals.get(higher)
                first_lo = refusals.get(lower)
                if first_hi is not None and (first_lo is None
                                             or first_lo > first_hi):
                    return False
        return True


def _class_shed_fraction(stats: List[TenantStats]) -> float:
    arrivals = sum(s.arrivals for s in stats)
    if arrivals == 0:
        return 0.0
    return sum(s.shed for s in stats) / arrivals


def _run_point(item: Tuple[FleetSpec, Tuple]) -> FleetReport:
    """Top-level (picklable) worker body for parallel fleet sweeps."""
    spec, schedule = item
    return run_fleet(spec, schedule=schedule)


def fleet_oversubscription_sweep(
    spec: FleetSpec,
    oversubscription: Sequence[float] = (1.0, 4.0, 16.0),
    jobs: int = 1,
    journal=None,
    schedule: Sequence = (),
) -> FleetSweep:
    """The graceful-degradation grid: the same fleet at rising offered
    load.  Each point is deterministic, so ``jobs=N`` fan-out (via the
    supervised runner's :func:`~repro.core.runner.map_ordered`) returns
    bit-identical reports to the serial run.

    With a :class:`~repro.core.journal.SweepJournal` (or a path), every
    completed point appends a ``fleet-traffic`` event line carrying the
    spec digest and the report's ``asdict`` form — a re-invocation replays
    finished points from the journal and only simulates the holes.
    """
    from repro.core.journal import SweepJournal
    from repro.core.runner import map_ordered

    if journal is not None and not isinstance(journal, SweepJournal):
        journal = SweepJournal(journal)

    points = [
        replace(spec, arrival=replace(
            spec.arrival,
            offered_tps=spec.arrival.offered_tps * float(factor)))
        for factor in oversubscription
    ]
    schedule = tuple(schedule)
    digests = [spec_digest(point, schedule) for point in points]
    done: Dict[str, FleetReport] = {}
    if journal is not None:
        for event in journal.events("fleet-traffic"):
            digest = event.get("digest")
            payload = event.get("report")
            if digest in digests and isinstance(payload, dict):
                done[digest] = FleetReport.from_payload(payload)
    missing = [(i, point) for i, (point, digest)
               in enumerate(zip(points, digests)) if digest not in done]
    fresh = map_ordered(_run_point,
                        [(point, schedule) for _, point in missing],
                        jobs=jobs)
    reports: List[Optional[FleetReport]] = [
        done.get(digest) for digest in digests
    ]
    for (index, _), report in zip(missing, fresh):
        reports[index] = report
        if journal is not None:
            journal.note("fleet-traffic", digest=digests[index],
                         oversubscription=float(oversubscription[index]),
                         report=asdict(report))
    return FleetSweep(
        oversubscription=[float(f) for f in oversubscription],
        reports=reports,  # type: ignore[arg-type]
        resumed=len(done),
    )
