"""Sharded, multi-tenant fleet traffic simulation with SLO accounting.

The paper characterizes how *one* engine degrades as resources shrink;
this module asks the consolidated-fleet version of the question — how
gracefully a sharded cluster of engines degrades as offered load rises
past capacity.  The pieces:

* **Shards.**  :class:`FleetCluster` composes N engine instances (the
  backend personalities of :mod:`repro.backends`, cycled across shards,
  optionally wrapped in PR 8 :class:`~repro.fleet.replicas.ReplicaGroup`
  replication) on one shared simulator clock, exactly the way chaos
  fleets are built.
* **Tenants.**  Open-loop arrivals (:mod:`repro.workloads.arrivals`
  traces: diurnal / MMPP burst / flash-crowd) are attributed to weighted
  :class:`TenantSpec` tenants with priorities and p99 SLOs.
* **Governance.**  A per-tenant token bucket (lazy sim-clock refill, the
  :class:`~repro.fleet.hedging.RetryBudget` construction) caps governed
  tenants at their purchased rate *before* the engines see the traffic —
  layered on top of the per-engine RESOURCE_SEMAPHORE, which keeps
  doing per-query memory admission underneath.
* **Priority shedding.**  Each shard admits at most
  ``capacity_per_shard`` concurrent transactions, but the admission
  watermark *decreases with tenant priority number*: the most protected
  class (priority 0) may fill the shard, lower classes are refused
  progressively earlier.  That ordering is the mechanism behind the
  monotone-graceful-degradation contract — as load rises, sheds
  concentrate on low-priority traffic while the protected class's p99
  stays inside its SLO.
* **Autoscaling.**  An optional deterministic
  :class:`~repro.fleet.autoscale.Autoscaler` grows/shrinks the ready
  shard set on queue-depth + grant-wait signals, paying the serverless
  cold-start cost for each scale-out.

Outputs are tail-first: :class:`FleetReport` carries p50/p99/p999 per
tenant and fleet-wide, the scaling timeline, and a canonical payload
(sha256-digestable for determinism checks and journal resume).  The
``dm_fleet_slo`` DMV (:mod:`repro.engine.statistics`) renders the same
data as a management view.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field, replace
from typing import Dict, Generator, List, Optional, Sequence, Tuple

from repro.backends import DEFAULT_ROUTER_BACKENDS, make_backend
from repro.core.knobs import ResourceAllocation
from repro.errors import ConfigurationError, FaultInjectionError
from repro.fleet.autoscale import Autoscaler, AutoscalePolicy
from repro.fleet.health import FailoverController, HeartbeatMonitor
from repro.fleet.replicas import Replica, ReplicaGroup
from repro.hardware.machine import Machine, MachineSpec
from repro.sim.process import Simulator, Timeout
from repro.sim.randomness import RandomStreams, draw_index, weight_cdf
from repro.sim.stats import Cdf
from repro.workloads import make_workload
from repro.workloads.arrivals import ArrivalSpec

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
    burst_allowance: float = 0.0    #: bucket capacity (default 2x rate)

    def __post_init__(self):
        if self.weight <= 0:
            raise ConfigurationError(f"tenant {self.name}: bad weight")
        if self.priority < 0:
            raise ConfigurationError(f"tenant {self.name}: bad priority")
        if self.slo_p99_ms <= 0:
            raise ConfigurationError(f"tenant {self.name}: bad SLO")
        if self.rate_limit_tps < 0 or self.burst_allowance < 0:
            raise ConfigurationError(f"tenant {self.name}: bad governance")


def default_tenants(count: int, slo_p99_ms: float = 250.0,
                    ) -> Tuple[TenantSpec, ...]:
    """A mixed-priority tenant population: priorities cycle 0/1/2 so any
    population has protected, standard, and best-effort classes."""
    if count < 1:
        raise ConfigurationError("need at least one tenant")
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
    backends: Tuple[str, ...] = DEFAULT_ROUTER_BACKENDS
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
        if self.shards < 1:
            raise ConfigurationError("a fleet needs at least one shard")
        if not self.backends:
            raise ConfigurationError("need at least one backend personality")
        if self.duration <= 0:
            raise ConfigurationError("duration must be positive")
        if self.capacity_per_shard < 1:
            raise ConfigurationError("capacity must be >= 1")
        if self.replication < 1:
            raise ConfigurationError("replication must be >= 1")
        if not self.tenants:
            raise ConfigurationError("need at least one tenant")
        names = [t.name for t in self.tenants]
        if len(set(names)) != len(names):
            raise ConfigurationError("tenant names must be unique")


class _TokenBucket:
    """Per-tenant governance bucket: lazy sim-clock refill (the
    :class:`~repro.fleet.hedging.RetryBudget` construction, one bucket
    per governed tenant so rates differ)."""

    def __init__(self, sim: Simulator, rate_tps: float, capacity: float):
        self._sim = sim
        self.rate = rate_tps
        self.capacity = capacity
        self._tokens = capacity
        self._at = sim.now
        self.denied = 0

    def try_spend(self) -> bool:
        now = self._sim.now
        self._tokens = min(self.capacity,
                           self._tokens + (now - self._at) * self.rate)
        self._at = now
        if self._tokens < 1.0:
            self.denied += 1
            return False
        self._tokens -= 1.0
        return True


class _Shard:
    """One shard: an engine (or replica group) plus admission state."""

    def __init__(self, index: int, machines: List[Machine],
                 engines: List, backend: str,
                 group: Optional[ReplicaGroup],
                 monitor: Optional[HeartbeatMonitor],
                 ready_at: float):
        self.index = index
        self.machines = machines
        self._engines = engines
        self.backend = backend
        self.group = group
        self.monitor = monitor
        self.active = True          #: routed to (False once scaled in)
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
        return self._engines[0]

    @property
    def machine(self) -> Machine:
        if self.group is not None and self.group.primary is not None:
            return self.group.primary.machine
        return self.machines[0]

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
    """One tenant's fleet-SLO outcome (primitives only, so reports
    reconstruct losslessly from journal payloads)."""

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
    def shed_fraction(self) -> float:
        if self.arrivals == 0:
            return 0.0
        return self.shed / self.arrivals

    @property
    def slo_ok(self) -> bool:
        """SLO attainment: NaN p99 (a tenant with traffic but no
        completions) counts as a violation, not a pass."""
        if self.arrivals == 0:
            return True
        if math.isnan(self.p99_ms):
            return False
        return self.p99_ms <= self.slo_p99_ms

    def payload(self) -> Dict[str, object]:
        return {
            "name": self.name, "priority": self.priority,
            "arrivals": self.arrivals, "completed": self.completed,
            "shed": self.shed, "governed": self.governed,
            "goodput_tps": self.goodput_tps,
            "p50_ms": self.p50_ms, "p99_ms": self.p99_ms,
            "p999_ms": self.p999_ms, "slo_p99_ms": self.slo_p99_ms,
            "first_shed_at": self.first_shed_at,
        }

    @classmethod
    def from_payload(cls, payload: Dict) -> "TenantStats":
        return cls(**{k: payload[k] for k in (
            "name", "priority", "arrivals", "completed", "shed", "governed",
            "goodput_tps", "p50_ms", "p99_ms", "p999_ms", "slo_p99_ms",
            "first_shed_at",
        )})


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

    def to_payload(self) -> Dict[str, object]:
        """Canonical primitive view (journal lines, digests)."""
        return {
            "shards_initial": self.shards_initial,
            "shards_peak": self.shards_peak,
            "shards_final": self.shards_final,
            "offered_tps": self.offered_tps,
            "trace": self.trace,
            "duration": self.duration,
            "seed": self.seed,
            "arrivals": self.arrivals,
            "completed": self.completed,
            "shed": self.shed,
            "governed": self.governed,
            "p50_ms": self.p50_ms,
            "p99_ms": self.p99_ms,
            "p999_ms": self.p999_ms,
            "tenants": {name: stats.payload()
                        for name, stats in sorted(self.tenants.items())},
            "per_shard": self.per_shard,
            "scaling": self.scaling,
            "reaction_seconds": self.reaction_seconds,
            "episodes": self.episodes,
            "first_refusal_by_priority": {
                str(priority): at
                for priority, at in sorted(self.first_refusal_by_priority.items())
            },
        }

    @classmethod
    def from_payload(cls, payload: Dict) -> "FleetReport":
        tenants = {name: TenantStats.from_payload(stats)
                   for name, stats in payload["tenants"].items()}
        return cls(
            shards_initial=payload["shards_initial"],
            shards_peak=payload["shards_peak"],
            shards_final=payload["shards_final"],
            offered_tps=payload["offered_tps"],
            trace=payload["trace"],
            duration=payload["duration"],
            seed=payload["seed"],
            arrivals=payload["arrivals"],
            completed=payload["completed"],
            shed=payload["shed"],
            governed=payload["governed"],
            p50_ms=payload["p50_ms"],
            p99_ms=payload["p99_ms"],
            p999_ms=payload["p999_ms"],
            tenants=tenants,
            per_shard=list(payload["per_shard"]),
            scaling=dict(payload["scaling"]),
            reaction_seconds=payload["reaction_seconds"],
            episodes=list(payload.get("episodes", [])),
            first_refusal_by_priority={
                int(priority): at
                for priority, at in payload.get(
                    "first_refusal_by_priority", {}).items()
            },
        )

    def digest(self) -> str:
        """Bit-exact fingerprint of everything a client observed —
        sha256 over the canonical payload, the chaos-style determinism
        handle."""
        from repro.core.resultcache import canonical_json

        return hashlib.sha256(
            canonical_json(self.to_payload()).encode()
        ).hexdigest()


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
        self._buckets: Dict[str, _TokenBucket] = {}
        for tenant in spec.tenants:
            if tenant.rate_limit_tps > 0:
                capacity = tenant.burst_allowance or 2.0 * tenant.rate_limit_tps
                self._buckets[tenant.name] = _TokenBucket(
                    self.sim, tenant.rate_limit_tps, capacity)
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
        backend = make_backend(backend_name)
        machines, engines = [], []
        for r in range(spec.replication):
            machine = Machine(
                spec=MachineSpec(),
                seed=self.streams.fork(f"shard{index}.replica{r}").seed,
                shared_sim=self.sim,
            )
            self.allocation.apply_to(machine)
            machines.append(machine)
            engines.append(backend.build_engine(machine, self.workload,
                                                self.allocation))
        group = monitor = None
        if spec.replication > 1:
            group = ReplicaGroup(self.sim, [
                Replica(index=r, machine=machines[r], engine=engines[r])
                for r in range(spec.replication)
            ])
            monitor = HeartbeatMonitor(group)
            controller = FailoverController(group, monitor)
            monitor.install()
            controller.install()
        shard = _Shard(index, machines, engines, backend_name, group,
                       monitor, ready_at)
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
        class (deterministic: ties break to the lowest index)."""
        best = None
        for shard in self.ready_shards():
            if shard.in_flight >= priority_watermark(priority,
                                                     self.capacity_per_shard):
                continue
            if best is None or shard.in_flight < best.in_flight:
                best = shard
        return best

    # -- traffic -----------------------------------------------------------------

    def _arrivals_proc(self, until: float) -> Generator:
        spec = self.spec
        rng = self.streams.get("arrivals")
        trace_rng = self.streams.get("arrivals.trace")
        trace = spec.arrival.build_trace(until, trace_rng)
        offered = spec.arrival.offered_tps
        deterministic = spec.arrival.trace == "deterministic"
        peak = trace.peak_rate() if trace is not None else offered
        types = self.workload.transaction_types()
        type_cdf = weight_cdf([t.weight for t in types])
        tenants = spec.tenants
        while self.sim.now < until:
            gap = (1.0 / offered if deterministic
                   else float(rng.exponential(1.0 / peak)))
            yield Timeout(gap)
            if self.sim.now >= until:
                break
            if trace is not None:
                if float(rng.uniform()) * peak > trace.rate_at(self.sim.now):
                    continue
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
            spec = episode.spec
            shard.machine.ssd.apply_brownout(
                read_factor=spec.read_factor,
                write_factor=spec.write_factor,
                latency_factor=spec.latency_factor,
            )
            yield Timeout(episode.duration)
            shard.machine.ssd.clear_brownout()
        elif episode.kind in ("crash", "partition"):
            if shard.group is not None:
                primary = shard.group.primary
                if primary is not None and primary.up:
                    shard.group.note_primary_down()
                    if episode.kind == "crash":
                        primary.crash()
                        yield Timeout(episode.duration)
                        primary.restart()
                    else:
                        primary.partitioned = True
                        yield Timeout(episode.duration)
                        primary.fence()
                        primary.partitioned = False
                    yield from shard.group.rejoin(primary)
            else:
                # Unreplicated shard: the outage takes the whole shard
                # out of rotation — the autoscaler's problem now.
                shard.down = True
                yield Timeout(episode.duration)
                shard.down = False
        elif episode.kind == "storm":
            spec = episode.spec
            engine = shard.engine
            if engine is not None:
                for q in range(spec.queries):
                    self.sim.spawn(
                        self._storm_query(engine.semaphore, spec),
                        name=f"fleet-storm-{shard.index}-{q}",
                    )
            yield Timeout(episode.duration)
        entry["healed_at"] = self.sim.now
        self.episode_log.append(entry)

    def _storm_query(self, semaphore, spec) -> Generator:
        from repro.errors import GrantTimeoutError

        nbytes = semaphore.pool_bytes * spec.pool_fraction
        try:
            ticket = yield from semaphore.acquire(nbytes, name="fleet-storm")
        except GrantTimeoutError:
            return None
        try:
            yield Timeout(spec.hold_seconds)
        finally:
            semaphore.release(ticket)
        return None

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
        return self._report()

    # -- reporting ---------------------------------------------------------------

    def _percentile(self, cdf: Cdf, p: float) -> float:
        if len(cdf) == 0:
            return float("nan")
        return cdf.percentile(p) * 1000.0

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
                p50_ms=self._percentile(cdf, 50.0),
                p99_ms=self._percentile(cdf, 99.0),
                p999_ms=self._percentile(cdf, 99.9),
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
            p50_ms=self._percentile(self.latencies, 50.0),
            p99_ms=self._percentile(self.latencies, 99.0),
            p999_ms=self._percentile(self.latencies, 99.9),
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
    from repro.core.resultcache import canonical_json

    return hashlib.sha256(canonical_json(
        {"spec": spec, "schedule": list(schedule)}
    ).encode()).hexdigest()


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
    spec digest and the full report payload — a re-invocation replays
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
                         report=report.to_payload())
    return FleetSweep(
        oversubscription=[float(f) for f in oversubscription],
        reports=reports,  # type: ignore[arg-type]
        resumed=len(done),
    )
