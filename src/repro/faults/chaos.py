"""Seeded chaos scheduling over a replicated fleet.

The chaos scheduler composes the repo's fault vocabulary
(:class:`~repro.faults.spec.CrashPoint`,
:class:`~repro.faults.spec.StorageBrownout`,
:class:`~repro.faults.spec.GrantStorm`,
:class:`~repro.faults.spec.ReplicaPartition`) into a **reproducible
schedule** of episodes against a live
:class:`~repro.fleet.replicas.ReplicaGroup` — N engine replicas on one
simulated clock with heartbeat failure detection
(:mod:`repro.fleet.health`) and hedged reads
(:mod:`repro.fleet.hedging`) — while writer and reader client processes
drive load.  Everything stochastic draws from
:class:`~repro.sim.randomness.RandomStreams` named streams derived from
one seed, so a schedule replays bit-identically: same seed, same
faults, same interleavings, same report digest.

After the run the :class:`ChaosReport` checks four invariants:

(a) **durability** — no acknowledged durable write lost: every LSN the
    group acknowledged is durable on at least one surviving replica
    (:meth:`~repro.fleet.replicas.ReplicaGroup.audit_durability`);
(b) **bounded unavailability** — every failover's promotion window
    (fault observed → new primary installed) fits inside the failure
    detector's detection + promotion budget
    (:meth:`~repro.fleet.health.FailoverController.availability_bound`);
(c) **hedging helps** — with ``compare_hedging``, client p99 read
    latency under hedging is no worse than the same seeded schedule
    with hedging disabled (injected stragglers are what hedges dodge);
(d) **determinism** — an empty schedule replays to a bit-identical
    report digest, i.e. the fleet machinery itself adds no
    nondeterminism over the seed engines.

Episodes are laid out in disjoint time slots, so at most one replica is
faulted at a time and a 3-replica group never loses its quorum to the
scheduler itself — which is what makes (a) and (b) *hard* gates rather
than statistical ones.

The fleet is built by :func:`~repro.fleet.replicas.build_replica_group`,
crashes and partitions run
:meth:`~repro.fleet.replicas.ReplicaGroup.outage`, brownouts
:func:`~repro.faults.injector.hold_brownout`, and storms
:func:`~repro.faults.injector.spawn_grant_storm` — the same pieces
:mod:`repro.fleet.cluster` and the per-run fault injector use.  This
module adds only the choice of target and the per-episode durability
audit.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Dict, Generator, List, Optional, Sequence, Tuple

from repro.backends.base import DEFAULT_BACKEND, make_backend
from repro.core.knobs import ResourceAllocation
from repro.core.resultcache import canonical_digest
from repro.errors import ChaosInvariantError, FaultInjectionError
from repro.faults.injector import hold_brownout, spawn_grant_storm
from repro.faults.spec import (
    CrashPoint,
    FaultSpec,
    GrantStorm,
    ReplicaPartition,
    StorageBrownout,
)
from repro.fleet.hedging import HedgedReader, RetryBudget
from repro.fleet.replicas import build_replica_group
from repro.sim.process import Simulator, Timeout
from repro.sim.randomness import RandomStreams
from repro.units import KIB
from repro.workloads import make_workload

#: Named fault mixes the CLI / CI matrix selects by name.
SCENARIOS: Dict[str, Tuple[str, ...]] = {
    "failover": ("crash",),
    "hedging": ("brownout",),
    "partition": ("partition",),
    "storm": ("storm",),
    "mixed": ("crash", "brownout", "partition", "storm"),
    "none": (),
}

#: The client load every chaos run drives: writer and reader processes
#: with exponential think times (mean interval, seconds) against an ASDB
#: replica group on the seed engine.  Reads are
#: :data:`~repro.fleet.hedging.READ_BYTES` point reads.
WORKLOAD = "asdb"
SCALE_FACTOR = 10
WRITERS = 4
READERS = 4
WRITE_INTERVAL = 0.02
READ_INTERVAL = 0.01
WRITE_BYTES = 16 * KIB

#: Tolerance on invariant (c): hedged p99 may exceed unhedged p99 by at
#: most this relative slack (hedging must never *hurt* the tail, but two
#: different interleavings can tie to within scheduling noise).
HEDGING_P99_TOLERANCE = 1.02


@dataclass(frozen=True)
class ChaosEpisode:
    """One scheduled fault: what, when, against which replica."""

    at: float
    kind: str  # "crash" | "brownout" | "partition" | "storm"
    replica: int
    duration: float
    spec: FaultSpec


@dataclass(frozen=True)
class ChaosConfig:
    """Everything a chaos run needs; hashable and cache-canonical."""

    seed: int = 0
    duration: float = 3.0
    replicas: int = 3
    scenario: str = "mixed"
    episodes: int = 3
    hedging: bool = True

    def __post_init__(self):
        # ``not <valid>``: a NaN duration fails here, not in the event loop.
        if not 0 < self.duration < math.inf:
            raise FaultInjectionError(
                f"ChaosConfig.duration must be finite and > 0, got {self.duration!r}")
        if not self.replicas >= 2:
            raise FaultInjectionError(
                f"ChaosConfig.replicas must be >= 2, got {self.replicas!r}")
        if not self.episodes >= 0:
            raise FaultInjectionError(
                f"ChaosConfig.episodes must be >= 0, got {self.episodes!r}")
        if self.scenario not in SCENARIOS:
            raise FaultInjectionError(
                f"ChaosConfig.scenario must be one of {sorted(SCENARIOS)}, "
                f"got {self.scenario!r}")


def generate_schedule(
    seed: int,
    duration: float,
    kinds: Sequence[str],
    replicas: int = 3,
    episodes: int = 3,
) -> Tuple[ChaosEpisode, ...]:
    """Deterministic episode schedule from one seed.

    Episodes land in disjoint slots inside ``[0.2, 0.9] * duration``:
    injection in the first 30% of each slot, heal by 80% — so one
    episode's fault is always healed before the next fires, and the
    scheduler itself can never take two replicas down at once.
    """
    if not kinds or episodes == 0:
        return ()
    rng = RandomStreams(seed).fork("chaos").get("schedule")
    window_start = 0.2 * duration
    window = 0.7 * duration
    slot = window / episodes
    out: List[ChaosEpisode] = []
    for i in range(episodes):
        at = window_start + i * slot + float(rng.uniform(0.0, 0.3)) * slot
        length = float(rng.uniform(0.25, 0.5)) * slot
        kind = kinds[int(rng.integers(len(kinds)))]
        target = int(rng.integers(replicas))
        if kind == "crash":
            spec: FaultSpec = CrashPoint(at=at)
        elif kind == "brownout":
            # A GC-stall-style straggler: point-read latency inflates
            # ~20x while streaming bandwidth degrades moderately — the
            # client-visible tail that hedged reads exist to dodge.
            spec = StorageBrownout(start=at, duration=length,
                                   read_factor=0.05, write_factor=0.5,
                                   latency_factor=20.0)
        elif kind == "partition":
            spec = ReplicaPartition(start=at, duration=length, replica=target)
        elif kind == "storm":
            spec = GrantStorm(at=at, queries=6, pool_fraction=0.2,
                              hold_seconds=length)
        else:
            raise FaultInjectionError(f"unknown chaos kind {kind!r}")
        out.append(ChaosEpisode(at=at, kind=kind, replica=target,
                                duration=length, spec=spec))
    return tuple(out)


def episode_payload(episode: ChaosEpisode) -> Dict[str, object]:
    """A journal/CLI-friendly primitive view of one episode."""
    return {
        "at": episode.at,
        "kind": episode.kind,
        "replica": episode.replica,
        "duration": episode.duration,
    }


class _FleetRun:
    """One seeded execution: fleet, clients, episode drivers, outcome."""

    def __init__(self, config: ChaosConfig,
                 schedule: Tuple[ChaosEpisode, ...], hedging: bool):
        self.config = config
        self.schedule = schedule
        self.sim = Simulator()
        self.streams = RandomStreams(config.seed).fork("chaos-clients")
        self.group, self.monitor, self.controller = build_replica_group(
            self.sim,
            [self.streams.fork(f"replica{i}").seed
             for i in range(config.replicas)],
            make_workload(WORKLOAD, SCALE_FACTOR),
            make_backend(DEFAULT_BACKEND),
            ResourceAllocation(),
        )
        self.reader = HedgedReader(
            self.group,
            monitor=self.monitor,
            # A brownout episode needs roughly one hedge per affected
            # read until the slowdown detector reroutes placement; the
            # default bucket is sized for steady state, not chaos soaks.
            budget=RetryBudget(self.sim, capacity=64.0, refill_per_s=32.0),
            enabled=hedging,
        )
        self.write_latencies: List[float] = []
        self.read_latencies: List[float] = []
        self.episode_log: List[Dict[str, object]] = []

    # -- client load -------------------------------------------------------------

    def _writer(self, wid: int, ids) -> Generator:
        rng = self.streams.get(f"writer{wid}")
        while True:
            yield Timeout(float(rng.exponential(WRITE_INTERVAL)))
            txn_id = next(ids)
            start = self.sim.now
            yield from self.group.submit_write(WRITE_BYTES, txn_id=txn_id)
            self.write_latencies.append(self.sim.now - start)

    def _reader_proc(self, rid: int) -> Generator:
        rng = self.streams.get(f"reader{rid}")
        tenant = f"tenant{rid % 2}"
        while True:
            yield Timeout(float(rng.exponential(READ_INTERVAL)))
            latency = yield from self.reader.read(tenant=tenant)
            self.read_latencies.append(latency)

    # -- episode drivers ---------------------------------------------------------

    def _drive(self, episode: ChaosEpisode) -> Generator:
        yield Timeout(episode.at)
        replica = self.group.replicas[episode.replica]
        if episode.kind == "brownout":
            # Brownouts chase the *current* primary: that is the replica
            # on the unhedged read path, so the straggler is guaranteed
            # to be client-visible — the adversarial placement a chaos
            # scheduler should pick.
            replica = self.group.primary or replica
        entry = {"kind": episode.kind, "replica": replica.index,
                 "at": self.sim.now, "duration": episode.duration}
        if episode.kind in ("crash", "partition"):
            yield from self.group.outage(replica, episode.kind,
                                         episode.duration)
        elif episode.kind == "brownout":
            yield from hold_brownout(replica.machine.ssd, episode.spec)
        elif episode.kind == "storm":
            spawn_grant_storm(self.sim, replica.engine.semaphore,
                              episode.spec,
                              f"chaos-storm-{episode.replica}")
            yield Timeout(episode.duration)
        audit = self.group.audit_durability()
        entry["healed_at"] = self.sim.now
        entry["acked"] = audit["acked"]
        entry["lost"] = audit["lost"]
        self.episode_log.append(entry)

    # -- execution ---------------------------------------------------------------

    def run(self) -> None:
        ids = itertools.count()
        for wid in range(WRITERS):
            self.sim.spawn(self._writer(wid, ids), name=f"chaos-writer-{wid}")
        for rid in range(READERS):
            self.sim.spawn(self._reader_proc(rid), name=f"chaos-reader-{rid}")
        for i, episode in enumerate(self.schedule):
            self.sim.spawn(self._drive(episode), name=f"chaos-episode-{i}")
        self.sim.run(until=self.config.duration)

    # -- outcome -----------------------------------------------------------------

    def read_p99(self) -> Optional[float]:
        if not self.read_latencies:
            return None
        return self.reader.latencies.percentile(99.0)

    def failover_windows(self) -> List[float]:
        return [event["at"] - event["failed_at"]
                for event in self.group.failovers]

    def digest(self) -> str:
        """Bit-exact fingerprint of everything a client observed."""
        payload = {
            "acked": sorted(self.group.acked_records),
            "epoch": self.group.epoch,
            "fleet": self.group.summary(),
            "hedging": self.reader.summary(),
            "write_latencies": list(self.write_latencies),
            "read_latencies": list(self.read_latencies),
            "failovers": self.group.failovers,
        }
        return canonical_digest(payload)


@dataclass
class ChaosReport:
    """Outcome + invariant verdicts of one seeded chaos run.

    ``invariants`` maps invariant name to ``True`` (held), ``False``
    (violated), or ``None`` (not applicable to this run — e.g. the
    hedging comparison was not requested).
    """

    config: ChaosConfig
    schedule: Tuple[ChaosEpisode, ...]
    episodes: List[Dict[str, object]]
    fleet: Dict[str, float]
    hedging: Dict[str, float]
    audit: Dict[str, object]
    failover_windows: List[float]
    availability_bound: float
    promotions: int
    digest: str
    read_p99: Optional[float]
    unhedged_read_p99: Optional[float]
    invariants: Dict[str, Optional[bool]] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return all(v is not False for v in self.invariants.values())

    def violations(self) -> List[str]:
        return [name for name, verdict in sorted(self.invariants.items())
                if verdict is False]

    def raise_on_violation(self) -> None:
        bad = self.violations()
        if bad:
            raise ChaosInvariantError(
                f"chaos run (seed={self.config.seed}, "
                f"scenario={self.config.scenario}) violated: {', '.join(bad)}"
            )

    def summary_lines(self) -> List[str]:
        """The run as greppable lines for the CLI and the CI gates: the
        schedule, the fleet and hedging counters, one line per
        invariant, and a closing ``chaos-complete:`` line."""
        config, fleet, hedging = self.config, self.fleet, self.hedging
        lines = [f"chaos-schedule: seed={config.seed} scenario={config.scenario} "
                 f"episodes={len(self.schedule)}"]
        lines += [f"  t={episode.at:7.3f}s {episode.kind:<9} replica={episode.replica} "
                  f"duration={episode.duration:.3f}s" for episode in self.schedule]
        lines.append(f"  writes acked={int(fleet.get('writes_acked', 0))} "
                     f"failovers={int(fleet.get('failovers', 0))} "
                     f"epoch={int(fleet.get('epoch', 0))} "
                     f"unavailable={fleet.get('unavailable_seconds', 0.0):.3f}s")
        lines.append(f"  reads={int(hedging.get('reads', 0))} "
                     f"hedges={int(hedging.get('hedges', 0))} "
                     f"hedge_wins={int(hedging.get('hedge_wins', 0))}")
        if self.failover_windows:
            lines.append(f"  failover windows: worst={max(self.failover_windows):.3f}s "
                         f"bound={self.availability_bound:.3f}s")
        if self.read_p99 is not None:
            line = f"  read p99: {self.read_p99 * 1000.0:.2f}ms"
            if self.unhedged_read_p99 is not None:
                line += f" (unhedged {self.unhedged_read_p99 * 1000.0:.2f}ms)"
            lines.append(line)
        for name, verdict in sorted(self.invariants.items()):
            state = "n/a" if verdict is None else ("ok" if verdict else "VIOLATED")
            lines.append(f"invariant {name}: {state}")
        lines.append(f"chaos-complete: seed={config.seed} ok={self.ok} "
                     f"digest={self.digest[:16]}")
        return lines


def run_chaos(
    config: ChaosConfig,
    journal=None,
    compare_hedging: bool = False,
    check_determinism: Optional[bool] = None,
) -> ChaosReport:
    """Execute one seeded chaos schedule and audit its invariants.

    ``journal`` is any object with a ``note(event, **fields)`` method
    (e.g. :class:`~repro.core.journal.SweepJournal`) — the schedule,
    every episode, every failover, and the final verdicts are recorded
    so an interrupted soak replays from evidence.  ``compare_hedging``
    re-runs the identical schedule with hedging disabled to judge
    invariant (c); ``check_determinism`` (default: only when the
    schedule is empty) re-runs and compares report digests for
    invariant (d).
    """
    kinds = SCENARIOS[config.scenario]
    schedule = generate_schedule(config.seed, config.duration, kinds,
                                 replicas=config.replicas,
                                 episodes=config.episodes)
    if check_determinism is None:
        check_determinism = not schedule
    if journal is not None:
        journal.note("chaos-schedule", seed=config.seed,
                     scenario=config.scenario,
                     episodes=[episode_payload(e) for e in schedule])

    run = _FleetRun(config, schedule, hedging=config.hedging)
    run.run()
    audit = run.group.audit_durability()
    windows = run.failover_windows()
    bound = run.controller.availability_bound()
    digest = run.digest()

    invariants: Dict[str, Optional[bool]] = {
        "durability": not audit["lost"],
        "availability": all(w <= bound for w in windows),
        "hedging-p99": None,
        "determinism": None,
    }

    unhedged_p99: Optional[float] = None
    if compare_hedging and schedule:
        baseline = _FleetRun(config, schedule, hedging=False)
        baseline.run()
        unhedged_p99 = baseline.read_p99()
        baseline.sim.close()
        hedged_p99 = run.read_p99()
        if hedged_p99 is not None and unhedged_p99 is not None:
            invariants["hedging-p99"] = (
                hedged_p99 <= unhedged_p99 * HEDGING_P99_TOLERANCE + 1e-6
            )
    if check_determinism:
        replay = _FleetRun(config, schedule, hedging=config.hedging)
        replay.run()
        invariants["determinism"] = replay.digest() == digest
        replay.sim.close()

    if journal is not None:
        for entry in run.episode_log:
            journal.note("chaos-episode", **entry)
        for event in run.group.failovers:
            journal.note("failover", **event)
        journal.note(
            "chaos-report",
            digest=digest,
            invariants={k: v for k, v in invariants.items()},
            failover_windows=windows,
            availability_bound=bound,
            unavailable_seconds=run.group.summary()["unavailable_seconds"],
        )

    report = ChaosReport(
        config=config,
        schedule=schedule,
        episodes=run.episode_log,
        fleet=run.group.summary(),
        hedging=run.reader.summary(),
        audit=audit,
        failover_windows=windows,
        availability_bound=bound,
        promotions=run.controller.promotions,
        digest=digest,
        read_p99=run.read_p99(),
        unhedged_read_p99=unhedged_p99,
        invariants=invariants,
    )
    # As in FleetCluster.run: closing frees each run's fleet on return.
    run.sim.close()
    return report


def chaos_fault_grid(configs, seed: int = 0,
                     kinds: Sequence[str] = ("crash", "brownout", "storm")):
    """Attach one reproducible simulation fault to every sweep config.

    For chaos-under-sweep testing (journal resume after an interrupted
    chaos sweep): each :class:`~repro.core.experiment.ExperimentConfig`
    gains one fault drawn from a named stream under *seed*, so two calls
    with the same arguments produce byte-identical fault tuples — and
    therefore identical config digests and journal ``chaos`` notes.
    Only single-engine-injectable kinds are allowed (the sweep path runs
    one engine per point, so ``partition`` has no meaning there).
    """
    import dataclasses

    allowed = {"crash", "brownout", "storm"}
    bad = set(kinds) - allowed
    if bad:
        raise FaultInjectionError(
            f"sweep-injectable chaos kinds are {sorted(allowed)}; got {sorted(bad)}"
        )
    if not kinds:
        raise FaultInjectionError("chaos_fault_grid needs at least one kind")
    rng = RandomStreams(seed).fork("chaos-sweep").get("faults")
    out = []
    for config in configs:
        kind = kinds[int(rng.integers(len(kinds)))]
        at = float(rng.uniform(0.2, 0.5)) * config.duration
        length = float(rng.uniform(0.1, 0.3)) * config.duration
        if kind == "crash":
            spec: FaultSpec = CrashPoint(at=at)
        elif kind == "brownout":
            spec = StorageBrownout(start=at, duration=length,
                                   read_factor=0.2, write_factor=0.5,
                                   latency_factor=4.0)
        else:
            spec = GrantStorm(at=at, queries=4, pool_fraction=0.2,
                              hold_seconds=length)
        out.append(dataclasses.replace(config,
                                       faults=config.faults + (spec,)))
    return out
