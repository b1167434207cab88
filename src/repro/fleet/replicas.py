"""Replicated shard groups: quorum WAL shipping over SqlEngine replicas.

A :class:`ReplicaGroup` wraps N :class:`~repro.engine.engine.SqlEngine`
instances — each on its own :class:`~repro.hardware.machine.Machine`,
all sharing one simulator clock — with primary/secondary roles.  Writes
commit on the primary's :class:`~repro.engine.wal.WriteAheadLog`, ship
the resulting record to every reachable secondary over the LSN stream
(:meth:`~repro.engine.wal.WriteAheadLog.apply_shipped`), and are
acknowledged to the client only once durable on a **majority** of
replicas.  That synchronous-quorum rule is what makes the chaos
scheduler's first invariant hold by construction: an acknowledged write
is durable on ``N//2 + 1`` replicas, so any minority of failures leaves
at least one surviving copy, and promotion (which picks the
max-durable-LSN eligible replica) always lands on a history containing
every acknowledged record.

Failure handling is epoch-fenced: every promotion bumps the group epoch,
and a commit that started under an older epoch — or whose primary
crashed or was fenced mid-flush — is *not* acknowledged; the client
retries against the new primary (duplicate records are the idempotent
retry model, exactly as in production quorum systems).  A rejoining
replica first truncates any divergent tail (records durable only on the
old primary, never acknowledged), then catches up: a bulk restore up to
the primary's published checkpoint LSN, then the streamed tail.
"""

from __future__ import annotations

from typing import Dict, Generator, List, Optional, Sequence, Tuple

from repro.engine.engine import SqlEngine
from repro.engine.wal import WalRecord
from repro.errors import FaultInjectionError, RecoveryError
from repro.faults.recovery import RecoveryResult, WalImage, recover, \
    verify_committed_durable
from repro.fleet.health import FailoverController, HeartbeatMonitor
from repro.hardware.machine import Machine, MachineSpec
from repro.sim.process import Simulator, Timeout

ROLE_PRIMARY = "primary"
ROLE_SECONDARY = "secondary"


class Replica:
    """One engine instance in a replica group, plus its fault state."""

    def __init__(self, index: int, machine: Machine, engine: SqlEngine,
                 role: str = ROLE_SECONDARY):
        self.index = index
        self.machine = machine
        self.engine = engine
        self.role = role
        self.up = True
        self.fenced = False
        self.partitioned = False
        self.recoveries = 0
        self.crash_image: Optional[WalImage] = None

    @property
    def wal(self):
        return self.engine.wal

    @property
    def durable_lsn(self) -> int:
        return self.engine.wal.durable_lsn

    @property
    def checkpoint_lsn(self) -> int:
        return self.engine.checkpoint.checkpoint_lsn

    @property
    def reachable(self) -> bool:
        """Up and on the majority side of the network."""
        return self.up and not self.partitioned

    @property
    def eligible(self) -> bool:
        """Allowed to hold (or be promoted to) the primary role."""
        return self.reachable and not self.fenced

    def fence(self) -> None:
        """Strip write authority; cleared only by a completed rejoin."""
        self.fenced = True

    def truncate_to(self, lsn: int) -> None:
        """Drop the WAL records above *lsn*, and any checkpoint claim on
        them: a checkpoint LSN above the durable LSN would make the
        next crash image claim work the log no longer holds."""
        self.wal.truncate_to(lsn)
        checkpoint = self.engine.checkpoint
        checkpoint.checkpoint_lsn = min(checkpoint.checkpoint_lsn,
                                        self.durable_lsn)

    def crash(self) -> RecoveryResult:
        """Crash now: freeze the durable image, replay, verify, go down.

        Runs the same ARIES-style recovery as the single-engine
        :class:`~repro.faults.injector.FaultInjector` crash driver —
        every durably-committed transaction must be recovered — and
        keeps the image so :meth:`restart` can discard any device write
        that completed after the crash instant.
        """
        wal = self.wal
        committed = tuple(r.txn_id for r in wal.durable_records if r.txn_id >= 0)
        image = WalImage.capture(wal, checkpoint_lsn=self.checkpoint_lsn)
        result = recover(image)
        verify_committed_durable(committed, result)
        self.crash_image = image
        self.up = False
        self.fence()
        return result

    def restart(self) -> None:
        """Come back up with exactly the durable state captured at crash.

        An in-flight flush or shipped apply that finished *after* the
        crash instant would otherwise leave ghost records: on real
        hardware that write never hit the platter, so the restart
        truncates back to the crash image.  The replica stays fenced
        until :meth:`ReplicaGroup.rejoin` completes catch-up.
        """
        if self.crash_image is not None:
            self.truncate_to(self.crash_image.durable_lsn)
            self.crash_image = None
        self.up = True
        self.recoveries += 1


class ReplicaGroup:
    """N replicas, one primary, synchronous majority-quorum replication."""

    def __init__(self, sim: Simulator, replicas: List[Replica],
                 name: str = "shard0", retry_interval: float = 0.005):
        if not replicas:
            raise FaultInjectionError("a replica group needs replicas")
        self._sim = sim
        self.name = name
        self.replicas = list(replicas)
        self.retry_interval = retry_interval
        self.replicas[0].role = ROLE_PRIMARY
        for replica in self.replicas[1:]:
            replica.role = ROLE_SECONDARY
        self.epoch = 0
        #: Acknowledged records by LSN — the durability obligation the
        #: chaos audit checks against surviving replicas.
        self.acked_records: Dict[int, WalRecord] = {}
        self.failovers: List[Dict[str, float]] = []
        #: Sim time the current primary was observed failed (set by the
        #: fault driver / failure detector; cleared when a failover
        #: completes) — feeds the bounded-unavailability invariant.
        self.primary_down_at: Optional[float] = None
        #: Client-observed write outage windows (seconds each).
        self.unavailability: List[float] = []
        self._outage_started: Optional[float] = None
        # -- counters --------------------------------------------------------
        self.writes_submitted = 0
        self.writes_acked = 0
        self.write_retries = 0
        self.fenced_rejections = 0
        self.records_shipped = 0
        self.checkpoint_catchups = 0
        self.catchup_records = 0
        self.log_truncations = 0

    # -- membership --------------------------------------------------------------

    @property
    def primary(self) -> Optional[Replica]:
        for replica in self.replicas:
            if replica.role == ROLE_PRIMARY:
                return replica
        return None

    @property
    def quorum(self) -> int:
        return len(self.replicas) // 2 + 1

    @property
    def reachable_count(self) -> int:
        return sum(1 for r in self.replicas if r.reachable)

    @property
    def writable(self) -> bool:
        primary = self.primary
        return (primary is not None and primary.eligible
                and self.reachable_count >= self.quorum)

    def eligible_candidates(self) -> List[Replica]:
        return [r for r in self.replicas if r.eligible]

    def install_primary(self, candidate: Replica) -> None:
        """Fence the old primary, promote *candidate*, bump the epoch."""
        old = self.primary
        if old is candidate:
            return
        if old is not None:
            old.fence()
            old.role = ROLE_SECONDARY
        candidate.role = ROLE_PRIMARY
        candidate.fenced = False
        self.epoch += 1
        now = self._sim.now
        event = {
            "epoch": float(self.epoch),
            "at": now,
            "old": float(old.index) if old is not None else -1.0,
            "new": float(candidate.index),
            "failed_at": (self.primary_down_at
                          if self.primary_down_at is not None else now),
        }
        self.failovers.append(event)
        self.primary_down_at = None

    def note_primary_down(self) -> None:
        """Record when the primary's fault was injected (invariant (b)
        measures promotion latency from this instant)."""
        if self.primary_down_at is None:
            self.primary_down_at = self._sim.now

    # -- the write path ----------------------------------------------------------

    def submit_write(self, nbytes: float, txn_id: int = -1) -> Generator:
        """Generator: commit on the primary, replicate to quorum, ack.

        Returns the acknowledged :class:`~repro.engine.wal.WalRecord`.
        Blocks — retrying on the group's clock — while the group is not
        writable (primary down/fenced or quorum unreachable); the outage
        is accounted into :attr:`unavailability`.  A commit overtaken by
        a failover (epoch change, fenced or crashed primary) is never
        acknowledged: the client retries against the new primary, and
        the orphaned record is exactly the divergent tail
        :meth:`rejoin` truncates.
        """
        self.writes_submitted += 1
        while True:
            if not self.writable:
                if self._outage_started is None:
                    self._outage_started = self._sim.now
                yield Timeout(self.retry_interval)
                continue
            primary = self.primary
            epoch = self.epoch
            try:
                lsn = yield from primary.wal.commit(nbytes, txn_id=txn_id)
            except FaultInjectionError:
                self.write_retries += 1
                continue
            record = WalRecord(lsn=lsn, nbytes=nbytes, txn_id=txn_id)
            if epoch != self.epoch or primary.fenced or not primary.up:
                # Fencing: the primary lost its role mid-commit, so the
                # record may exist only on a deposed history — never ack.
                self.fenced_rejections += 1
                self.write_retries += 1
                continue
            acks = yield from self._replicate(primary, record)
            if epoch != self.epoch or acks < self.quorum:
                self.write_retries += 1
                continue
            if self._outage_started is not None:
                self.unavailability.append(self._sim.now - self._outage_started)
                self._outage_started = None
            self.writes_acked += 1
            self.acked_records[record.lsn] = record
            return record

    def _replicate(self, primary: Replica, record: WalRecord) -> Generator:
        """Ship *record* to every reachable secondary; count durable acks.

        Shipping includes each target's missing backlog (records it
        skipped while partitioned), so secondary logs stay gap-free —
        the property that makes "max durable LSN" mean "longest
        acknowledged prefix" at promotion time.
        """
        targets = [r for r in self.replicas
                   if r is not primary and r.reachable]
        procs = [
            self._sim.spawn(self._apply(primary, target, record),
                            name=f"ship-{self.name}-{target.index}")
            for target in targets
        ]
        acks = 1  # durable on the primary itself
        for proc in procs:
            yield proc.done
            if proc.result:
                acks += 1
        self.records_shipped += len(targets)
        return acks

    def _apply(self, primary: Replica, target: Replica,
               record: WalRecord) -> Generator:
        backlog = [r for r in primary.wal.durable_records
                   if target.durable_lsn < r.lsn < record.lsn]
        try:
            yield from target.wal.apply_shipped(backlog + [record])
        except (FaultInjectionError, RecoveryError):
            return False
        # A crash or partition during the transfer voids the ack: the
        # target's restart image predates this record.
        return target.reachable

    # -- outages -----------------------------------------------------------------

    def outage(self, replica: Replica, kind: str, duration: float) -> Generator:
        """Generator: take *replica* out for *duration*, heal, rejoin.

        *kind* is ``"crash"`` (crash, then restart from the crash image)
        or ``"partition"`` (cut off, then healed fenced: a replica that
        missed an epoch must not be promotable until :meth:`rejoin`
        proves its log caught up).  A replica that is already down, or
        already partitioned for a partition, is left alone.
        """
        if not replica.up or (kind == "partition" and replica.partitioned):
            return None
        if replica is self.primary:
            self.note_primary_down()
        if kind == "crash":
            replica.crash()
            yield Timeout(duration)
            replica.restart()
        else:
            replica.partitioned = True
            yield Timeout(duration)
            replica.fence()
            replica.partitioned = False
        yield from self.rejoin(replica)
        return None

    # -- rejoin / catch-up -------------------------------------------------------

    def rejoin(self, replica: Replica) -> Generator:
        """Generator: catch a healed replica up and clear its fence.

        Three phases: (1) divergence repair — truncate any records the
        current primary's history does not contain (durable only on a
        deposed primary, by construction never acknowledged); (2)
        checkpoint-based bulk restore of everything up to the primary's
        published checkpoint LSN in one device transfer; (3) streamed
        tail apply of the records above the checkpoint.  Returns the
        number of records caught up.
        """
        primary = self.primary
        if primary is None or replica is primary:
            replica.fenced = False
            return 0
        by_lsn = {r.lsn: r for r in primary.wal.durable_records}
        divergent = [r for r in replica.wal.durable_records
                     if by_lsn.get(r.lsn) != r]
        if divergent:
            replica.truncate_to(divergent[0].lsn - 1)
            self.log_truncations += 1
        missing = [r for r in primary.wal.durable_records
                   if r.lsn > replica.durable_lsn]
        checkpoint = primary.checkpoint_lsn
        bulk = [r for r in missing if r.lsn <= checkpoint]
        tail = [r for r in missing if r.lsn > checkpoint]
        if bulk:
            self.checkpoint_catchups += 1
            yield from replica.wal.apply_shipped(bulk)
        if tail:
            yield from replica.wal.apply_shipped(tail)
        self.catchup_records += len(missing)
        replica.role = ROLE_SECONDARY
        replica.fenced = False
        return len(missing)

    # -- audits / reporting ------------------------------------------------------

    def audit_durability(self) -> Dict[str, object]:
        """Invariant (a): no acknowledged durable write lost.

        Every acknowledged LSN must be durable on at least one surviving
        (up) replica.  With synchronous majority acks this can only fail
        if a majority of replicas lost state simultaneously — which the
        chaos scheduler never injects, so a non-empty ``lost`` list is a
        genuine replication bug, not an expected outcome.
        """
        survivors = [r for r in self.replicas if r.up] or self.replicas
        durable = set()
        for replica in survivors:
            durable.update(r.lsn for r in replica.wal.durable_records)
        lost = sorted(lsn for lsn in self.acked_records if lsn not in durable)
        return {
            "acked": len(self.acked_records),
            "lost": lost,
            "survivors": [r.index for r in survivors],
        }

    def summary(self) -> Dict[str, float]:
        """Counter snapshot (feeds the chaos report and DMVs)."""
        return {
            "replicas": float(len(self.replicas)),
            "epoch": float(self.epoch),
            "writes_acked": float(self.writes_acked),
            "write_retries": float(self.write_retries),
            "fenced_rejections": float(self.fenced_rejections),
            "records_shipped": float(self.records_shipped),
            "failovers": float(len(self.failovers)),
            "checkpoint_catchups": float(self.checkpoint_catchups),
            "catchup_records": float(self.catchup_records),
            "log_truncations": float(self.log_truncations),
            "unavailable_seconds": float(sum(self.unavailability)),
        }


def build_replica_group(
    sim: Simulator,
    seeds: Sequence[int],
    workload,
    backend,
    allocation,
) -> Tuple[ReplicaGroup, Optional[HeartbeatMonitor],
           Optional[FailoverController]]:
    """One replica per seed, each on its own machine on *sim*, grouped.

    Every machine gets *allocation* and an engine from *backend* running
    *workload*.  A group of two or more replicas is guarded: a
    :class:`~repro.fleet.health.HeartbeatMonitor` and a
    :class:`~repro.fleet.health.FailoverController` are installed, and
    returned with it.  A lone replica has neither (both ``None``).
    """
    replicas = []
    for index, seed in enumerate(seeds):
        machine = Machine(spec=MachineSpec(), seed=seed, shared_sim=sim)
        allocation.apply_to(machine)
        engine = backend.build_engine(machine, workload, allocation)
        replicas.append(Replica(index=index, machine=machine, engine=engine))
    group = ReplicaGroup(sim, replicas)
    if len(replicas) < 2:
        return group, None, None
    monitor = HeartbeatMonitor(group)
    controller = FailoverController(group, monitor)
    monitor.install()
    controller.install()
    return group, monitor, controller
