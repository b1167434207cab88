"""Heartbeat-driven failure detection and automatic failover.

Every replica runs a heartbeat process on the shared fleet clock: each
beat performs a small write on the replica's own device before
reporting in, so the signal degrades exactly like the replica does — a
crashed or partitioned replica stops beating entirely, a
browned-out device delays its beats.  The monitor keeps a sliding
window of inter-arrival gaps per replica and scores suspicion
phi-accrual style: *elapsed time since the last beat over the median
observed gap*.  A score crossing ``phi_threshold`` marks the replica
suspected.  A second, orthogonal signal — per-replica service times fed
by the read path (:mod:`repro.fleet.hedging`) — catches replicas that
still beat but serve reads an order of magnitude slower than their
peers (the classic brownout straggler).

The :class:`FailoverController` watches the primary: once suspected, it
fences the old primary immediately (no two-primary window), pauses for
the modeled promotion cost, and installs the max-durable-LSN eligible
candidate via :meth:`~repro.fleet.replicas.ReplicaGroup.install_primary`.
:meth:`HeartbeatMonitor.detection_bound` plus the promotion pause is the
budget the chaos scheduler's bounded-unavailability invariant checks
real failovers against.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Deque, Dict, Generator, List, Optional

from repro.errors import FaultInjectionError
from repro.sim.process import Timeout

if TYPE_CHECKING:  # replicas.py builds monitors, so it imports this module
    from repro.fleet.replicas import Replica, ReplicaGroup

#: Bytes written per heartbeat: big enough to touch the device's write
#: path, small enough to be negligible load.
HEARTBEAT_BYTES = 4096.0

#: Recent request service times kept per replica for the slow-replica
#: comparison.
SERVICE_WINDOW = 64


class HeartbeatMonitor:
    """Phi-accrual-style suspicion scores over simulated heartbeats."""

    def __init__(
        self,
        group: ReplicaGroup,
        interval: float = 0.02,
        phi_threshold: float = 4.0,
        window: int = 16,
        slow_ratio: float = 10.0,
    ):
        if interval <= 0 or phi_threshold <= 1 or window < 2:
            raise FaultInjectionError("bad heartbeat monitor parameters")
        self.group = group
        self.interval = interval
        self.phi_threshold = phi_threshold
        self.slow_ratio = slow_ratio
        self._sim = group._sim
        self.last_beat: Dict[int, float] = {r.index: 0.0 for r in group.replicas}
        self.beats: Dict[int, int] = {r.index: 0 for r in group.replicas}
        self._gaps: Dict[int, Deque[float]] = {
            r.index: deque(maxlen=window) for r in group.replicas
        }
        self._service: Dict[int, Deque[float]] = {
            r.index: deque(maxlen=SERVICE_WINDOW) for r in group.replicas
        }

    def install(self) -> None:
        """Spawn one heartbeat process per replica."""
        for replica in self.group.replicas:
            self._sim.spawn(self._beat(replica),
                            name=f"heartbeat-{replica.index}")

    def _beat(self, replica: Replica) -> Generator:
        while True:
            yield Timeout(self.interval)
            if not replica.up or replica.partitioned:
                continue
            try:
                yield from replica.machine.ssd.write(HEARTBEAT_BYTES)
            except FaultInjectionError:
                continue  # a failed beat is a missed beat
            if not replica.up or replica.partitioned:
                continue  # went down while the beat was in flight
            self.note_beat(replica.index)

    # -- signals -----------------------------------------------------------------

    def note_beat(self, index: int) -> None:
        now = self._sim.now
        self._gaps[index].append(now - self.last_beat[index])
        self.last_beat[index] = now
        self.beats[index] += 1

    def note_service_time(self, index: int, seconds: float) -> None:
        """Feed one observed request service time for a replica."""
        self._service[index].append(seconds)

    def typical_gap(self, index: int) -> float:
        """Median inter-arrival gap (robust: one huge gap left behind by
        a past outage must not inflate the detector's baseline and slow
        the *next* detection past its budget)."""
        gaps = self._gaps[index]
        if not gaps:
            return self.interval
        ordered = sorted(gaps)
        return ordered[len(ordered) // 2]

    def suspicion(self, index: int) -> float:
        """Elapsed-since-last-beat over the typical inter-arrival gap."""
        return (self._sim.now - self.last_beat[index]) / max(
            self.typical_gap(index), 1e-9
        )

    def service_slowdown(self, index: int) -> float:
        """This replica's recent mean service time relative to the
        fastest peer's (1.0 = at par; requires peers with samples)."""
        mine = self._service[index]
        if not mine:
            return 1.0
        peers = [
            sum(s) / len(s)
            for peer, s in self._service.items()
            if peer != index and s
        ]
        if not peers:
            return 1.0
        return (sum(mine) / len(mine)) / max(min(peers), 1e-9)

    def suspected(self, index: int) -> bool:
        return (
            self.suspicion(index) >= self.phi_threshold
            or self.service_slowdown(index) >= self.slow_ratio
        )

    def detection_bound(self) -> float:
        """Worst-case detection delay the availability invariant budgets.

        Suspicion crosses the threshold after ``phi_threshold`` typical
        gaps of silence; the typical gap tracks the configured interval
        plus the (small) beat write time, budgeted here at 2x interval.
        """
        return self.phi_threshold * self.interval * 2.0


class FailoverController:
    """Watches the primary's health; fences and promotes on suspicion."""

    def __init__(
        self,
        group: ReplicaGroup,
        monitor: HeartbeatMonitor,
        promotion_pause: float = 0.02,
        check_interval: Optional[float] = None,
    ):
        self.group = group
        self.monitor = monitor
        self.promotion_pause = promotion_pause
        self.check_interval = (check_interval if check_interval is not None
                               else monitor.interval / 2.0)
        self._sim = group._sim
        self._promoting = False
        self.promotions = 0
        self.aborted_promotions = 0

    def install(self) -> None:
        self._sim.spawn(self._watch(), name="failover-controller")

    def availability_bound(self) -> float:
        """Detection + promotion budget per failover (invariant (b))."""
        return (self.monitor.detection_bound() + self.check_interval
                + self.promotion_pause)

    def _primary_healthy(self) -> bool:
        primary = self.group.primary
        return (primary is not None and primary.reachable
                and not primary.fenced
                and not self.monitor.suspected(primary.index))

    def _watch(self) -> Generator:
        while True:
            yield Timeout(self.check_interval)
            if self._promoting or self._primary_healthy():
                continue
            primary = self.group.primary
            candidates = self._candidates(primary)
            if not candidates:
                continue  # nothing eligible yet; keep watching
            self._promoting = True
            self.group.note_primary_down()
            self._sim.spawn(self._promote(primary), name="failover-promote")

    def _candidates(self, primary: Optional[Replica]) -> List[Replica]:
        return [
            r for r in self.group.eligible_candidates()
            if r is not primary and not self.monitor.suspected(r.index)
        ]

    def _promote(self, old: Optional[Replica]) -> Generator:
        # Fence first: from this instant the deposed primary can commit
        # locally but never acknowledge, so there is no split-brain
        # window in which two replicas both ack writes.
        if old is not None:
            old.fence()
        yield Timeout(self.promotion_pause)
        candidates = self._candidates(old)
        self._promoting = False
        if not candidates:
            self.aborted_promotions += 1
            return None
        # Max durable LSN wins; configuration order (lowest index) breaks
        # ties — candidates iterate in index order and max() keeps the
        # first of equals.
        best = max(candidates, key=lambda r: r.durable_lsn)
        self.group.install_primary(best)
        self.promotions += 1
        return None
