"""The fault injector: turns fault specs into scheduled simulator events.

One :class:`FaultInjector` is built per experiment (when the config
carries simulation-level faults), bound to the run's machine and engine.
``install()`` spawns one driver process per fault; every driver is
deterministic — timings come from the spec, and any randomness (the
transient-error coin flips) draws from the machine's seeded
``faults.io`` stream, so a faulted run is exactly reproducible and
cacheable.

The injector keeps a human-readable event log plus a counter summary
that the experiment attaches to its
:class:`~repro.core.measurement.Measurement`, making fault activity an
observable of the run rather than a side effect.
"""

from __future__ import annotations

from typing import Callable, Dict, Generator, List, Optional, Sequence, Tuple

from repro.engine.engine import SqlEngine
from repro.errors import FaultInjectionError, GrantTimeoutError
from repro.faults.recovery import WalImage, recover, verify_committed_durable
from repro.faults.spec import (
    CoreOffline,
    CrashPoint,
    GrantStorm,
    SimulationFault,
    StorageBrownout,
    TransientWriteErrors,
)
from repro.hardware.machine import Machine
from repro.sim.process import Timeout


class FaultInjector:
    """Drives a set of simulation-level faults against one live run."""

    def __init__(
        self,
        machine: Machine,
        engine: Optional[SqlEngine] = None,
        faults: Sequence[SimulationFault] = (),
    ):
        self.machine = machine
        self.engine = engine
        self.faults = tuple(faults)
        self.events: List[Tuple[float, str]] = []
        self.crash_recoveries = 0
        self.replayed_records = 0
        self.storm_grants = 0
        self.storm_rejections = 0
        self._error_windows = 0
        self._rng = machine.streams.get("faults.io")

    # -- lifecycle ------------------------------------------------------------

    def install(self) -> None:
        """Spawn one driver process per fault spec."""
        for fault in self.faults:
            if isinstance(fault, StorageBrownout):
                self.machine.sim.spawn(self._drive_brownout(fault),
                                       name="fault-brownout")
            elif isinstance(fault, TransientWriteErrors):
                self.machine.sim.spawn(self._drive_write_errors(fault),
                                       name="fault-io-errors")
            elif isinstance(fault, CoreOffline):
                self.machine.sim.spawn(self._drive_core_offline(fault),
                                       name="fault-core-offline")
            elif isinstance(fault, CrashPoint):
                self.machine.sim.spawn(self._drive_crash(fault),
                                       name="fault-crash")
            elif isinstance(fault, GrantStorm):
                self.machine.sim.spawn(self._drive_grant_storm(fault),
                                       name="fault-grant-storm")
            else:
                raise FaultInjectionError(
                    f"no driver for simulation fault {type(fault).__name__}"
                )

    def _log(self, message: str) -> None:
        self.events.append((self.machine.sim.now, message))

    # -- drivers ---------------------------------------------------------------

    def _drive_brownout(self, fault: StorageBrownout) -> Generator:
        yield Timeout(fault.start)
        self._log(f"brownout on: read x{fault.read_factor}, "
                  f"write x{fault.write_factor}")
        yield from hold_brownout(self.machine.ssd, fault)
        self._log("brownout cleared")
        return None

    def _drive_write_errors(self, fault: TransientWriteErrors) -> Generator:
        yield Timeout(fault.start)
        device = self.machine.ssd
        window_end = self.machine.sim.now + fault.duration

        def should_fail() -> bool:
            if self.machine.sim.now >= window_end:
                return False
            if fault.failure_rate >= 1.0:
                return True
            return bool(self._rng.random() < fault.failure_rate)

        device.set_write_error_predicate(should_fail)
        self._error_windows += 1
        self._log(f"write-error window open (rate {fault.failure_rate})")
        yield Timeout(fault.duration)
        device.set_write_error_predicate(None)
        self._log("write-error window closed")
        return None

    def _drive_core_offline(self, fault: CoreOffline) -> Generator:
        if self.engine is None:
            raise FaultInjectionError("core offlining needs an engine")
        yield Timeout(fault.at)
        original = frozenset(self.machine.cpuset.cpus)
        if fault.remaining_logical >= len(original):
            raise FaultInjectionError(
                f"cannot offline to {fault.remaining_logical} CPUs: "
                f"cpuset already has {len(original)}"
            )
        self.machine.cpuset.set_paper_allocation(fault.remaining_logical)
        self.engine.sqlos.rebind_cpuset()
        self._log(f"cores offlined: {len(original)} -> {fault.remaining_logical}")
        if fault.duration > 0:
            yield Timeout(fault.duration)
            self.machine.cpuset.set_cpus(original)
            self.engine.sqlos.rebind_cpuset()
            self._log(f"cores restored: {len(original)}")
        return None

    def _drive_crash(self, fault: CrashPoint) -> Generator:
        if self.engine is None:
            raise FaultInjectionError("crash recovery needs an engine")
        yield Timeout(fault.at)
        wal = self.engine.wal
        checkpoint = self.engine.checkpoint
        image = WalImage.capture(wal, checkpoint_lsn=checkpoint.checkpoint_lsn)
        result = recover(image)
        # WAL-level ground truth: a commit is acknowledged exactly when
        # its record becomes durable, so the durable set *is* the
        # committed set — recovery must cover it (recover() enforces
        # this; verify_committed_durable re-checks via txn ids).
        verify_committed_durable(
            (r.txn_id for r in image.durable_records if r.txn_id >= 0), result
        )
        self.crash_recoveries += 1
        self.replayed_records += result.replayed
        self._log(
            f"crash/recover: {len(image.durable_records)} durable, "
            f"{result.replayed} replayed past checkpoint LSN "
            f"{image.checkpoint_lsn}, {result.lost_uncommitted} in-flight dropped"
        )
        return None

    def _drive_grant_storm(self, fault: GrantStorm) -> Generator:
        if self.engine is None:
            raise FaultInjectionError("a grant storm needs an engine")
        yield Timeout(fault.at)
        nbytes = spawn_grant_storm(self.machine.sim, self.engine.semaphore,
                                   fault, "storm-query",
                                   on_admit=self._note_storm_admission)
        self._log(
            f"grant storm: {fault.queries} requests x {nbytes:.0f} B, "
            f"held {fault.hold_seconds}s"
        )
        return None

    def _note_storm_admission(self, index: int, granted: bool) -> None:
        # Counted at admission, not after the hold: a storm can still be
        # holding its grants when the run ends.
        if granted:
            self.storm_grants += 1
        else:
            self.storm_rejections += 1
            self._log(f"storm-{index}: rejected at admission")

    # -- reporting -------------------------------------------------------------

    def summary(self) -> Dict[str, float]:
        """Counters for the measurement's fault summary."""
        wal_retries = self.engine.wal.total_flush_retries if self.engine else 0
        return {
            "faults_installed": float(len(self.faults)),
            "write_faults_injected": float(self.machine.ssd.write_faults_injected),
            "wal_flush_retries": float(wal_retries),
            "crash_recoveries": float(self.crash_recoveries),
            "replayed_records": float(self.replayed_records),
            "storm_grants": float(self.storm_grants),
            "storm_rejections": float(self.storm_rejections),
            "events": float(len(self.events)),
        }


def hold_brownout(device, brownout: StorageBrownout) -> Generator:
    """Generator: slow *device* by *brownout*'s three factors for its
    duration, then clear them."""
    device.apply_brownout(brownout.read_factor, brownout.write_factor,
                          brownout.latency_factor)
    yield Timeout(brownout.duration)
    device.clear_brownout()


def spawn_grant_storm(
    sim,
    semaphore,
    storm: GrantStorm,
    name: str,
    on_admit: Callable[[int, bool], None] = lambda index, granted: None,
) -> float:
    """Spawn *storm*'s participants against *semaphore*, one process
    each, named ``<name>-<index>``; returns each participant's request
    in bytes.  *on_admit* hears ``(index, granted)`` once per
    participant as its admission is decided."""
    nbytes = semaphore.pool_bytes * storm.pool_fraction
    for index in range(storm.queries):
        sim.spawn(_storm_participant(semaphore, nbytes, storm.hold_seconds,
                                     index, on_admit),
                  name=f"{name}-{index}")
    return nbytes


def _storm_participant(semaphore, nbytes: float, hold: float, index: int,
                       on_admit) -> Generator:
    """One storm participant: acquire, hold, release.

    Goes through the same acquire path as real queries, so storm
    requests queue, time out, and degrade under the governor's policy
    like any other, and always release what they charged.  Only a
    refused grant ends a participant quietly; any other error is a
    fault in the run and propagates.
    """
    try:
        ticket = yield from semaphore.acquire(nbytes, name=f"storm-{index}")
    except GrantTimeoutError:
        on_admit(index, False)
        return None
    on_admit(index, True)
    try:
        yield Timeout(hold)
    finally:
        semaphore.release(ticket)
    return None
