"""Fault specifications: frozen, cache-canonical descriptions of faults.

Every spec is a frozen dataclass of primitives so that it composes with
:func:`repro.core.resultcache.canonical_json` (faults are part of the
experiment cache key) and pickles cleanly into worker processes.  Specs
carry *when* and *how hard*; the :class:`~repro.faults.injector.FaultInjector`
turns simulation-level specs into scheduled simulator events, and the
supervised runner (:mod:`repro.core.runner`) interprets harness-level
specs inside its workers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

from repro.errors import FaultInjectionError


@dataclass(frozen=True)
class FaultSpec:
    """Base class for all fault specifications."""


@dataclass(frozen=True)
class SimulationFault(FaultSpec):
    """A fault injected *inside* one experiment's simulation."""


@dataclass(frozen=True)
class HarnessFault(FaultSpec):
    """A fault injected into the *worker process* running an experiment."""


@dataclass(frozen=True)
class StorageBrownout(SimulationFault):
    """Temporary collapse of the NVMe device's bandwidth.

    From ``start`` for ``duration`` simulated seconds, the device's read
    and write bandwidths are scaled by ``read_factor`` / ``write_factor``
    (1.0 = unaffected, 0.05 = a 95% brownout).  Models a shared SSD
    hitting a garbage-collection stall or a noisy neighbour saturating
    the device — §6's blocking durability paths under a degraded device.
    """

    start: float
    duration: float
    read_factor: float = 1.0
    write_factor: float = 0.1
    #: Multiplier on per-page random-read latency (GC stalls inflate
    #: operation latency, not just streaming throughput); 1.0 = none.
    latency_factor: float = 1.0

    def __post_init__(self):
        # Every bound is written as ``not <valid>`` so that NaN, which
        # fails every comparison, is rejected here and not mid-run.
        if not self.start >= 0:
            raise FaultInjectionError(
                f"StorageBrownout.start must be >= 0, got {self.start!r}")
        if not self.duration > 0:
            raise FaultInjectionError(
                f"StorageBrownout.duration must be > 0, got {self.duration!r}")
        for name, factor in (("read_factor", self.read_factor),
                             ("write_factor", self.write_factor)):
            if not 0 < factor <= 1.0:
                raise FaultInjectionError(f"{name} must be in (0, 1]")
        if not self.latency_factor >= 1.0:
            raise FaultInjectionError("latency_factor must be >= 1")


@dataclass(frozen=True)
class TransientWriteErrors(SimulationFault):
    """Transient I/O errors on the device's write path.

    During the window, each write operation fails with probability
    ``failure_rate`` (drawn from the machine's seeded ``faults.io``
    stream, so runs are reproducible).  The WAL absorbs these through
    bounded retry with exponential backoff and a group-commit re-flush
    of the whole batch; no commit is ever acknowledged on a failed
    flush.
    """

    start: float
    duration: float
    failure_rate: float = 1.0

    def __post_init__(self):
        if not self.start >= 0:
            raise FaultInjectionError(
                f"TransientWriteErrors.start must be >= 0, got {self.start!r}")
        if not self.duration > 0:
            raise FaultInjectionError(
                f"TransientWriteErrors.duration must be > 0, got {self.duration!r}")
        if not 0 < self.failure_rate <= 1.0:
            raise FaultInjectionError("failure_rate must be in (0, 1]")


@dataclass(frozen=True)
class CoreOffline(SimulationFault):
    """Mid-run core offlining through the cpuset path.

    At ``at`` the cpuset shrinks to ``remaining_logical`` CPUs (paper §4
    allocation order) and the engine's core pools rescale; with
    ``duration`` set, the original cpuset is restored afterwards.
    Models a hot-unplug, a co-tenant stealing the cpuset, or thermal
    throttling taking cores away mid-measurement.
    """

    at: float
    remaining_logical: int
    duration: float = 0.0  # 0 = permanent for the rest of the run

    def __post_init__(self):
        if not self.at >= 0:
            raise FaultInjectionError(f"CoreOffline.at must be >= 0, got {self.at!r}")
        if not self.duration >= 0:
            raise FaultInjectionError(
                f"CoreOffline.duration must be >= 0, got {self.duration!r}")
        if self.remaining_logical < 1:
            raise FaultInjectionError("must leave at least one logical CPU")


@dataclass(frozen=True)
class CrashPoint(SimulationFault):
    """A crash/recover event at simulated time ``at``.

    The injector freezes the WAL's durable image mid-batch, runs
    checkpoint-aware WAL replay (:func:`repro.faults.recovery.recover`),
    and checks the durability invariants: every durable-committed
    transaction is recovered and replay is idempotent.  A violation
    raises :class:`~repro.errors.RecoveryError` and fails the
    experiment; a clean recovery is recorded in the measurement's fault
    summary and the run continues (modelling a successful failover).
    """

    at: float

    def __post_init__(self):
        if not self.at >= 0:
            raise FaultInjectionError(f"CrashPoint.at must be >= 0, got {self.at!r}")


@dataclass(frozen=True)
class GrantStorm(SimulationFault):
    """A burst of memory-grant requests flooding RESOURCE_SEMAPHORE.

    At ``at``, ``queries`` synthetic grant requests arrive at once, each
    asking for ``pool_fraction`` of the query-memory pool and holding its
    grant for ``hold_seconds`` before releasing.  Models a surge of
    ad-hoc analytics landing on a loaded server — the overload the §10
    admission policies exist to absorb.  With overload protection off
    the storm is invisible (admission is unconditional and nothing is
    charged); with it on, the storm drives real queries into the grant
    queue and through the timeout/degrade paths.
    """

    at: float
    queries: int = 8
    pool_fraction: float = 0.25
    hold_seconds: float = 30.0

    def __post_init__(self):
        if not self.at >= 0:
            raise FaultInjectionError(f"GrantStorm.at must be >= 0, got {self.at!r}")
        if self.queries < 1:
            raise FaultInjectionError("storm needs queries >= 1")
        if not 0 < self.pool_fraction <= 1.0:
            raise FaultInjectionError("pool_fraction must be in (0, 1]")
        if not self.hold_seconds > 0:
            raise FaultInjectionError(
                f"GrantStorm.hold_seconds must be > 0, got {self.hold_seconds!r}")


@dataclass(frozen=True)
class ReplicaPartition(SimulationFault):
    """Network partition isolating one fleet replica.

    From ``start`` for ``duration`` simulated seconds, replica
    ``replica`` of a :class:`~repro.fleet.replicas.ReplicaGroup` neither
    receives shipped WAL records nor emits heartbeats; writes it held
    before the partition stay durable on its local device.  A
    partitioned primary cannot reach a quorum, so the group's failure
    detector promotes a secondary and the healed replica rejoins as a
    fenced secondary through checkpoint-based catch-up.  Fleet-level
    only: the single-engine :class:`~repro.faults.injector.FaultInjector`
    has no driver for it (there is no second replica to partition from).
    """

    start: float
    duration: float
    replica: int = 0

    def __post_init__(self):
        if not self.start >= 0:
            raise FaultInjectionError(
                f"ReplicaPartition.start must be >= 0, got {self.start!r}")
        if not self.duration > 0:
            raise FaultInjectionError(
                f"ReplicaPartition.duration must be > 0, got {self.duration!r}")
        if self.replica < 0:
            raise FaultInjectionError("replica index must be >= 0")


@dataclass(frozen=True)
class WorkerCrash(HarnessFault):
    """Kill the worker process running this config (first ``attempts`` tries).

    In a process pool the worker dies with ``os._exit(exit_code)``, so
    the supervisor observes a genuine ``BrokenProcessPool``; the
    in-process runner raises
    :class:`~repro.errors.SimulatedWorkerCrash` instead.  Attempt
    numbering is global across journal resumes, so a crash spec with
    ``attempts=1`` fails once and succeeds on retry or resume.
    """

    attempts: int = 1
    exit_code: int = 32

    def __post_init__(self):
        if self.attempts < 1:
            raise FaultInjectionError("attempts must be >= 1")

    def fires_on(self, attempt: int) -> bool:
        return attempt < self.attempts


@dataclass(frozen=True)
class WorkerStall(HarnessFault):
    """Hang the worker for ``seconds`` of wall-clock time (first
    ``attempts`` tries) before running the experiment — the supervised
    runner's per-experiment timeout is what breaks the stall."""

    seconds: float
    attempts: int = 1

    def __post_init__(self):
        if not self.seconds > 0:
            raise FaultInjectionError(
                f"WorkerStall.seconds must be > 0, got {self.seconds!r}")
        if self.attempts < 1:
            raise FaultInjectionError(
                f"WorkerStall.attempts must be >= 1, got {self.attempts!r}")

    def fires_on(self, attempt: int) -> bool:
        return attempt < self.attempts


def simulation_faults(faults: Sequence[FaultSpec]) -> Tuple[SimulationFault, ...]:
    """The simulation-level subset of a config's fault tuple."""
    return tuple(f for f in faults if isinstance(f, SimulationFault))


def harness_faults(faults: Sequence[FaultSpec]) -> Tuple[HarnessFault, ...]:
    """The harness-level subset of a config's fault tuple."""
    return tuple(f for f in faults if isinstance(f, HarnessFault))
