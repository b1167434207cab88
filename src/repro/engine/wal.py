"""Write-ahead log with group commit, durability tracking, and retry.

Transactional workloads "experience significant (blocking) logging
activity and data updates that contribute to their sensitivity to write
bandwidth" (§6).  The model captures exactly that: every commit appends
log records and blocks until its batch is durable on the SSD, so a cgroup
write-bandwidth cap back-pressures transaction latency and hence TPS.

Group commit batches concurrent commits into one flush, bounded by a batch
byte size and a flush interval — without it, write IOPS rather than
bandwidth would dominate and the §6 write-cap results would not reproduce.

Two robustness features support fault injection (:mod:`repro.faults`):

* every commit is assigned a monotonically increasing **LSN** and the log
  keeps the ordered list of durable records, so a crash point can freeze
  a durable image mid-batch and recovery can replay it
  (:mod:`repro.faults.recovery`);
* a flush that hits an injected
  :class:`~repro.errors.TransientIOError` retries the **whole batch**
  (group-commit re-flush) with exponential backoff — commits are only
  acknowledged after a successful flush, never a failed one.
"""

from __future__ import annotations

from typing import Generator, List, NamedTuple, Sequence, Tuple

from repro.errors import (
    ConfigurationError,
    FaultInjectionError,
    RecoveryError,
    TransientIOError,
)
from repro.hardware.storage import NvmeDevice
from repro.sim.process import Simulator, Timeout, WaitEvent
from repro.units import KIB


class WalRecord(NamedTuple):
    """One committed unit in the log: its LSN, payload size, and an
    opaque transaction id (``-1`` when the caller did not provide one)."""

    lsn: int
    nbytes: float
    txn_id: int


class WriteAheadLog:
    """Group-commit log writer on top of an :class:`NvmeDevice`."""

    def __init__(
        self,
        sim: Simulator,
        device: NvmeDevice,
        batch_bytes: int = 64 * KIB,
        flush_interval: float = 0.001,
        retry_backoff: float = 0.002,
        max_retry_backoff: float = 0.25,
        max_flush_retries: int = 64,
    ):
        if batch_bytes <= 0 or flush_interval <= 0:
            raise ConfigurationError("bad WAL batching parameters")
        if retry_backoff <= 0 or max_retry_backoff < retry_backoff or max_flush_retries < 0:
            raise ConfigurationError("bad WAL retry parameters")
        self._sim = sim
        self._device = device
        self.batch_bytes = batch_bytes
        self.flush_interval = flush_interval
        self.retry_backoff = retry_backoff
        self.max_retry_backoff = max_retry_backoff
        self.max_flush_retries = max_flush_retries
        self._pending_bytes = 0.0
        self._waiters: List[WaitEvent] = []
        self._pending_records: List[WalRecord] = []
        self._flusher_armed = False
        self._flush_in_progress = False
        self._next_lsn = 1
        self.durable_records: List[WalRecord] = []
        self.durable_lsn = 0
        self.total_log_bytes = 0.0
        self.total_flushes = 0
        self.total_flush_retries = 0
        self.shipped_records = 0
        self.truncated_records = 0

    @property
    def in_flight_records(self) -> Tuple[WalRecord, ...]:
        """Records appended but not yet durable (lost by a crash now)."""
        return tuple(self._pending_records)

    def commit(self, log_bytes: float, txn_id: int = -1) -> Generator:
        """Generator: append *log_bytes* and suspend until durable.

        Returns the record's LSN.  The caller is only resumed after the
        record's batch has been written successfully; a crash before
        that point loses the record (the transaction never committed).
        """
        if log_bytes < 0:
            raise ConfigurationError("negative log size")
        record = WalRecord(self._next_lsn, log_bytes, txn_id)
        self._next_lsn += 1
        self.total_log_bytes += log_bytes
        self._pending_bytes += log_bytes
        self._pending_records.append(record)
        gate = WaitEvent(self._sim)
        self._waiters.append(gate)
        if self._pending_bytes >= self.batch_bytes:
            self._start_flush()
        elif not self._flusher_armed and not self._flush_in_progress:
            self._flusher_armed = True
            self._sim.loop.schedule_after(self.flush_interval, self._on_timer)
        yield gate
        return record.lsn

    def apply_shipped(self, records: Sequence[WalRecord]) -> Generator:
        """Generator: standby redo — apply records from a primary's stream.

        A secondary replica durably applies already-sequenced records
        shipped by its primary: one device write for the batch (the
        standby's own durability point, so brownouts and transient
        errors on the standby's device slow or retry the apply exactly
        like a local flush), then the log extends and ``durable_lsn``
        advances to the primary's numbering.  Records at or below the
        current ``durable_lsn`` are skipped — re-shipping after a
        partition heals is idempotent.  Returns the count of records
        newly made durable.

        ``_next_lsn`` tracks the applied stream, so a promoted standby
        continues the primary's LSN sequence instead of reusing numbers
        that already exist on its peers.
        """
        fresh: List[WalRecord] = []
        last = self.durable_lsn
        for record in records:
            if record.lsn <= self.durable_lsn:
                continue
            if fresh and record.lsn <= last:
                raise RecoveryError(
                    f"shipped records out of order: {record.lsn} after {last}"
                )
            fresh.append(record)
            last = record.lsn
        if not fresh:
            return 0
        nbytes = sum(r.nbytes for r in fresh)
        attempt = 0
        while True:
            try:
                yield from self._device.write(nbytes)
                break
            except TransientIOError:
                if attempt >= self.max_flush_retries:
                    raise FaultInjectionError(
                        f"standby apply failed after {attempt + 1} attempts "
                        f"({nbytes:.0f} bytes)"
                    )
                self.total_flush_retries += 1
                yield Timeout(min(self.retry_backoff * (2.0 ** attempt),
                                  self.max_retry_backoff))
                attempt += 1
        applied = 0
        for record in fresh:
            # A record shipped twice concurrently (quorum retry racing a
            # catch-up) must still land exactly once.
            if record.lsn <= self.durable_lsn:
                continue
            self.durable_records.append(record)
            self.durable_lsn = record.lsn
            applied += 1
        self.shipped_records += applied
        self._next_lsn = max(self._next_lsn, self.durable_lsn + 1)
        return applied

    def truncate_to(self, lsn: int) -> int:
        """Drop durable records above *lsn*; returns how many were dropped.

        Divergence repair on rejoin: a demoted primary may hold records
        that were durable only locally (never quorum-acknowledged) while
        the new primary issued different records under the same LSNs.
        The rejoining replica truncates to the common prefix before
        catch-up re-ships the authoritative history.
        """
        kept = [r for r in self.durable_records if r.lsn <= lsn]
        dropped = len(self.durable_records) - len(kept)
        self.durable_records = kept
        self.durable_lsn = kept[-1].lsn if kept else 0
        self._next_lsn = self.durable_lsn + 1
        self.truncated_records += dropped
        return dropped

    def _on_timer(self, _event) -> None:
        self._flusher_armed = False
        if self._waiters and not self._flush_in_progress:
            self._start_flush()

    def _start_flush(self) -> None:
        if self._flush_in_progress:
            return
        batch_bytes = self._pending_bytes
        waiters, self._waiters = self._waiters, []
        records, self._pending_records = self._pending_records, []
        self._pending_bytes = 0.0
        if not waiters:
            return
        self._flush_in_progress = True
        self.total_flushes += 1
        self._sim.spawn(self._flush(batch_bytes, waiters, records), name="wal-flush")

    def _flush(
        self, nbytes: float, waiters: List[WaitEvent], records: List[WalRecord]
    ) -> Generator:
        # Bounded retry with exponential backoff: a transient device
        # error fails the *attempt*, not the batch — the whole batch is
        # re-flushed (group-commit re-flush) and waiters stay suspended
        # until an attempt succeeds, so no commit is acknowledged early.
        attempt = 0
        while True:
            try:
                yield from self._device.write(nbytes)
                break
            except TransientIOError:
                if attempt >= self.max_flush_retries:
                    raise FaultInjectionError(
                        f"WAL flush failed after {attempt + 1} attempts "
                        f"({nbytes:.0f} bytes)"
                    )
                self.total_flush_retries += 1
                yield Timeout(min(self.retry_backoff * (2.0 ** attempt),
                                  self.max_retry_backoff))
                attempt += 1
        # Durability point: records survive any crash after this line.
        self.durable_records.extend(records)
        if records:
            self.durable_lsn = records[-1].lsn
        self._flush_in_progress = False
        for gate in waiters:
            gate.trigger()
        # If commits queued up while flushing, service them immediately.
        if self._pending_bytes >= self.batch_bytes or self._waiters:
            self._start_flush()
        return None
