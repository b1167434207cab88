"""Background checkpoint / lazy-writer model.

Transactions dirty pages; a checkpoint writer flushes them to the data
files in the background at a bounded rate.  Two behaviours matter for the
paper's §6 write-bandwidth results:

* checkpoint writes share the SSD write path with the WAL, so a cgroup
  write cap back-pressures both;
* when the dirty backlog outruns the device (tight caps), the writer
  throttles incoming transactions (recovery-interval protection), which
  is the second mechanism — after log-flush latency — behind the 44%
  ASDB TPS collapse at 50 MB/s.

For crash recovery (:mod:`repro.faults.recovery`) the writer also tracks
a **checkpoint LSN**: when a flush round that drains the backlog
completes, every transaction durable *before the round started* has its
data-page effects on disk, so replay after a crash may begin past that
LSN.  The snapshot is taken at round *start* and published at round
*end* — conservative, because pages dirtied mid-round may belong to
later transactions and will be covered by the next round.
"""

from __future__ import annotations

from typing import Generator, Optional

from repro.errors import ConfigurationError
from repro.hardware.storage import NvmeDevice
from repro.sim.process import Simulator, Timeout, WaitEvent
from repro.units import MIB, PAGE_SIZE


class CheckpointWriter:
    """Accumulates dirty pages and flushes them in background rounds."""

    def __init__(
        self,
        sim: Simulator,
        device: NvmeDevice,
        flush_interval: float = 0.25,
        max_batch_bytes: float = 64 * MIB,
        backlog_limit_bytes: float = 512 * MIB,
        wal=None,
    ):
        if flush_interval <= 0 or max_batch_bytes <= 0:
            raise ConfigurationError("bad checkpoint parameters")
        self._sim = sim
        self._device = device
        self._wal = wal
        self.flush_interval = flush_interval
        self.max_batch_bytes = max_batch_bytes
        self.backlog_limit_bytes = backlog_limit_bytes
        self._dirty_bytes = 0.0
        self.total_flushed_bytes = 0.0
        self.total_rounds = 0
        self.checkpoint_lsn = 0
        self._stalled: list = []
        self._work_gate: Optional[WaitEvent] = None
        self._process = sim.spawn(self._run(), name="checkpoint-writer")

    @property
    def dirty_bytes(self) -> float:
        return self._dirty_bytes

    @property
    def backlogged(self) -> bool:
        return self._dirty_bytes >= self.backlog_limit_bytes

    def mark_dirty(self, pages: float) -> Generator:
        """Generator: record dirtied pages; stalls the caller when the
        backlog exceeds the recovery-interval limit (write throttle)."""
        if pages < 0:
            raise ConfigurationError("negative page count")
        self._dirty_bytes += pages * PAGE_SIZE
        work_gate = self._work_gate
        if work_gate is not None and not work_gate._triggered:
            work_gate.trigger()
        if self._dirty_bytes >= self.backlog_limit_bytes:
            gate = WaitEvent(self._sim)
            self._stalled.append(gate)
            yield gate
        return None

    def _run(self) -> Generator:
        # Event-driven: sleep on a gate while idle (so an idle writer
        # keeps no timers alive and the event loop can drain), then flush
        # in interval-paced rounds until the backlog clears.
        while True:
            if self._dirty_bytes <= 0:
                self._work_gate = self._sim.event()
                yield self._work_gate
                self._work_gate = None
            yield Timeout(self.flush_interval)
            round_start_lsn = self._wal.durable_lsn if self._wal is not None else 0
            drained = False
            while self._dirty_bytes > 0:
                batch = min(self._dirty_bytes, self.max_batch_bytes)
                yield from self._write_batch(batch)
                self._dirty_bytes -= batch
                self.total_flushed_bytes += batch
                self.total_rounds += 1
                self._release_stalled()
                if self._dirty_bytes < self.max_batch_bytes:
                    drained = self._dirty_bytes <= 0
                    break
            if drained and round_start_lsn > self.checkpoint_lsn:
                self.checkpoint_lsn = round_start_lsn

    def _write_batch(self, batch: float) -> Generator:
        # Checkpoint writes are idempotent page writes: a transient
        # injected error just means the round retries the batch after a
        # short pause (no backoff escalation needed — the writer is
        # already interval-paced and nothing blocks on it directly).
        from repro.errors import TransientIOError

        while True:
            try:
                yield from self._device.write(batch)
                return None
            except TransientIOError:
                yield Timeout(self.flush_interval)

    def _release_stalled(self) -> None:
        if self.backlogged:
            return
        stalled, self._stalled = self._stalled, []
        for gate in stalled:
            gate.trigger()

    def stop(self) -> None:
        self._process.interrupt()
