"""Lock and latch manager with per-wait-type accounting (Table 3).

The paper's Table 3 breaks transactional waits into four classes:

* ``LOCK`` — logical row/key locks.  Contention concentrates on hot rows;
  a larger scale factor spreads accesses over more rows, *reducing* these
  waits (ratio 0.15 at SF 15000 vs 5000).
* ``PAGELATCH`` — in-memory page latches (e.g. insert hot spots); also
  diluted by scale (ratio 0.56).
* ``LATCH`` — internal structure latches; grow somewhat with data size
  (the paper notes LATCH waits *increase* at the larger SF).
* ``PAGEIOLATCH`` — latches held while a page is read from storage;
  explode when the database stops fitting in memory (ratio 74.61).

The model represents hot rows and hot pages as arrays of FCFS servers;
a transaction that hashes onto a busy slot queues, and the queueing time
is charged to that wait class.  PAGEIOLATCH waits are charged by the
executor when a buffer-pool miss performs device IO.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Generator, List

from repro.errors import ConfigurationError
from repro.sim.process import Simulator, Timeout
from repro.sim.resources import FcfsServer


#: Generic engine latches, shared by every transaction type.
LATCH_SLOTS = 64


class WaitType(enum.Enum):
    LOCK = "LOCK"
    LATCH = "LATCH"
    PAGELATCH = "PAGELATCH"
    PAGEIOLATCH = "PAGEIOLATCH"


@dataclass
class WaitAccounting:
    """Cumulative wait time (seconds) and counts per wait type."""

    wait_time: Dict[WaitType, float] = field(
        default_factory=lambda: {w: 0.0 for w in WaitType}
    )
    wait_count: Dict[WaitType, int] = field(
        default_factory=lambda: {w: 0 for w in WaitType}
    )

    def charge(self, wait_type: WaitType, seconds: float) -> None:
        if seconds < 0:
            raise ConfigurationError("negative wait time")
        self.wait_time[wait_type] += seconds
        self.wait_count[wait_type] += 1

    def lock_latch_pagelatch_total(self) -> float:
        """The Σ row of Table 3: LOCK + LATCH + PAGELATCH."""
        return (
            self.wait_time[WaitType.LOCK]
            + self.wait_time[WaitType.LATCH]
            + self.wait_time[WaitType.PAGELATCH]
        )


class HotSlotArray:
    """An array of FCFS slots modelling hot rows or hot pages.

    A requester hashes to one slot; concurrent requests to the same slot
    serialize.  More slots (bigger scale factor) means less contention.
    """

    def __init__(self, sim: Simulator, num_slots: int, name: str):
        if num_slots < 1:
            raise ConfigurationError(f"{name}: need at least one slot")
        self._sim = sim
        self.name = name
        self.num_slots = num_slots
        self._slots: List[FcfsServer] = [
            FcfsServer(sim, capacity=1, name=f"{name}[{i}]") for i in range(num_slots)
        ]

    def server(self, slot_index: int) -> FcfsServer:
        """The FCFS server behind *slot_index*."""
        return self._slots[slot_index % self.num_slots]

    def acquire(self, slot_index: int) -> Generator:
        """Generator: acquire one slot (callers pick the index)."""
        return self._slots[slot_index % self.num_slots].acquire()

    def release(self, slot_index: int) -> None:
        self._slots[slot_index % self.num_slots].release()

    @property
    def total_wait_time(self) -> float:
        return sum(s.total_wait_time for s in self._slots)


class LockManager:
    """Hot-row locks, hot-page latches, and wait accounting for one run."""

    def __init__(
        self,
        sim: Simulator,
        hot_rows: int,
        hot_pages: int,
    ):
        self._sim = sim
        self._loop = sim.loop
        self.accounting = WaitAccounting()
        self.row_locks = HotSlotArray(sim, hot_rows, "lock")
        self.page_latches = HotSlotArray(sim, hot_pages, "pagelatch")
        self.latches = HotSlotArray(sim, LATCH_SLOTS, "latch")

    def critical_section(
        self,
        wait_type: WaitType,
        slot_index: int,
        hold_seconds: float,
    ) -> Generator:
        """Generator: acquire the slot, hold it, release, and account the
        queueing delay to *wait_type*."""
        server = self._array_for(wait_type).server(slot_index)
        if not server.try_acquire():
            loop = self._loop
            start = loop._now
            yield from server.acquire()
            waited = loop._now - start
            if waited > 0:
                self.accounting.charge(wait_type, waited)
        if hold_seconds > 0:
            yield Timeout(hold_seconds)
        server.release()
        return None

    def acquire(self, wait_type: WaitType, slot_index: int) -> Generator:
        """Generator: acquire a slot without releasing (caller releases);
        queueing time is charged to *wait_type*."""
        server = self._array_for(wait_type).server(slot_index)
        if not server.try_acquire():
            loop = self._loop
            start = loop._now
            yield from server.acquire()
            waited = loop._now - start
            if waited > 0:
                self.accounting.charge(wait_type, waited)
        return None

    def release(self, wait_type: WaitType, slot_index: int) -> None:
        self._array_for(wait_type).release(slot_index)

    def charge_io_latch(self, seconds: float) -> None:
        """Record a PAGEIOLATCH wait (charged by the executor on IO)."""
        self.accounting.charge(WaitType.PAGEIOLATCH, seconds)

    def _array_for(self, wait_type: WaitType) -> HotSlotArray:
        if wait_type is WaitType.LOCK:
            return self.row_locks
        if wait_type is WaitType.PAGELATCH:
            return self.page_latches
        if wait_type is WaitType.LATCH:
            return self.latches
        raise ConfigurationError(f"{wait_type} is not a slot-based wait")
