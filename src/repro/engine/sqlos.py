"""SQLOS: the engine's runtime layer binding workers to the hardware.

For one experiment run, :class:`SqlOs` freezes the run's execution
characteristics (MPKI at the current CAT allocation, CPI, per-core
instruction rate, SMT-adjusted aggregate capacity, DRAM throttling) and
exposes:

* :meth:`run_on_cpu` — a generator that executes an instruction budget on
  the shared core pool, capped at a query's DOP;
* PCM-style cumulative counters for the sampler
  (:mod:`repro.hardware.counters`).

Hyper-threading enters twice, both via mechanisms from
:mod:`repro.hardware.cpu`: paired logical cores multiply capacity by the
SMT yield (a function of the memory-stall fraction), and the doubled
thread count inflates working-set footprints, raising MPKI.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Generator

from repro.hardware.counters import (
    DRAM_READ_BYTES,
    DRAM_WRITE_BYTES,
    INSTRUCTIONS,
    LLC_MISSES,
    SSD_READ_BYTES,
    SSD_WRITE_BYTES,
)
from repro.hardware.cpu import ThreadCharacteristics
from repro.hardware.machine import Machine
from repro.hardware.mrc import MissRatioCurve
from repro.sim.process import Timeout
from repro.sim.resources import FcfsServer
from repro.sim.waterfill import WaterfillServer
from repro.units import CACHE_LINE


@dataclass(frozen=True)
class ExecutionCharacteristics:
    """Per-workload execution parameters feeding the CPU model."""

    cpi_base: float
    mlp: float
    miss_penalty_cycles: float
    mrc: MissRatioCurve
    #: How much the aggregate working set grows when every physical core
    #: runs two hardware threads (1.0 = no growth).
    smt_footprint_growth: float = 0.5
    #: Multiplier on per-transaction instruction budgets.  Backend
    #: personalities without a row-oriented point-access path (batch-mode
    #: columnstores) pay this penalty on OLTP work; 1.0 = rowstore parity.
    txn_instruction_scale: float = 1.0


class SqlOs:
    """Frozen runtime state for one experiment run.

    ``shared_cpu_pool`` routes transaction CPU through the same
    water-filling core pool queries use, so concurrent OLTP and DSS
    components genuinely contend for cores (the HTAP configuration).
    Pure OLTP runs keep the O(1)-per-transaction FCFS pool.
    """

    def __init__(self, machine: Machine, execution: ExecutionCharacteristics,
                 shared_cpu_pool: bool = False):
        self.shared_cpu_pool = shared_cpu_pool
        self.machine = machine
        self.execution = execution
        shape = machine.cpuset.shape()
        self.shape = shape
        paired_fraction = shape.smt_paired_cores / max(1, shape.physical_cores)
        footprint_scale = 1.0 + execution.smt_footprint_growth * paired_fraction
        self.mpki = execution.mrc.mpki(
            machine.llc.effective_bytes(), footprint_scale=footprint_scale
        )
        # Crossing the socket boundary makes a fraction of misses remote
        # (Fig 2's caption); blend the DRAM penalty accordingly.
        numa_ratio = (
            machine.numa.effective_miss_penalty(shape)
            / machine.numa.local_penalty_cycles
        )
        self.thread_characteristics = ThreadCharacteristics(
            cpi_base=execution.cpi_base,
            mpki=self.mpki,
            miss_penalty_cycles=execution.miss_penalty_cycles * numa_ratio,
            mlp=execution.mlp,
        )
        total_physical = machine.topology.total_physical_cores
        self.per_core_ips = machine.cpu_model.single_thread_ips(
            self.thread_characteristics, shape.physical_cores, total_physical
        )
        raw_capacity = machine.cpu_model.capacity_core_equivalents(
            self.thread_characteristics, shape
        )
        # DRAM bandwidth throttle: if running flat-out would exceed the
        # achievable bandwidth, the core pool slows down to match it.
        full_miss_rate = raw_capacity * self.per_core_ips * self.mpki / 1000.0
        throttle = machine.dram.throttle_factor(full_miss_rate, shape.sockets_used)
        throttle *= machine.numa.qpi_throttle_factor(full_miss_rate, shape)
        self.dram_throttle = throttle
        self.capacity_core_equivalents = raw_capacity * throttle
        self.cpu = WaterfillServer(
            machine.sim, capacity=self.capacity_core_equivalents, name="sqlos-cpu"
        )
        # OLTP path: transactions run at DOP 1, one worker per core, so an
        # FCFS multi-server queue is an exact and O(1)-per-transaction
        # model.  Server count is the rounded core-equivalent capacity;
        # service times are rescaled so aggregate throughput stays exact.
        self._oltp_servers = max(1, int(round(self.capacity_core_equivalents)))
        self._oltp_rate_scale = self._oltp_servers / self.capacity_core_equivalents
        self.oltp_cpu = FcfsServer(
            machine.sim, capacity=self._oltp_servers, name="sqlos-oltp-cpu"
        )
        self._oltp_work_done = 0.0

    # -- fault injection -------------------------------------------------------

    def rebind_cpuset(self) -> None:
        """Re-read the machine's cpuset and rescale the core pools.

        Supports mid-run core offlining (:mod:`repro.faults`): after the
        injector shrinks (or restores) ``machine.cpuset``, aggregate
        capacity is recomputed through the same SMT/NUMA/DRAM-throttle
        pipeline used at construction and both pools are resized in
        place.  Per-workload characteristics (MPKI at the CAT
        allocation, per-core instruction rate) stay frozen — offlining
        changes how many cores run, not what each executes.
        """
        shape = self.machine.cpuset.shape()
        self.shape = shape
        raw_capacity = self.machine.cpu_model.capacity_core_equivalents(
            self.thread_characteristics, shape
        )
        full_miss_rate = raw_capacity * self.per_core_ips * self.mpki / 1000.0
        throttle = self.machine.dram.throttle_factor(full_miss_rate, shape.sockets_used)
        throttle *= self.machine.numa.qpi_throttle_factor(full_miss_rate, shape)
        self.dram_throttle = throttle
        self.capacity_core_equivalents = raw_capacity * throttle
        self.cpu.set_capacity(self.capacity_core_equivalents)
        # Keep the FCFS rate scale consistent with the new server count
        # so aggregate OLTP throughput tracks the shrunk capacity.
        self._oltp_servers = max(1, int(round(self.capacity_core_equivalents)))
        self._oltp_rate_scale = self._oltp_servers / self.capacity_core_equivalents
        self.oltp_cpu.set_capacity(self._oltp_servers)

    # -- execution ------------------------------------------------------------

    def cpu_seconds(self, instructions: float) -> float:
        """Single-core-equivalent seconds needed for an instruction budget."""
        return instructions / self.per_core_ips

    def _active_core_estimate(self, dop: int) -> int:
        """How many physical cores are busy right now, for turbo scaling.

        Turbo frequency follows *active* cores, not allocated ones: a
        serial query alone on a 32-core allocation still runs at the
        single-core turbo bin (this is why Fig 6's parallelism-insensitive
        queries are flat rather than faster at small MAXDOP).
        """
        physical = self.shape.physical_cores
        busy = self.cpu.active_weight() + self.oltp_cpu.in_use
        return max(1, min(physical, int(busy) + min(dop, physical)))

    def run_on_cpu(self, instructions: float, dop: int = 1) -> Generator:
        """Generator: execute *instructions* using at most *dop* cores.

        The job's rate cap carries the turbo adjustment: a core running
        nearly alone clocks at its turbo bin and genuinely delivers more
        than one all-core-frequency core-equivalent; under full load the
        water-filling shares dominate and the boost is moot.  Keeping the
        *work* unscaled keeps instruction accounting exact.
        """
        work = self.cpu_seconds(instructions)
        active = self._active_core_estimate(dop)
        total_physical = self.machine.topology.total_physical_cores
        freq_alloc = self.machine.cpu_model.frequency(
            self.shape.physical_cores, total_physical
        )
        freq_active = self.machine.cpu_model.frequency(active, total_physical)
        turbo_boost = freq_active / freq_alloc
        cap = float(min(dop, max(1, self.shape.logical_cpus))) * turbo_boost
        yield from self.cpu.submit(work, cap=cap)
        return None

    def run_transaction_cpu(self, instructions: float) -> Generator:
        """Generator: execute a DOP-1 transaction on the core pool."""
        instructions *= self.execution.txn_instruction_scale
        if self.shared_cpu_pool:
            yield from self.run_on_cpu(instructions, dop=1)
            return None
        work = instructions / self.per_core_ips
        oltp_cpu = self.oltp_cpu
        if not oltp_cpu.try_acquire():
            yield from oltp_cpu.acquire()
        yield Timeout(work * self._oltp_rate_scale)
        oltp_cpu.release()
        self._oltp_work_done += work
        return None

    @property
    def smt_multiplier(self) -> float:
        stall = self.thread_characteristics.memory_stall_fraction()
        return self.machine.cpu_model.smt.multiplier(stall)

    # -- counters ------------------------------------------------------------------

    def instructions_retired(self) -> float:
        # Advance the server's accounting to "now" before reading.
        self.cpu._advance()
        return (self.cpu.total_work_done + self._oltp_work_done) * self.per_core_ips

    def counter_totals(self) -> Dict[str, float]:
        instructions = self.instructions_retired()
        misses = instructions * self.mpki / 1000.0
        dram_read = misses * CACHE_LINE
        dram_write = dram_read * self.machine.dram.writeback_fraction
        return {
            INSTRUCTIONS: instructions,
            LLC_MISSES: misses,
            DRAM_READ_BYTES: dram_read,
            DRAM_WRITE_BYTES: dram_write,
            SSD_READ_BYTES: self.machine.ssd.bytes_read,
            SSD_WRITE_BYTES: self.machine.ssd.bytes_written,
        }
