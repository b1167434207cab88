"""Measurement: everything one experiment run produces.

Mirrors the paper's observables: the primary throughput metric (TPS or
QPS), MPKI, per-second bandwidth series with means and CDFs (Figs 3, 4),
wait-time breakdowns (Table 3), per-query latencies (Figs 6, 8), and the
plan signatures actually used (pitfall #6: detect optimizer adaptation).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.core.knobs import ResourceAllocation
from repro.engine.locks import WaitType
from repro.hardware.counters import (
    CounterSeries,
    DRAM_READ_BYTES,
    DRAM_WRITE_BYTES,
    SSD_READ_BYTES,
    SSD_WRITE_BYTES,
)
from repro.sim.stats import Cdf
from repro.units import to_mb_per_s
from repro.workloads.base import ThroughputTracker


@dataclass
class Measurement:
    """The result of one (workload, allocation) experiment run."""

    workload: str
    scale_factor: int
    allocation: ResourceAllocation
    duration: float
    primary_metric: float               # TPS (OLTP/HTAP) or QPS (DSS)
    counters: CounterSeries
    tracker: ThroughputTracker
    wait_times: Dict[WaitType, float] = field(default_factory=dict)
    plan_signatures: Dict[str, str] = field(default_factory=dict)
    secondary_metric: Optional[float] = None  # e.g. HTAP analytics QPH
    smt_multiplier: float = 1.0
    mpki_model: float = 0.0
    #: Fault-injection counters (None for fault-free runs); see
    #: :meth:`repro.faults.injector.FaultInjector.summary`.
    fault_summary: Optional[Dict[str, float]] = None
    # -- RESOURCE_SEMAPHORE overload counters (all zero with overload
    # -- protection off); see repro.engine.semaphore.ResourceSemaphore.
    grant_waits: int = 0                #: requests that queued for a grant
    grant_wait_seconds: float = 0.0     #: total RESOURCE_SEMAPHORE wait time
    grant_timeouts: int = 0             #: waits that hit grant_timeout_s
    grant_degrades: int = 0             #: grants shrunk to free memory (spill)
    grant_bypasses: int = 0             #: small-query bypass admissions
    grant_throttles: int = 0            #: requests refused a full queue
    grant_queue_peak: int = 0           #: max concurrent grant waiters
    backend: str = "rowstore-oltp"      #: engine personality (repro.backends)
    # -- open-loop arrival / fleet-SLO observables (repro.workloads
    # -- .arrivals, repro.fleet.cluster); zero / empty for closed-loop
    # -- runs, so the defaults keep seed measurements bit-identical.
    offered_tps: float = 0.0            #: open-loop offered rate (0 = closed-loop)
    arrival_sheds: int = 0              #: arrivals dropped at the admission bound
    #: per-tenant shed counts (empty without declared tenants) — SLO
    #: post-mortems need whose traffic was dropped, not just how much
    sheds_by_tenant: Dict[str, int] = field(default_factory=dict)

    # -- derived observables -------------------------------------------------

    @property
    def mpki(self) -> float:
        """Measured misses-per-kilo-instruction over the run."""
        return self.counters.mean_mpki()

    def mean_bandwidth_mb(self, counter: str) -> float:
        return to_mb_per_s(self.counters.mean(counter))

    @property
    def ssd_read_mb(self) -> float:
        return self.mean_bandwidth_mb(SSD_READ_BYTES)

    @property
    def ssd_write_mb(self) -> float:
        return self.mean_bandwidth_mb(SSD_WRITE_BYTES)

    @property
    def dram_read_mb(self) -> float:
        return self.mean_bandwidth_mb(DRAM_READ_BYTES)

    @property
    def dram_write_mb(self) -> float:
        return self.mean_bandwidth_mb(DRAM_WRITE_BYTES)

    def bandwidth_cdf(self, counter: str) -> Cdf:
        """Per-second bandwidth distribution (Fig 4 series)."""
        return self.counters.cdf(counter)

    def query_latency(self, name: str, percentile: float = 50.0) -> float:
        """Latency percentile of one completion class (e.g. "Q20")."""
        return self.tracker.latencies[name].percentile(percentile)

    def tail_latency_ms(self, percentile: float) -> float:
        """Latency percentile (ms) of the primary completion class.

        The fleet story is about tails: p99 hides the 1-in-1000 requests
        that autoscaling and shedding exist to protect, so p999 is a
        first-class observable alongside p50/p99.  NaN when the run
        recorded no completions (a fully-shed tenant, a failed point).
        """
        kind = "txn" if "txn" in self.tracker.latencies else "query"
        cdf = self.tracker.latencies.get(kind)
        if cdf is None:
            return float("nan")
        return cdf.percentile_ms(percentile)

    @property
    def p50_latency_ms(self) -> float:
        return self.tail_latency_ms(50.0)

    @property
    def p99_latency_ms(self) -> float:
        return self.tail_latency_ms(99.0)

    @property
    def p999_latency_ms(self) -> float:
        return self.tail_latency_ms(99.9)

    def mean_query_latency(self, name: str) -> float:
        cdf = self.tracker.latencies.get(name)
        if cdf is None or len(cdf) == 0:
            return float("nan")
        return cdf.mean()

    def wait_time(self, wait_type: WaitType) -> float:
        return self.wait_times.get(wait_type, 0.0)

    def lock_latch_pagelatch_total(self) -> float:
        return (
            self.wait_time(WaitType.LOCK)
            + self.wait_time(WaitType.LATCH)
            + self.wait_time(WaitType.PAGELATCH)
        )

    @property
    def degraded_gracefully(self) -> bool:
        """True when overload protection absorbed pressure this run —
        some request waited, timed out, degraded, or was throttled."""
        return (
            self.grant_waits > 0
            or self.grant_timeouts > 0
            or self.grant_degrades > 0
            or self.grant_throttles > 0
        )
