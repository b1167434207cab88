"""Open-loop arrival processes and traffic traces.

The benchmark configurations of §3 are *closed-loop*: a fixed client
population issues the next request when the previous one completes, so
offered load adapts to service capacity.  Cloud front-ends are often
better modelled *open-loop*: requests arrive at a fixed rate regardless
of completion, and latency explodes as utilization approaches one.

:class:`OpenLoopDriver` wraps any transactional workload's demand
generator with an arrival process, enabling latency-versus-offered-load
studies — the operating-point view behind the paper's SLA discussion
(§10's first research question notes runtime resource changes are
easiest to evaluate against a fixed load).

Beyond the constant-rate Poisson process the module models the arrival
*shapes* production front-ends actually see (the web-workload
characterization of Wang et al., PAPERS.md):

* ``diurnal`` — a sinusoidal day/night swing (:class:`DiurnalTrace`);
* ``burst`` — a two-state Markov-modulated Poisson process that dwells
  in a calm state and episodically jumps to a multiplied rate
  (:class:`MmppTrace`);
* ``flash-crowd`` — a constant baseline with one step-function spike
  (:class:`FlashCrowdTrace`), the autoscaler reaction-time stressor.

Every stochastic choice draws from a named
:class:`~repro.sim.randomness.RandomStreams` stream, so traces are
bit-reproducible per seed and independent of other consumers.

Two integration layers sit on top:

* :class:`ArrivalSpec` — a frozen, hashable description of an arrival
  process that rides on
  :class:`~repro.core.experiment.ExperimentConfig`.  A config with an
  arrival spec runs open-loop through the standard harness, which means
  open-loop points flow through the supervised runner, the ResultCache,
  and the attempt journal like any other grid point (they cache and
  resume); and
* :func:`run_open_loop_sweep` — a latency-vs-offered-load sweep routed
  through :func:`~repro.core.sweeps.run_sweep` (caching, parallelism,
  supervision) instead of hand-built engines.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Dict, Generator, List, Optional, Sequence, Tuple

import numpy as np

from repro.engine.engine import SqlEngine
from repro.errors import WorkloadError
from repro.sim.process import Timeout
from repro.sim.randomness import draw_index, weight_cdf
from repro.sim.stats import Cdf
from repro.workloads.base import ThroughputTracker
from repro.workloads.oltp import OltpWorkloadBase

#: Arrival-trace kinds accepted by :class:`ArrivalSpec` / the fleet CLI.
TRACE_KINDS = ("poisson", "deterministic", "diurnal", "burst", "flash-crowd")


# ---------------------------------------------------------------------------
# Rate traces
# ---------------------------------------------------------------------------

class RateTrace:
    """Instantaneous offered rate as a function of simulated time.

    Arrivals are generated by thinning a homogeneous Poisson process at
    :meth:`peak_rate`: candidate arrivals are drawn at the peak and kept
    with probability ``rate_at(t) / peak_rate()``.  ``rate_at`` is only
    ever queried at non-decreasing times, which lets the MMPP advance
    its modulating chain lazily.
    """

    def rate_at(self, t: float) -> float:
        raise NotImplementedError

    def peak_rate(self) -> float:
        raise NotImplementedError


class ConstantTrace(RateTrace):
    """Plain Poisson arrivals at a fixed rate."""

    def __init__(self, rate: float):
        self.rate = rate

    def rate_at(self, t: float) -> float:
        return self.rate

    def peak_rate(self) -> float:
        return self.rate


class DiurnalTrace(RateTrace):
    """Sinusoidal day/night swing around the base rate.

    Starts at the trough (``t=0`` is night) so short runs exercise the
    ramp; ``amplitude`` is the swing as a fraction of the base rate.
    """

    def __init__(self, rate: float, period_s: float, amplitude: float):
        if not 0.0 <= amplitude < 1.0:
            raise WorkloadError("diurnal amplitude must be in [0, 1)")
        if period_s <= 0:
            raise WorkloadError("diurnal period must be positive")
        self.rate = rate
        self.period_s = period_s
        self.amplitude = amplitude

    def rate_at(self, t: float) -> float:
        phase = 2.0 * math.pi * t / self.period_s - 0.5 * math.pi
        return self.rate * (1.0 + self.amplitude * math.sin(phase))

    def peak_rate(self) -> float:
        return self.rate * (1.0 + self.amplitude)


class MmppTrace(RateTrace):
    """Two-state Markov-modulated Poisson process (calm / burst).

    The modulating chain dwells exponentially in each state; the burst
    state multiplies the base rate.  Dwell times come from the trace's
    own named RNG stream, so the burst timeline is a pure function of
    the seed — independent of how many arrivals are drawn.
    """

    def __init__(self, rate: float, burst_multiplier: float,
                 burst_fraction: float, burst_dwell_s: float,
                 rng: np.random.Generator):
        if burst_multiplier < 1.0:
            raise WorkloadError("burst multiplier must be >= 1")
        if not 0.0 < burst_fraction < 1.0:
            raise WorkloadError("burst fraction must be in (0, 1)")
        if burst_dwell_s <= 0:
            raise WorkloadError("burst dwell must be positive")
        self.rate = rate
        self.burst_multiplier = burst_multiplier
        self.burst_dwell_s = burst_dwell_s
        self.calm_dwell_s = burst_dwell_s * (1.0 - burst_fraction) / burst_fraction
        self._rng = rng
        self._bursting = False
        self._next_switch = float(rng.exponential(self.calm_dwell_s))

    def rate_at(self, t: float) -> float:
        while t >= self._next_switch:
            self._bursting = not self._bursting
            dwell = (self.burst_dwell_s if self._bursting
                     else self.calm_dwell_s)
            self._next_switch += float(self._rng.exponential(dwell))
        if self._bursting:
            return self.rate * self.burst_multiplier
        return self.rate

    def peak_rate(self) -> float:
        return self.rate * self.burst_multiplier


class FlashCrowdTrace(RateTrace):
    """Constant baseline with one step-function spike.

    The spike window is expressed as fractions of the run duration, so
    the same spec stresses a 5-second test and a 500-second soak at the
    same relative point.
    """

    def __init__(self, rate: float, duration: float, flash_at: float,
                 flash_magnitude: float, flash_width: float):
        if flash_magnitude < 1.0:
            raise WorkloadError("flash magnitude must be >= 1")
        if not 0.0 <= flash_at <= 1.0 or not 0.0 < flash_width <= 1.0:
            raise WorkloadError("flash window fractions out of range")
        self.rate = rate
        self.flash_magnitude = flash_magnitude
        self.start = flash_at * duration
        self.end = min(duration, (flash_at + flash_width) * duration)

    def rate_at(self, t: float) -> float:
        if self.start <= t < self.end:
            return self.rate * self.flash_magnitude
        return self.rate

    def peak_rate(self) -> float:
        return self.rate * self.flash_magnitude


# ---------------------------------------------------------------------------
# Specs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TenantTraffic:
    """One tenant's share of an open-loop arrival stream.

    ``priority`` ranks shedding order — 0 is the most protected; higher
    numbers shed first (see :mod:`repro.fleet.cluster`)."""

    name: str
    weight: float = 1.0
    priority: int = 1

    def __post_init__(self):
        if self.weight <= 0:
            raise WorkloadError(f"tenant {self.name}: weight must be positive")
        if self.priority < 0:
            raise WorkloadError(f"tenant {self.name}: priority must be >= 0")


@dataclass(frozen=True)
class ArrivalSpec:
    """A fully-specified open-loop arrival process.

    Frozen and hashable so it can ride on
    :class:`~repro.core.experiment.ExperimentConfig` (and therefore into
    the result-cache digest): an open-loop point can never alias the
    closed-loop run of the same allocation.
    """

    offered_tps: float
    trace: str = "poisson"
    max_in_flight: int = 10_000
    tenants: Tuple[TenantTraffic, ...] = ()
    #: diurnal shape
    period_s: float = 60.0
    amplitude: float = 0.6
    #: burst (MMPP) shape
    burst_multiplier: float = 8.0
    burst_fraction: float = 0.15
    burst_dwell_s: float = 2.0
    #: flash-crowd shape (fractions of the run duration)
    flash_at: float = 0.5
    flash_magnitude: float = 10.0
    flash_width: float = 0.1
    stream: str = "openloop"

    def __post_init__(self):
        if self.offered_tps <= 0:
            raise WorkloadError("offered rate must be positive")
        if self.max_in_flight < 1:
            raise WorkloadError("need at least one in-flight slot")
        if self.trace not in TRACE_KINDS:
            raise WorkloadError(
                f"unknown trace {self.trace!r}; one of {TRACE_KINDS}"
            )

    def build_trace(self, duration: float,
                    rng: np.random.Generator) -> Optional[RateTrace]:
        """Instantiate the rate trace (None for the constant kinds,
        which keep the historical constant-gap draw sequence)."""
        if self.trace in ("poisson", "deterministic"):
            return None
        if self.trace == "diurnal":
            return DiurnalTrace(self.offered_tps, self.period_s,
                                self.amplitude)
        if self.trace == "burst":
            return MmppTrace(self.offered_tps, self.burst_multiplier,
                             self.burst_fraction, self.burst_dwell_s, rng)
        return FlashCrowdTrace(self.offered_tps, duration, self.flash_at,
                               self.flash_magnitude, self.flash_width)


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------

@dataclass
class OpenLoopResult:
    """Observables of one open-loop run."""

    offered_tps: float
    completed: int = 0
    dropped: int = 0
    latencies: Cdf = field(default_factory=Cdf)
    #: Per-tenant shed accounting (empty when no tenants were declared):
    #: a fleet post-mortem needs *whose* traffic was dropped, not just
    #: how much.
    dropped_by_tenant: Dict[str, int] = field(default_factory=dict)
    completed_by_tenant: Dict[str, int] = field(default_factory=dict)

    @property
    def completed_tps(self) -> float:
        return self._rate

    _rate: float = 0.0

    def finalize(self, duration: float) -> None:
        self._rate = self.completed / duration if duration > 0 else 0.0

    def percentile_ms(self, p: float) -> float:
        return self.latencies.percentile(p) * 1000.0


class OpenLoopDriver:
    """Issues transactions at a configured rate against an engine.

    ``max_in_flight`` bounds concurrency (an admission queue); arrivals
    beyond the bound are dropped and counted, like a front-end shedding
    load.  With ``trace`` set, arrivals follow the non-homogeneous rate
    via thinning; without it, the historical constant-rate draw sequence
    is preserved bit-for-bit.  Declared ``tenants`` attribute each
    arrival (and each shed) to a weighted tenant.
    """

    def __init__(
        self,
        workload: OltpWorkloadBase,
        engine: SqlEngine,
        offered_tps: float,
        deterministic: bool = False,
        max_in_flight: int = 10_000,
        seed_stream: str = "openloop",
        trace: Optional[RateTrace] = None,
        tenants: Sequence[TenantTraffic] = (),
        tracker: Optional[ThroughputTracker] = None,
    ):
        if offered_tps <= 0:
            raise WorkloadError("offered rate must be positive")
        if max_in_flight < 1:
            raise WorkloadError("need at least one in-flight slot")
        self.workload = workload
        self.engine = engine
        self.offered_tps = offered_tps
        self.deterministic = deterministic
        self.max_in_flight = max_in_flight
        self.trace = trace
        self.tenants = tuple(tenants)
        self.tracker = tracker
        self._rng = engine.machine.streams.get(seed_stream)
        self._in_flight = 0
        self.result = OpenLoopResult(offered_tps=offered_tps)
        self._tenant_cdf = (
            weight_cdf([t.weight for t in self.tenants]) if self.tenants
            else None
        )

    @classmethod
    def from_spec(
        cls,
        workload: OltpWorkloadBase,
        engine: SqlEngine,
        spec: ArrivalSpec,
        duration: float,
        tracker: Optional[ThroughputTracker] = None,
    ) -> "OpenLoopDriver":
        """Build a driver from a hashable :class:`ArrivalSpec` (the
        :class:`~repro.core.experiment.Experiment` integration point)."""
        trace_rng = engine.machine.streams.get(spec.stream + ".trace")
        return cls(
            workload,
            engine,
            offered_tps=spec.offered_tps,
            deterministic=spec.trace == "deterministic",
            max_in_flight=spec.max_in_flight,
            seed_stream=spec.stream,
            trace=spec.build_trace(duration, trace_rng),
            tenants=spec.tenants,
            tracker=tracker,
        )

    def start(self, until: float) -> None:
        self.engine.machine.sim.spawn(self._arrivals(until), name="open-loop")

    def run(self, duration: float) -> OpenLoopResult:
        """Convenience: start, simulate, finalize, return the result."""
        self.start(until=duration)
        self.engine.machine.sim.run(until=duration)
        self.result.finalize(duration)
        return self.result

    # -- internals -------------------------------------------------------------

    def _arrivals(self, until: float) -> Generator:
        sim = self.engine.machine.sim
        types = self.workload.transaction_types()
        type_cdf = weight_cdf([t.weight for t in types])
        peak = self.trace.peak_rate() if self.trace is not None else self.offered_tps
        while sim.now < until:
            gap = (
                1.0 / self.offered_tps
                if self.deterministic
                else float(self._rng.exponential(1.0 / peak))
            )
            yield Timeout(gap)
            if sim.now >= until:
                break
            if self.trace is not None:
                # Thinning: keep the candidate with probability
                # rate(t)/peak, turning the homogeneous candidate stream
                # into the trace's non-homogeneous one.
                keep = float(self._rng.uniform()) * peak
                if keep > self.trace.rate_at(sim.now):
                    continue
            tenant = None
            if self._tenant_cdf is not None:
                tenant = self.tenants[draw_index(self._rng, self._tenant_cdf)]
            if self._in_flight >= self.max_in_flight:
                self.result.dropped += 1
                if tenant is not None:
                    by = self.result.dropped_by_tenant
                    by[tenant.name] = by.get(tenant.name, 0) + 1
                continue
            txn_type = types[draw_index(self._rng, type_cdf)]
            demand = self.workload.build_demand(self.engine, txn_type, self._rng)
            self._in_flight += 1
            sim.spawn(self._execute(demand, tenant), name="open-loop-txn")
        return None

    def _execute(self, demand, tenant: Optional[TenantTraffic]) -> Generator:
        result = yield from self.engine.run_transaction(demand)
        self._in_flight -= 1
        self.result.completed += 1
        self.result.latencies.add(result.elapsed)
        if tenant is not None:
            by = self.result.completed_by_tenant
            by[tenant.name] = by.get(tenant.name, 0) + 1
        if self.tracker is not None:
            self.tracker.record(self.workload.primary_kind, result.elapsed)
        return None


def latency_curve(
    workload_factory,
    engine_factory,
    offered_rates: List[float],
    duration: float = 10.0,
) -> List[OpenLoopResult]:
    """Latency/throughput at each offered rate (fresh engine per point)."""
    results = []
    for rate in offered_rates:
        workload = workload_factory()
        engine = engine_factory(workload)
        driver = OpenLoopDriver(workload, engine, offered_tps=rate)
        results.append(driver.run(duration))
    return results


def run_open_loop_sweep(
    workload: str,
    scale_factor: int,
    offered_rates: Sequence[float],
    arrival: Optional[ArrivalSpec] = None,
    duration: float = 10.0,
    seed: int = 0,
    allocation=None,
    jobs: int = 1,
    cache=None,
    policy=None,
):
    """Latency vs offered load through the supervised runner.

    Unlike :func:`latency_curve` (which builds engines by hand and so
    never caches or resumes), every offered-rate point here is a full
    :class:`~repro.core.experiment.ExperimentConfig` carrying an
    :class:`ArrivalSpec` — it flows through
    :func:`~repro.core.sweeps.run_sweep`, hits the ResultCache, records
    journal attempts, and parallelizes with ``jobs`` like any other
    sweep.  Returns the list of :class:`~repro.core.measurement
    .Measurement` (open-loop observables under ``offered_tps`` /
    ``arrival_sheds`` / ``sheds_by_tenant``).
    """
    # Imported lazily: repro.core imports repro.workloads at module load.
    from repro.core.experiment import ExperimentConfig
    from repro.core.knobs import ResourceAllocation
    from repro.core.sweeps import run_sweep

    template = arrival if arrival is not None else ArrivalSpec(offered_tps=1.0)
    configs = [
        ExperimentConfig(
            workload=workload,
            scale_factor=scale_factor,
            allocation=allocation or ResourceAllocation(),
            duration=duration,
            seed=seed,
            arrival=replace(template, offered_tps=float(rate)),
        )
        for rate in offered_rates
    ]
    return run_sweep(configs, jobs=jobs, cache=cache, policy=policy)
