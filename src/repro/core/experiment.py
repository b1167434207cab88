"""The experiment runner: one (workload, allocation) -> one Measurement.

Follows the paper's §3 methodology: build the machine, apply the resource
allocation (cpuset + CAT + blkio), start the engine, run the workload's
closed-loop clients for the measurement interval while PCM/iostat-style
counters sample every second, then gather throughput, wait breakdowns,
and plan signatures.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.backends import DEFAULT_BACKEND, make_backend
from repro.calibration import DEFAULT_MEASUREMENT_SECONDS
from repro.core.knobs import ResourceAllocation
from repro.core.measurement import Measurement
from repro.engine.engine import SqlEngine
from repro.errors import ConfigurationError
from repro.faults.spec import FaultSpec, simulation_faults
from repro.hardware.counters import CounterSampler
from repro.hardware.machine import Machine, MachineSpec
from repro.workloads import make_workload
from repro.workloads.arrivals import ArrivalSpec, OpenLoopDriver
from repro.workloads.base import ThroughputTracker, Workload
from repro.workloads.htap import HtapWorkload
from repro.workloads.oltp import OltpWorkloadBase
from repro.workloads.tpch import TPCH_QUERIES, tpch_query


@dataclass(frozen=True)
class ExperimentConfig:
    """A fully-specified experiment.

    ``faults`` is a tuple of :class:`~repro.faults.spec.FaultSpec`:
    simulation-level specs are injected into the run by a
    :class:`~repro.faults.injector.FaultInjector`; harness-level specs
    (worker crash/stall) are interpreted by the supervised sweep runner.
    Faults are part of the config — and therefore of the result-cache
    key — so a faulted run never aliases a fault-free one.

    ``backend`` names the engine personality to run on
    (:mod:`repro.backends`).  It is part of the result-cache key, so
    runs on different personalities can never collide.

    ``arrival`` switches the run from closed-loop clients to an
    open-loop arrival process
    (:class:`~repro.workloads.arrivals.ArrivalSpec`).  Because it is a
    config field it enters the result-cache digest, so open-loop points
    cache and resume through the supervised runner like any other grid
    point — and never alias the closed-loop run of the same allocation.
    """

    workload: str
    scale_factor: int
    allocation: ResourceAllocation = ResourceAllocation()
    duration: float = DEFAULT_MEASUREMENT_SECONDS
    seed: int = 0
    machine_spec: MachineSpec = MachineSpec()
    workload_kwargs: Dict = field(default_factory=dict)
    faults: Tuple[FaultSpec, ...] = ()
    backend: str = DEFAULT_BACKEND
    arrival: Optional[ArrivalSpec] = None

    def __post_init__(self):
        for key in self.workload_kwargs:
            # ``{1: x}`` and ``{"1": x}`` would share a cache key, and an
            # int key only fails later, in ``make_workload(**kwargs)``.
            if type(key) is not str:
                raise ConfigurationError(
                    "ExperimentConfig.workload_kwargs keys must be str, "
                    f"got {key!r}")
        # A NaN duration never lets the event loop reach its horizon and
        # a negative one silently measures nothing, so both fail here.
        if not 0 < self.duration < math.inf:
            raise ConfigurationError(
                "ExperimentConfig.duration must be finite and > 0, "
                f"got {self.duration!r}")
        if not self.scale_factor >= 1:
            raise ConfigurationError(
                "ExperimentConfig.scale_factor must be >= 1, "
                f"got {self.scale_factor!r}")


class Experiment:
    """Runs one configuration end to end."""

    def __init__(self, config: ExperimentConfig):
        self.config = config

    def _build_machine(self) -> Machine:
        machine = Machine(spec=self.config.machine_spec, seed=self.config.seed)
        self.config.allocation.apply_to(machine)
        return machine

    def _build_engine(self, machine: Machine, workload: Workload) -> SqlEngine:
        config = self.config
        backend = make_backend(config.backend)
        return backend.build_engine(machine, workload, config.allocation)

    def run(self) -> Measurement:
        config = self.config
        workload = make_workload(
            config.workload, config.scale_factor, **config.workload_kwargs
        )
        machine = self._build_machine()
        engine = self._build_engine(machine, workload)
        injector = None
        sim_faults = simulation_faults(config.faults)
        if sim_faults:
            from repro.faults.injector import FaultInjector

            injector = FaultInjector(machine, engine, faults=sim_faults)
            injector.install()
        tracker = ThroughputTracker()
        sampler = CounterSampler(machine.sim, engine)
        driver = None
        if config.arrival is not None:
            if not isinstance(workload, OltpWorkloadBase):
                raise ConfigurationError(
                    "open-loop arrivals need a transactional workload; "
                    f"{config.workload!r} has no demand generator"
                )
            driver = OpenLoopDriver.from_spec(
                workload, engine, config.arrival, config.duration,
                tracker=tracker,
            )
            driver.start(until=config.duration)
        else:
            workload.spawn_clients(engine, tracker, until=config.duration)
        machine.sim.run(until=config.duration)
        sampler.stop()
        if driver is not None:
            driver.result.finalize(config.duration)

        plan_signatures = self._collect_plan_signatures(engine, workload)
        semaphore = engine.semaphore.summary()
        secondary = None
        if isinstance(workload, HtapWorkload):
            secondary = workload.analytics_qph(tracker, config.duration)
        measurement = Measurement(
            workload=config.workload,
            scale_factor=config.scale_factor,
            allocation=config.allocation,
            duration=config.duration,
            primary_metric=workload.primary_metric(tracker, config.duration),
            counters=sampler.series,
            tracker=tracker,
            wait_times=dict(engine.locks.accounting.wait_time),
            plan_signatures=plan_signatures,
            secondary_metric=secondary,
            smt_multiplier=engine.sqlos.smt_multiplier,
            mpki_model=engine.sqlos.mpki,
            fault_summary=injector.summary() if injector is not None else None,
            grant_waits=semaphore["grant_waits"],
            grant_wait_seconds=semaphore["grant_wait_seconds"],
            grant_timeouts=semaphore["grant_timeouts"],
            grant_degrades=semaphore["grant_degrades"],
            grant_bypasses=semaphore["grant_bypasses"],
            grant_throttles=semaphore["grant_throttles"],
            grant_queue_peak=semaphore["grant_queue_peak"],
            backend=config.backend,
            offered_tps=(config.arrival.offered_tps
                         if config.arrival is not None else 0.0),
            arrival_sheds=(driver.result.dropped if driver is not None else 0),
            sheds_by_tenant=(dict(driver.result.dropped_by_tenant)
                             if driver is not None else {}),
        )
        # Suspended clients and the engine reference each other; closing
        # them lets reference counting free the run as soon as it returns.
        machine.sim.close()
        return measurement

    def _collect_plan_signatures(
        self, engine: SqlEngine, workload: Workload
    ) -> Dict[str, str]:
        """Record the plan shape chosen for each query under this
        allocation — §9 pitfall #6 says analyses must watch for plan
        changes across resource settings.

        ``tpch_query`` returns the per-scale-factor cached spec objects
        (the same ones the client streams planned with), and
        ``engine.optimize`` memoizes on ``(spec, effective DOP)`` — so
        for every query that ran during the measurement window this loop
        is a plan-cache hit, not a fresh optimization.  Allocation
        changes that *can* flip plans (MAXDOP via the governor, cores via
        the cpuset) land in a different engine instance with its own
        cache, which is exactly how Fig 7's Q20 flip stays observable.
        """
        signatures: Dict[str, str] = {}
        if self.config.workload == "tpch":
            for number in TPCH_QUERIES:
                spec = tpch_query(number, self.config.scale_factor)
                optimized = engine.optimize(spec)
                signatures[spec.name] = optimized.plan.signature()
        return signatures


def run_experiment(
    workload: str,
    scale_factor: int,
    allocation: Optional[ResourceAllocation] = None,
    duration: float = DEFAULT_MEASUREMENT_SECONDS,
    seed: int = 0,
    faults: Tuple[FaultSpec, ...] = (),
    backend: str = DEFAULT_BACKEND,
    **workload_kwargs,
) -> Measurement:
    """Convenience wrapper: run one experiment and return its measurement."""
    config = ExperimentConfig(
        workload=workload,
        scale_factor=scale_factor,
        allocation=allocation or ResourceAllocation(),
        duration=duration,
        seed=seed,
        workload_kwargs=dict(workload_kwargs),
        faults=tuple(faults),
        backend=backend,
    )
    return Experiment(config).run()
