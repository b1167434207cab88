"""Co-located tenants on one machine: partitioned CPU/LLC, shared SSD.

The paper closes §10 asking how caches and cores should be shared when a
"well-designed server running diverse database workloads" hosts several
tenants, citing Heracles-style CAT isolation [47].  This module runs that
experiment: each tenant gets a disjoint cpuset and a private CAT
partition (which, per the CAT model, isolates LLC behaviour completely)
and a slice of DRAM, while the NVMe device — the resource CAT cannot
partition — remains shared, so IO interference is real.

The partitioned slice is expressed as a *tenant machine*: a shallow view
of the base machine with its own cpuset, CAT allocation, and DRAM share,
sharing the simulator, SSD, topology, and CPU model.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, replace as dc_replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.backends import DEFAULT_BACKEND, make_backend
from repro.core.knobs import ResourceAllocation
from repro.errors import ConfigurationError
from repro.hardware.cache import LastLevelCache
from repro.hardware.cgroups import CpuSet
from repro.hardware.machine import Machine
from repro.workloads import make_workload
from repro.workloads.base import ThroughputTracker


@dataclass(frozen=True)
class TenantSpec:
    """One tenant's workload and its slice of the machine."""

    name: str
    workload: str
    scale_factor: int
    logical_cores: int
    llc_mb: int
    memory_fraction: float = 0.5
    #: Engine personality this tenant runs (see :mod:`repro.backends`) —
    #: heterogeneous fleets (OLTP rowstore next to a DSS columnstore)
    #: are the interesting §10 co-location case.
    backend: str = DEFAULT_BACKEND

    def __post_init__(self):
        if self.logical_cores < 1:
            raise ConfigurationError(f"{self.name}: need at least one core")
        if self.llc_mb < 2:
            raise ConfigurationError(f"{self.name}: CAT granularity is 2 MB")
        if not 0.0 < self.memory_fraction <= 1.0:
            raise ConfigurationError(f"{self.name}: memory fraction in (0, 1]")
        make_backend(self.backend)  # fail fast on unknown personalities


@dataclass
class TenantResult:
    """Throughput of one tenant in a co-located run."""

    name: str
    workload: str
    scale_factor: int
    primary_metric: float
    tracker: ThroughputTracker
    backend: str = DEFAULT_BACKEND


def tenant_machine(base: Machine, cpu_ids: frozenset, llc_mb: int,
                   memory_fraction: float) -> Machine:
    """A partitioned view of *base*: private cpuset, CAT partition, and
    DRAM share; shared simulator, SSD, topology, CPU model, and streams."""
    view = copy.copy(base)
    view.cpuset = CpuSet(topology=base.topology)
    view.cpuset.set_cpus(cpu_ids)
    view.llc = LastLevelCache(
        sockets=base.llc.sockets,
        size_per_socket=base.llc.size_per_socket,
        ways_per_socket=base.llc.ways_per_socket,
    )
    view.llc.set_allocation_mb_total(llc_mb)
    view.dram = dc_replace(
        base.dram,
        capacity_bytes=int(base.dram.capacity_bytes * memory_fraction),
    )
    return view


def _assign_cores(base: Machine, tenants: Sequence[TenantSpec]) -> List[frozenset]:
    """Carve disjoint cpusets in the §4 allocation order."""
    total = base.topology.total_logical_cpus
    needed = sum(t.logical_cores for t in tenants)
    if needed > total:
        raise ConfigurationError(
            f"tenants need {needed} logical cores; machine has {total}"
        )
    order = sorted(
        base.topology.paper_allocation(total),
        key=lambda cpu_id: (base.topology.cpu(cpu_id).smt_index,
                            base.topology.cpu(cpu_id).physical_core),
    )
    assignments: List[frozenset] = []
    cursor = 0
    for tenant in tenants:
        assignments.append(frozenset(order[cursor:cursor + tenant.logical_cores]))
        cursor += tenant.logical_cores
    return assignments


def run_colocated(
    tenants: Sequence[TenantSpec],
    duration: float = 15.0,
    seed: int = 0,
    workload_kwargs: Optional[Dict[str, dict]] = None,
) -> List[TenantResult]:
    """Run every tenant concurrently on one machine and report each
    tenant's primary metric.

    CPU, LLC, and DRAM are partitioned per the specs; the SSD (data,
    log, and tempdb traffic) is shared, so storage interference between
    tenants is captured — the §6 caveat that bandwidth, unlike cache
    ways, has no CAT.
    """
    if not tenants:
        raise ConfigurationError("need at least one tenant")
    total_llc = sum(t.llc_mb for t in tenants)
    base = Machine(seed=seed)
    if total_llc > base.llc.total_size // (1024 * 1024):
        raise ConfigurationError("CAT partitions exceed the LLC")
    cpu_slices = _assign_cores(base, tenants)

    runs: List[Tuple[TenantSpec, ThroughputTracker, object]] = []
    for tenant, cpu_ids in zip(tenants, cpu_slices):
        kwargs = (workload_kwargs or {}).get(tenant.name, {})
        workload = make_workload(tenant.workload, tenant.scale_factor, **kwargs)
        view = tenant_machine(base, cpu_ids, tenant.llc_mb,
                              tenant.memory_fraction)
        # The backend recipe with this allocation reduces, for the
        # default rowstore personality, to the historical construction
        # (governor = ResourceGovernor(max_dop=logical_cores), no cost
        # model) — tenants only diverge when they opt into one.
        engine = make_backend(tenant.backend).build_engine(
            view, workload,
            ResourceAllocation(logical_cores=tenant.logical_cores,
                               llc_mb=tenant.llc_mb),
        )
        tracker = ThroughputTracker()
        workload.spawn_clients(engine, tracker, until=duration)
        runs.append((tenant, tracker, workload))

    base.sim.run(until=duration)

    return [
        TenantResult(
            name=tenant.name,
            workload=tenant.workload,
            scale_factor=tenant.scale_factor,
            primary_metric=workload.primary_metric(tracker, duration),
            tracker=tracker,
            backend=tenant.backend,
        )
        for tenant, tracker, workload in runs
    ]
