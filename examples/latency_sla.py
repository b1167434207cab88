#!/usr/bin/env python3
"""Open-loop latency study: where does the SLA break?

The paper's closed-loop benchmarks (§3) measure capacity; a DBaaS
operator also needs the *operating curve*: tail latency versus offered
load at a fixed resource allocation, and how much load a smaller
allocation can carry before violating a latency SLO.

This example drives ASDB with Poisson arrivals at increasing rates on
two allocations (full machine vs half machine) and reports the highest
rate whose p99 stays under the SLO.
"""

from repro.core import ResourceAllocation
from repro.core.report import format_table
from repro.engine.engine import SqlEngine
from repro.engine.resource_governor import ResourceGovernor
from repro.hardware.machine import Machine
from repro.workloads.arrivals import OpenLoopDriver
from repro.workloads.asdb import AsdbWorkload

SLO_P99_MS = 120.0
RATES = [200, 600, 1000, 1400, 1600, 1800]


def engine_for(allocation: ResourceAllocation, workload) -> SqlEngine:
    machine = Machine()
    allocation.apply_to(machine)
    return SqlEngine(
        machine, workload.database, workload.execution_characteristics(),
        governor=ResourceGovernor(), **workload.engine_parameters(),
    )


def operating_curve(allocation: ResourceAllocation, label: str):
    rows = []
    best = None
    for rate in RATES:
        workload = AsdbWorkload(2000, clients=1)
        engine = engine_for(allocation, workload)
        result = OpenLoopDriver(workload, engine, offered_tps=rate).run(10.0)
        p99 = result.latencies.percentile_ms(99)
        ok = p99 <= SLO_P99_MS and result.dropped == 0
        if ok:
            best = rate
        rows.append((rate, f"{result.completed_tps:.0f}",
                     f"{p99:.1f}", "yes" if ok else "no"))
    print(format_table(
        ["offered TPS", "completed TPS", "p99 ms", f"meets {SLO_P99_MS:.0f}ms SLO"],
        rows, title=f"\n{label}",
    ))
    return best


def main() -> None:
    full = operating_curve(ResourceAllocation(), "Full machine (32 cores)")
    half = operating_curve(ResourceAllocation(logical_cores=16),
                           "Half machine (16 cores)")
    print(
        f"\nHighest SLO-compliant load: {full} TPS on the full machine vs "
        f"{half} TPS on half — the capacity you actually sell is set by the "
        "latency knee, not by peak throughput."
    )


if __name__ == "__main__":
    main()
