"""Extension bench: open-loop tail-latency operating curve for ASDB.

Complements the closed-loop §3 methodology with the latency-versus-load
view a DBaaS SLO is written against: p99 latency stays flat until
utilization approaches saturation, then explodes (the queueing knee).
"""

from repro.core.knobs import ResourceAllocation
from repro.core.report import format_table
from repro.engine.engine import SqlEngine
from repro.engine.resource_governor import ResourceGovernor
from repro.hardware.machine import Machine
from repro.workloads.arrivals import OpenLoopDriver
from repro.workloads.asdb import AsdbWorkload

RATES = (200, 800, 1400, 1700)


def test_openloop_latency_knee(benchmark, emit):
    def run():
        rows = []
        for rate in RATES:
            workload = AsdbWorkload(2000, clients=1)
            machine = Machine()
            ResourceAllocation().apply_to(machine)
            engine = SqlEngine(
                machine, workload.database,
                workload.execution_characteristics(),
                governor=ResourceGovernor(), **workload.engine_parameters(),
            )
            result = OpenLoopDriver(workload, engine, offered_tps=rate).run(8.0)
            rows.append((rate, result.completed_tps,
                         result.latencies.percentile_ms(50),
                         result.latencies.percentile_ms(99)))
        return rows
    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    emit(
        "Open-loop ASDB operating curve (full machine)",
        format_table(["offered TPS", "completed TPS", "p50 ms", "p99 ms"],
                     rows),
    )
    p99 = {rate: tail for rate, _, _, tail in rows}
    # Flat at low load, exploding near saturation.
    assert p99[800] < 2.5 * p99[200]
    assert p99[1700] > 3.0 * p99[800]
    # Completed throughput tracks offered load until the knee.
    for rate, completed, _, _ in rows[:3]:
        assert completed >= 0.9 * rate
