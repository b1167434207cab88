"""Serial sim-kernel bench: counter rollups and the event heap.

Microbenchmarks the serial hot paths the sweep runner spends its time in,
plus a mini Fig-2 regeneration as the end-to-end guard.  Emits one JSON
document (written to ``BENCH_sim_kernel.json`` at the repo root):

* ``counter_rollup`` — report-style rollups (four bandwidth means plus
  the run MPKI, queried repeatedly per measurement, as the figure
  benches do) via per-call Python ``sum`` walks vs the memoized-array
  path in :class:`CounterSeries`.  Must be >= 2x;
* ``events`` — :meth:`EventLoop.schedule_batch` vs one
  :meth:`schedule_at` call per event (scheduling phase only — the drain
  costs the same either way and would drown the comparison in noise),
  drain order asserted identical untimed, plus a mass-cancellation drain
  exercising lazy-deletion compaction.  Batching must be >= 1.0x or the
  path has regressed;
* ``fig2_mini`` — a short serial ASDB core sweep timed end to end
  (``points_per_second`` is the number the perf-smoke regression check
  tracks across commits);
* ``olap_mini`` — the OLAP anchor beside it: one Fig 5 read-cap point
  (TPC-H through the cgroup and device token buckets) and one HTAP
  point (the water-filling CPU server), timed the same way and gated
  the same way.

Thresholds live in :func:`check_report`; ``benchmarks/check_perf_smoke.py``
re-applies them in CI against the committed baseline.
"""

import gc
import json
import time
from pathlib import Path

try:
    from benchmarks.bench_runner_scaling import effective_cores
except ImportError:  # executed as a script: benchmarks/ is sys.path[0]
    from bench_runner_scaling import effective_cores
from repro.core.sweeps import core_sweep, read_bandwidth_sweep, run_sweep
from repro.hardware.counters import (
    ALL_COUNTERS,
    CounterSeries,
    DRAM_READ_BYTES,
    DRAM_WRITE_BYTES,
    INSTRUCTIONS,
    LLC_MISSES,
    SSD_READ_BYTES,
    SSD_WRITE_BYTES,
)
from repro.sim.events import EventLoop
from repro.units import mb_per_s

_REPO_ROOT = Path(__file__).resolve().parent.parent

ROLLUP_TICKS = 100_000      # simulated seconds of counter samples
ROLLUP_PASSES = 50          # report-style repeated queries per series
EVENT_COUNT = 30_000


def _best_of(repeats, fn):
    """Best-of-N wall time with the cyclic GC paused during each run.

    The microbenches allocate hundreds of thousands of small objects per
    run; generational collections triggered mid-run add superlinear,
    scheduling-dependent noise that once made the event-batch comparison
    a coin flip.  Collection cost is paid (and measured) by neither side.
    """
    best = float("inf")
    for _ in range(repeats):
        gc_was_enabled = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            fn()
            best = min(best, time.perf_counter() - start)
        finally:
            if gc_was_enabled:
                gc.enable()
            gc.collect()
    return best


def bench_counter_rollup():
    """Per-call list walks vs the memoized-array rollup path."""
    series = CounterSeries()
    for k, name in enumerate(ALL_COUNTERS):
        series.rates[name] = [(i % 977) * (k + 1) * 1.37 for i in range(ROLLUP_TICKS)]
    bandwidth = (DRAM_READ_BYTES, DRAM_WRITE_BYTES, SSD_READ_BYTES, SSD_WRITE_BYTES)

    def list_walk():
        out = 0.0
        for _ in range(ROLLUP_PASSES):
            for name in bandwidth:
                values = series.rates[name]
                out += sum(values) / len(values)
            instructions = sum(series.rates[INSTRUCTIONS])
            misses = sum(series.rates[LLC_MISSES])
            out += 1000.0 * misses / instructions
        return out

    def vectorized():
        out = 0.0
        for _ in range(ROLLUP_PASSES):
            for name in bandwidth:
                out += series.mean(name)
            out += series.mean_mpki()
        return out

    list_seconds = _best_of(3, list_walk)
    vector_seconds = _best_of(3, vectorized)
    assert abs(list_walk() - vectorized()) < 1e-6 * abs(list_walk())
    return {
        "ticks": ROLLUP_TICKS,
        "passes": ROLLUP_PASSES,
        "list_walk_seconds": round(list_seconds, 5),
        "vectorized_seconds": round(vector_seconds, 5),
        "speedup": round(list_seconds / vector_seconds, 1),
    }


def _event_times():
    # Deterministic pseudo-shuffled schedule times (no RNG in benches).
    return [((i * 2654435761) % 1000003) / 1000.0 for i in range(EVENT_COUNT)]


def bench_events():
    """Batch scheduling vs one schedule_at per event, plus compaction.

    The timed section is the *scheduling* phase only: draining the heap
    costs the same either way (and dwarfs scheduling), so folding it into
    the timings reduced the batch comparison to coin-flip noise — which
    is how a real batching regression once hid behind a "0.95x, close
    enough" reading.  Drain-order equivalence is asserted separately,
    untimed.
    """
    times = _event_times()

    def _noop(ev):
        return None

    def one_by_one(callback=_noop):
        loop = EventLoop()
        for i, t in enumerate(times):
            loop.schedule_at(t, callback, i)
        return loop

    def batched(callback=_noop):
        loop = EventLoop()
        loop.schedule_batch((t, callback, i) for i, t in enumerate(times))
        return loop

    loop_seconds = _best_of(5, one_by_one)
    batch_seconds = _best_of(5, batched)

    def drain_order(loop):
        fired = []
        while loop.step():
            pass
        return fired

    def record_into(fired):
        return lambda ev: fired.append(ev.payload)

    serial_order: list = []
    batch_order: list = []
    drain_order(one_by_one(record_into(serial_order)))
    drain_order(batched(record_into(batch_order)))
    assert serial_order == batch_order, "batch scheduling changed drain order"

    # Mass cancellation: resource waiters cancel wakeups constantly; the
    # heap must compact instead of carrying the corpses to the end.
    loop = EventLoop()
    events = [loop.schedule_at(t, lambda ev: None) for t in times]
    start = time.perf_counter()
    for event in events[::4]:
        event.cancel()
    for event in events[1::2]:
        event.cancel()
    live_after_cancel = len(loop)
    while loop.step():
        pass
    cancelled_drain_seconds = time.perf_counter() - start

    return {
        "events": EVENT_COUNT,
        "loop_seconds": round(loop_seconds, 5),
        "batch_seconds": round(batch_seconds, 5),
        "batch_speedup": round(loop_seconds / batch_seconds, 2),
        "compactions": loop.compactions,
        "live_after_mass_cancel": live_after_cancel,
        "cancelled_drain_seconds": round(cancelled_drain_seconds, 5),
    }


def bench_fig2_mini(duration_scale):
    """End-to-end serial guard: a short ASDB core sweep (the Fig 2 path)."""
    configs = list(core_sweep("asdb", 2000, duration_scale=duration_scale))
    seconds = _best_of(2, lambda: run_sweep(configs, jobs=1))
    return {
        "points": len(configs),
        "duration_scale": duration_scale,
        "seconds": round(seconds, 4),
        "points_per_second": round(len(configs) / seconds, 3),
    }


def bench_olap_mini(duration_scale):
    """End-to-end OLAP guard: a Fig 5 read-cap point and an HTAP point."""
    configs = (read_bandwidth_sweep([mb_per_s(800)], duration_scale=duration_scale)
               + core_sweep("htap", 5000, cores=(32,), duration_scale=duration_scale))
    seconds = _best_of(2, lambda: run_sweep(configs, jobs=1))
    return {
        "points": len(configs),
        "duration_scale": duration_scale,
        "seconds": round(seconds, 4),
        "points_per_second": round(len(configs) / seconds, 3),
    }


def run_kernel_study(duration_scale):
    return {
        "bench": "sim_kernel",
        "effective_cores": effective_cores(),
        "counter_rollup": bench_counter_rollup(),
        "events": bench_events(),
        "fig2_mini": bench_fig2_mini(duration_scale * 0.5),
        "olap_mini": bench_olap_mini(duration_scale * 0.5),
    }


def check_report(report):
    """Acceptance bars for the serial kernel."""
    rollup = report["counter_rollup"]
    assert rollup["speedup"] >= 2.0, (
        f"counter rollup only {rollup['speedup']}x faster than list walks"
    )
    events = report["events"]
    assert events["compactions"] >= 1, "mass cancellation never compacted"
    assert events["batch_speedup"] >= 1.0, (
        f"schedule_batch slower than per-event scheduling "
        f"({events['batch_speedup']}x) — batching must win or be removed"
    )


def test_sim_kernel(benchmark, emit, duration_scale):
    report = benchmark.pedantic(
        run_kernel_study, args=(duration_scale,), rounds=1, iterations=1,
    )
    check_report(report)
    payload = json.dumps(report, indent=2, sort_keys=True)
    (_REPO_ROOT / "BENCH_sim_kernel.json").write_text(payload + "\n")
    emit("Sim kernel — counter rollups / event heap", payload)


def main():
    report = run_kernel_study(0.3)
    check_report(report)
    payload = json.dumps(report, indent=2, sort_keys=True)
    (_REPO_ROOT / "BENCH_sim_kernel.json").write_text(payload + "\n")
    print(payload)


if __name__ == "__main__":
    main()
