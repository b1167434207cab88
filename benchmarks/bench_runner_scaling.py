"""Runner scaling bench: serial vs parallel sweeps, cold vs warm cache.

Times a 10-point mixed core sweep (the ASDB core axis plus four TPC-E
points) through :func:`repro.core.sweeps.run_sweep` at ``jobs`` in
{1, 2, 4}, then re-runs it against a warm result cache.  Emits one
machine-readable JSON document (also written to ``BENCH_runner_scaling.json``
at the repo root) so the perf trajectory of the runner is tracked the
same way the figure benches track fidelity:

* ``serial_seconds`` / ``parallel_seconds[jobs]`` — warm-pool sweep wall
  time (the first parallel run pays pool spin-up and is reported
  separately as ``parallel_cold_seconds``);
* ``speedup[jobs]`` — serial/parallel, published only when
  ``parallel_claims_valid`` (>= 2 *effective* cores — cgroup CPU masks
  count, ``os.cpu_count`` alone does not);
* ``dispatch_overhead_fraction`` / ``dispatch_overhead_per_point_seconds``
  — what fan-out costs beyond the serial compute, as the signed
  ``(parallel - serial) / serial`` of the slowest job count.  On a
  single core a parallel sweep cannot go faster, so any excess over the
  serial wall time *is* the dispatch machinery; on several cores the
  value is negative when fan-out wins.  The bar is < 10% on any core
  count;
* ``warm_seconds`` and ``warm_speedup`` — the cache-hit path, which must
  be at least 10x faster than simulating;
* ``hit_latency_seconds`` — mean per-entry cache read cost.

Every run is asserted bit-identical to the serial baseline: performance
must never come at the cost of the paper's numbers.
"""

import json
import os
import time
from pathlib import Path

from repro.core import workerpool
from repro.core.experiment import ExperimentConfig
from repro.core.knobs import ResourceAllocation
from repro.core.resultcache import ResultCache
from repro.core.sweeps import core_sweep, duration_for, run_sweep

JOB_COUNTS = (1, 2, 4)
#: Dispatch overhead must stay under this fraction of serial sweep cost.
DISPATCH_OVERHEAD_LIMIT = 0.10
_REPO_ROOT = Path(__file__).resolve().parent.parent


def effective_cores():
    """CPUs this process may actually run on.

    ``os.cpu_count()`` reports the host's cores even inside a container
    pinned to one CPU, which is how the old bench came to publish
    0.93x "speedups".  The scheduler affinity mask respects cgroup
    pinning; fall back to ``cpu_count`` where it is unavailable (macOS).
    """
    try:
        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        return os.cpu_count() or 1


def sweep_configs(duration_scale):
    """Ten independent grid points: 6 ASDB core steps + 4 TPC-E ones."""
    configs = list(core_sweep("asdb", 2000, duration_scale=duration_scale))
    tpce_duration = duration_for("tpce", 5000, duration_scale)
    configs.extend(
        ExperimentConfig(
            workload="tpce", scale_factor=5000,
            allocation=ResourceAllocation(logical_cores=cores),
            duration=tpce_duration,
        )
        for cores in (4, 8, 16, 32)
    )
    assert len(configs) == 10
    return configs


def run_scaling_study(duration_scale, cache_dir):
    configs = sweep_configs(duration_scale)
    cores = effective_cores()

    # Best-of-two timings throughout: a loaded (or single-core) host
    # adds seconds of scheduler noise per run, easily dwarfing the
    # dispatch costs this bench exists to measure.
    start = time.perf_counter()
    serial_measurements = run_sweep(configs, jobs=1)
    serial_seconds = time.perf_counter() - start
    baseline = [m.primary_metric for m in serial_measurements]
    start = time.perf_counter()
    run_sweep(configs, jobs=1)
    serial_seconds = min(serial_seconds, time.perf_counter() - start)

    cold = {}
    warm = {}
    for jobs in JOB_COUNTS[1:]:
        # First run pays worker spin-up; the pool then persists across
        # sweeps, so later runs time steady-state dispatch.
        start = time.perf_counter()
        measurements = run_sweep(configs, jobs=jobs)
        cold[jobs] = time.perf_counter() - start
        assert [m.primary_metric for m in measurements] == baseline, (
            f"jobs={jobs} diverged from the serial baseline"
        )
        warm[jobs] = float("inf")
        for _ in range(2):
            start = time.perf_counter()
            run_sweep(configs, jobs=jobs)
            warm[jobs] = min(warm[jobs], time.perf_counter() - start)

    # Dispatch overhead: wall time beyond the serial compute, signed.
    # With one effective core the workers serialize on the CPU, so the
    # excess is purely chunk pickling + IPC; with real cores the
    # parallel run should beat serial outright, and the value goes
    # negative by however much it did.
    overhead_fraction = {
        jobs: (warm[jobs] - serial_seconds) / serial_seconds
        for jobs in JOB_COUNTS[1:]
    }
    worst_overhead = max(overhead_fraction.values())

    cache = ResultCache(cache_dir)
    start = time.perf_counter()
    run_sweep(configs, cache=cache)          # cold: simulate + store
    cold_cached_seconds = time.perf_counter() - start
    start = time.perf_counter()
    cached = run_sweep(configs, cache=cache)  # warm: pure disk reads
    warm_seconds = time.perf_counter() - start
    assert cache.stats()["hits"] == len(configs)
    assert [m.primary_metric for m in cached] == baseline

    pools = workerpool.active_pools()
    return {
        "bench": "runner_scaling",
        "points": len(configs),
        "duration_scale": duration_scale,
        "cpu_count": os.cpu_count(),
        "effective_cores": cores,
        "parallel_claims_valid": cores >= 2,
        "serial_seconds": round(serial_seconds, 4),
        "parallel_cold_seconds": {
            str(jobs): round(cold[jobs], 4) for jobs in JOB_COUNTS[1:]
        },
        "parallel_seconds": {
            str(jobs): round(warm[jobs], 4) for jobs in JOB_COUNTS[1:]
        },
        "speedup": {
            str(jobs): round(serial_seconds / warm[jobs], 3)
            for jobs in JOB_COUNTS[1:]
        },
        "dispatch_overhead_fraction": round(worst_overhead, 4),
        "dispatch_overhead_per_point_seconds": round(
            (max(warm.values()) - serial_seconds) / len(configs), 6
        ),
        "pool_start_method": (
            next(iter(pools.values())).method if pools else None
        ),
        "pool_counters": workerpool.pool_stats(),
        "cold_cached_seconds": round(cold_cached_seconds, 4),
        "warm_seconds": round(warm_seconds, 4),
        "warm_speedup": round(serial_seconds / warm_seconds, 1),
        "hit_latency_seconds": round(warm_seconds / len(configs), 6),
    }


def check_report(report):
    """The acceptance bars.

    Parallel *speedup* claims need >= 2 effective cores; the dispatch
    overhead bar applies on any core count — a warm pool on one core may
    not go faster, but it must not cost more than 10% either.
    """
    assert report["warm_speedup"] >= 10.0, (
        f"warm cache only {report['warm_speedup']}x faster than simulating"
    )
    assert report["dispatch_overhead_fraction"] < DISPATCH_OVERHEAD_LIMIT, (
        f"dispatch overhead {report['dispatch_overhead_fraction']:.1%} "
        f"exceeds {DISPATCH_OVERHEAD_LIMIT:.0%} of serial sweep cost"
    )
    if report["parallel_claims_valid"]:
        cores = report["effective_cores"]
        floor = 2.5 if cores >= 4 else 1.5
        best = max(report["speedup"].values())
        assert best >= floor, (
            f"best parallel speedup {best}x below {floor}x on {cores} cores"
        )


def test_runner_scaling(benchmark, emit, duration_scale, tmp_path):
    report = benchmark.pedantic(
        run_scaling_study, args=(duration_scale, tmp_path),
        rounds=1, iterations=1,
    )
    check_report(report)
    payload = json.dumps(report, indent=2, sort_keys=True)
    (_REPO_ROOT / "BENCH_runner_scaling.json").write_text(payload + "\n")
    emit("Runner scaling — 10-point sweep, jobs in {1,2,4}, cold vs warm cache",
         payload)


def main():
    import tempfile

    with tempfile.TemporaryDirectory() as cache_dir:
        report = run_scaling_study(0.3, cache_dir)
    check_report(report)
    payload = json.dumps(report, indent=2, sort_keys=True)
    (_REPO_ROOT / "BENCH_runner_scaling.json").write_text(payload + "\n")
    print(payload)


if __name__ == "__main__":
    main()
