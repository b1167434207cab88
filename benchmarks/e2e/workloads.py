"""The four workloads of the end-to-end benchmark.

Each workload is a *pass*: a fixed batch of paper artifacts or fleet runs
driven through the package's public entry points (the ``core.sweeps``
builders, ``core.runner.run_supervised``, ``ResultCache``,
``fleet.cluster.run_fleet``, ``workloads.arrivals.run_open_loop_sweep``
and ``core.figures.fig7_q20_plans``).  The benchmark seed reaches the
programs only through ``ExperimentConfig.seed`` and ``FleetSpec.seed``.

A pass is a sequence of operations, each timed on its own: a serial grid
point, a fleet run, an open-loop rate, the cold jobs=2 sweep, one warm
replay.  Summing each operation's median over several passes gives a
pass time that a few seconds of host contention cannot move much.

Why each workload exists (which layer it stresses) is recorded in
``README.md``; the short form is in ``BENCHMARK.json``.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import tempfile
import time
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Sequence

from repro.core.figures import (
    DEFAULT_READ_LIMITS_MB,
    Fig7Result,
    fig7_q20_plans,
)
from repro.core.resultcache import ResultCache
from repro.core.runner import SupervisionPolicy, run_supervised
from repro.core.sweeps import (
    core_sweep,
    grant_sweep,
    llc_sweep,
    maxdop_sweep,
    read_bandwidth_sweep,
    write_bandwidth_sweep,
)
from repro.fleet.autoscale import AutoscalePolicy
from repro.fleet.cluster import (
    FleetReport,
    FleetSpec,
    default_tenants,
    run_fleet,
)
from repro.units import mb_per_s
from repro.workloads.arrivals import ArrivalSpec, run_open_loop_sweep

#: Keep going past a failing grid point so every failure is counted.
COLLECT = SupervisionPolicy(on_error="collect")

#: Simulated seconds of each priming point.
PRIME_SECONDS = 1.0


@dataclass
class PassOutput:
    """What one pass produced: named outputs, per-operation host seconds
    and operation accounting.

    An operation is a grid point, a fleet run or a cache lookup.
    """

    items: Dict[str, object] = field(default_factory=dict)
    timings: Dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    errors: List[str] = field(default_factory=list)
    #: Observables the layer table needs that only the pass can see.
    counts: Dict[str, float] = field(default_factory=dict)

    def timed(self, name: str, thunk: Callable):
        start = time.perf_counter()
        try:
            return thunk()
        finally:
            self.timings[name] = time.perf_counter() - start


# -- output digests ------------------------------------------------------------


def _canonical(value):
    # Deliberately not repro.core.resultcache.canonical_json: the golden
    # digests check the program's outputs, so they must not move when
    # the program's own encoding does.
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, dict):
        return {str(k): _canonical(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    return value


def sha256_json(payload) -> str:
    """sha256 of canonical JSON, floats written by ``repr``."""
    text = json.dumps(_canonical(payload), sort_keys=True,
                      separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def measurement_payload(m) -> Dict[str, object]:
    """The public observables of one Measurement."""
    return {
        "primary_metric": m.primary_metric,
        "secondary_metric": m.secondary_metric,
        "mpki_model": m.mpki_model,
        "p50_ms": m.p50_latency_ms,
        "p99_ms": m.p99_latency_ms,
        "p999_ms": m.p999_latency_ms,
        "wait_times": {w.name: v for w, v in m.wait_times.items()},
        "plan_signatures": dict(m.plan_signatures),
        "ssd_read_mb": m.ssd_read_mb,
        "ssd_write_mb": m.ssd_write_mb,
        "dram_read_mb": m.dram_read_mb,
        "dram_write_mb": m.dram_write_mb,
        "grants": [m.grant_waits, m.grant_wait_seconds, m.grant_timeouts,
                   m.grant_degrades, m.grant_bypasses, m.grant_throttles,
                   m.grant_queue_peak],
        "arrival_sheds": m.arrival_sheds,
    }


def digest(item) -> str:
    """Digest of one pass output: a Measurement, a FleetReport or a
    Fig 7 result."""
    if isinstance(item, FleetReport):
        return item.digest()
    if isinstance(item, Fig7Result):
        return sha256_json([item.serial_plan_text, item.parallel_plan_text])
    return sha256_json(measurement_payload(item))


# -- shared helpers --------------------------------------------------------------


def _prime_points(pairs: Sequence, seed: int) -> List:
    """One full-allocation, one-simulated-second point per (workload, SF)."""
    return [
        replace(config, seed=seed, duration=PRIME_SECONDS)
        for workload, sf in pairs
        for config in core_sweep(workload, sf, cores=(32,))
    ]


def _record(out: PassOutput, keys: Sequence[str], report) -> None:
    """Count a supervised grid's points and keep its measurements."""
    out.attempted += len(keys)
    for key, measurement in zip(keys, report.measurements):
        if measurement is None:
            out.failed += 1
        else:
            out.items[key] = measurement
    out.errors.extend(f.describe() for f in report.failures)


def _run_points(out: PassOutput, name: str, configs, seed: int) -> None:
    """Run a serial grid one point at a time, each point timed."""
    for index, config in enumerate(configs):
        key = f"{name}[{index}]"
        report = out.timed(key, lambda: run_supervised(
            [replace(config, seed=seed)], policy=COLLECT))
        _record(out, [key], report)


def _run_one(out: PassOutput, name: str, thunk: Callable, operations: int = 1):
    """Run and time one non-grid operation (a fleet run, an open-loop
    rate, Fig 7).

    The benchmark must keep measuring past a failure and count it, so
    any exception is recorded, not raised.
    """
    out.attempted += operations
    try:
        return out.timed(name, thunk)
    except Exception as exc:  # noqa: BLE001 - counted as a failed operation
        out.failed += operations
        out.errors.append(f"{name}: {type(exc).__name__}: {exc}")
        return None


# -- oltp_paper ------------------------------------------------------------------

OLTP_SCALE = 0.4


def oltp_prime(seed: int, workdir: str) -> None:
    run_supervised(_prime_points(
        [("asdb", 2000), ("tpce", 5000), ("tpce", 15000)], seed))


def oltp_pass(seed: int, workdir: str, smoke: bool) -> PassOutput:
    out = PassOutput()
    scale = OLTP_SCALE * (0.1 if smoke else 1.0)
    grids = {
        "fig2_cores": core_sweep("asdb", 2000, duration_scale=scale),
        "fig2_llc": llc_sweep("asdb", 2000, duration_scale=scale),
        "write_caps": write_bandwidth_sweep(
            [None, mb_per_s(100), mb_per_s(50)], duration_scale=scale),
        # Table 3: TPC-E at SF 5000 and 15000, full allocation.
        "table3": [config for sf in (5000, 15000)
                   for config in core_sweep("tpce", sf, cores=(32,),
                                            duration_scale=scale)],
    }
    for name, configs in grids.items():
        _run_points(out, name, configs, seed)
    return out


# -- olap_paper ------------------------------------------------------------------

OLAP_SCALE = 0.35


def olap_prime(seed: int, workdir: str) -> None:
    run_supervised(_prime_points(
        [("tpch", 300), ("tpch", 100), ("htap", 5000)], seed))
    fig7_q20_plans(300)


def olap_pass(seed: int, workdir: str, smoke: bool) -> PassOutput:
    out = PassOutput()
    scale = OLAP_SCALE * (0.1 if smoke else 1.0)
    grids = {
        "fig5_read_caps": read_bandwidth_sweep(
            [mb_per_s(limit) for limit in DEFAULT_READ_LIMITS_MB],
            duration_scale=scale),
        "fig6_maxdop": maxdop_sweep(300, duration_scale=scale),
        "fig8_grants": grant_sweep(100, duration_scale=scale),
    }
    for name, configs in grids.items():
        _run_points(out, name, configs, seed)
    fig7 = _run_one(out, "fig7_q20", lambda: fig7_q20_plans(300))
    if fig7 is not None:
        out.items["fig7_q20"] = fig7
    _run_points(out, "htap_cores",
                core_sweep("htap", 5000, duration_scale=scale), seed)
    return out


# -- fleet_openloop --------------------------------------------------------------

FLEET_DIURNAL_SECONDS = 24.0
FLEET_FLASH_SECONDS = 10.0
OPEN_LOOP_SECONDS = 10.0
OPEN_LOOP_RATES = (500, 2000, 8000)


def _fleet_specs(seed: int, scale: float) -> Dict[str, FleetSpec]:
    diurnal = FleetSpec(
        shards=16, duration=FLEET_DIURNAL_SECONDS * scale, seed=seed,
        arrival=ArrivalSpec(offered_tps=2400.0, trace="diurnal"),
        tenants=default_tenants(4), capacity_per_shard=8,
    )
    flash = FleetSpec(
        shards=2, duration=FLEET_FLASH_SECONDS * scale, seed=seed,
        arrival=ArrivalSpec(offered_tps=300.0, trace="flash-crowd",
                            flash_at=0.4, flash_magnitude=8.0,
                            flash_width=0.3),
        tenants=default_tenants(4),
        autoscale=AutoscalePolicy(min_shards=2, max_shards=8,
                                  cooldown_s=2.0),
    )
    return {"fleet_diurnal": diurnal, "fleet_flash": flash}


def fleet_prime(seed: int, workdir: str) -> None:
    spec = _fleet_specs(seed, 1.0)["fleet_diurnal"]
    run_supervised(_prime_points([(spec.workload, spec.scale_factor)], seed))
    run_fleet(replace(spec, duration=PRIME_SECONDS))
    run_open_loop_sweep("asdb", 2000, OPEN_LOOP_RATES[:1],
                        duration=PRIME_SECONDS, seed=seed)


def fleet_pass(seed: int, workdir: str, smoke: bool) -> PassOutput:
    out = PassOutput()
    scale = 0.1 if smoke else 1.0
    arrivals = 0
    for name, spec in _fleet_specs(seed, scale).items():
        report = _run_one(out, name, lambda spec=spec: run_fleet(spec))
        if report is not None:
            out.items[name] = report
            arrivals += report.arrivals
    out.counts["fleet.arrivals"] = arrivals
    # One rate per call: the points are independent, so this is the
    # three-rate sweep, timed per rate.
    for index, rate in enumerate(OPEN_LOOP_RATES):
        key = f"open_loop[{index}]"
        sweep = _run_one(out, key, lambda rate=rate: run_open_loop_sweep(
            "asdb", 2000, [rate], duration=OPEN_LOOP_SECONDS * scale,
            seed=seed))
        if sweep is not None:
            out.items[key] = sweep[0]
    return out


# -- sweep_cached ----------------------------------------------------------------

CACHED_SCALE = 0.05
CACHED_JOBS = 2
#: Warm replays after the cold pass, sized so that cache reads are about
#: 40% of the pass on a 2-core host.
WARM_REPLAYS = 100


def _cached_grid(seed: int, scale: float) -> List:
    base = (llc_sweep("asdb", 6000, duration_scale=scale)
            + core_sweep("tpce", 15000, duration_scale=scale)
            + maxdop_sweep(100, duration_scale=scale)
            + core_sweep("tpch", 30, duration_scale=scale)
            + core_sweep("htap", 5000, duration_scale=scale))
    return [replace(config, seed=s)
            for s in (seed, seed + 1, seed + 2) for config in base]


def cached_prime(seed: int, workdir: str) -> None:
    """Build every (workload, SF) and start the jobs=2 worker pool."""
    run_supervised(_prime_points(
        [("asdb", 6000), ("tpce", 15000), ("tpch", 100), ("tpch", 30),
         ("htap", 5000)], seed), jobs=CACHED_JOBS)


def cached_pass(seed: int, workdir: str, smoke: bool) -> PassOutput:
    out = PassOutput()
    scale = CACHED_SCALE * (0.2 if smoke else 1.0)
    replays = WARM_REPLAYS // 10 if smoke else WARM_REPLAYS
    grid = _cached_grid(seed, scale)
    directory = tempfile.mkdtemp(prefix="cache-", dir=workdir)
    try:
        cache = ResultCache(directory)
        _record(out, [f"cold[{i}]" for i in range(len(grid))],
                out.timed("cold", lambda: run_supervised(
                    grid, jobs=CACHED_JOBS, cache=cache, policy=COLLECT)))
        for replay in range(replays):
            warm = out.timed(f"warm_replay[{replay}]", lambda: run_supervised(
                grid, jobs=CACHED_JOBS, cache=cache, policy=COLLECT))
            out.attempted += len(grid)
            out.failed += len(grid) - warm.cache_hits
        out.failed += cache.quarantined_entries()
        for index, measurement in enumerate(warm.measurements):
            out.items[f"warm[{index}]"] = measurement
        out.counts.update({f"core.resultcache.{k}": v
                           for k, v in cache.stats().items()})
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    return out


@dataclass(frozen=True)
class Workload:
    """``prime(seed, workdir)`` does the set-up the pass relies on;
    ``run_pass(seed, workdir, smoke)`` is the measured unit of work."""

    prime: Callable[[int, str], None]
    run_pass: Callable[[int, str, bool], PassOutput]
    #: What the traced layer table covers.
    scope: str = "workload process"


#: Name -> workload; BENCHMARK.json lists the same names.
WORKLOADS: Dict[str, Workload] = {
    "oltp_paper": Workload(oltp_prime, oltp_pass),
    "olap_paper": Workload(olap_prime, olap_pass),
    "sweep_cached": Workload(
        cached_prime, cached_pass,
        scope="parent process only; pool workers are not profiled"),
    "fleet_openloop": Workload(fleet_prime, fleet_pass),
}
