"""Command-line interface: run experiments and regenerate paper artifacts.

Usage::

    python -m repro run tpch 100 --cores 16 --llc-mb 12 --duration 300
    python -m repro sweep llc asdb 2000 --jobs 4 --cache-dir ~/.cache/repro
    python -m repro whatif asdb 2000 --cores 4,8 --llc-mb 8 --cache-dir DIR
    python -m repro admission --oversub 1,4,16 --grant-timeout 30
    python -m repro chaos --seed 1 --scenario failover
    python -m repro chaos --seeds 1,2,3 --scenario hedging --compare-hedging
    python -m repro fleet --trace flash-crowd --autoscale
    python -m repro figure fig7

``chaos --seed`` and ``--seeds`` are two spellings of one option: a
seed, or a comma list of seeds for a soak.

Exit codes: 0 ok; 1 an invariant was violated or a run failed (with its
traceback); 2 a usage or configuration error, reported in one stderr
line ``repro <command>: error: <message>``.

Every subcommand is one row of :data:`COMMANDS`; the CLI is a thin
veneer over :mod:`repro.core`, and anything it prints can be produced
programmatically from the same functions.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.backends import BACKENDS, DEFAULT_BACKEND, backend_names
from repro.core.experiment import Experiment, ExperimentConfig, run_experiment
from repro.core.journal import SweepJournal
from repro.core.knobs import CORE_SWEEP, LLC_SWEEP_MB, ResourceAllocation
from repro.core.report import format_series, format_table
from repro.core.resultcache import ResultCache, default_cache_dir
from repro.core.runner import ON_ERROR_CHOICES, SupervisionPolicy, run_supervised
from repro.core.sweeps import (
    STUDY_MATRIX,
    core_sweep,
    duration_for,
    llc_sweep,
    on_backend,
    run_sweep,
)
from repro.errors import (
    ConfigurationError,
    FaultInjectionError,
    SimulatedWorkerCrash,
    TransientIOError,
    WorkloadError,
)
from repro.engine.locks import WaitType
from repro.faults import (
    CrashPoint,
    StorageBrownout,
    TransientWriteErrors,
    WorkerCrash,
    WorkerStall,
)
from repro.faults.chaos import SCENARIOS, ChaosConfig, generate_schedule, run_chaos
from repro.fleet.autoscale import AutoscalePolicy
from repro.fleet.cluster import FleetSpec, default_tenants, fleet_oversubscription_sweep
from repro.units import mb_per_s
from repro.workloads import WORKLOADS
from repro.workloads.arrivals import TRACE_KINDS, ArrivalSpec


def _job_count(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("job count must be >= 1")
    return value


def _listed(kind):
    """argparse type for a comma-separated list of *kind* values: an
    empty list or a malformed item is a usage error (exit 2)."""
    def parse(text: str) -> tuple:
        try:
            return tuple(kind(item) for item in text.split(","))
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"expected a comma-separated list of {kind.__name__}s, "
                f"got {text!r}") from None
    return parse


def _arg(*flags, **kwargs) -> Tuple[tuple, dict]:
    """One ``add_argument`` call, as data."""
    return flags, kwargs


#: Option groups that several commands share, by name.
_GROUPS = {
    "cache": (
        _arg("--cache-dir", metavar="DIR", help="directory for the content-addressed "
             "result cache (default: $REPRO_CACHE_DIR if set, else caching is off)"),
        _arg("--no-cache", action="store_true", help="disable the result cache even "
             "if --cache-dir or $REPRO_CACHE_DIR is set"),
    ),
    "runner": (
        _arg("--jobs", type=_job_count, default=1, metavar="N",
             help="worker processes for independent experiments; 1 runs in-process, "
             "and results are identical at any count (default: %(default)s)"),
    ),
    "supervision": (
        _arg("--timeout", type=float, default=SupervisionPolicy.timeout,
             metavar="SECONDS", help="per-experiment wall-clock budget, unlimited if "
             "unset; a timed-out attempt kills and rebuilds the worker pool "
             "(default: %(default)s)"),
        _arg("--retries", type=int, default=SupervisionPolicy.retries, metavar="N",
             help="extra attempts after a crashed worker, with exponential backoff; "
             "deterministic errors are never retried (default: %(default)s)"),
        _arg("--on-error", choices=ON_ERROR_CHOICES, default=SupervisionPolicy.on_error,
             help="when a grid point exhausts its attempts, abort the sweep (raise) "
             "or keep going and report the holes (skip), as structured failure "
             "records (collect) (default: %(default)s)"),
    ),
    "allocation": (
        _arg("--maxdop", type=int),
        _arg("--grant-percent", type=float, default=ResourceAllocation.grant_percent),
        _arg("--duration", type=float,
             help="simulated seconds (default: per-workload)"),
        _arg("--seed", type=int, default=0),
    ),
}

_TARGET = (_arg("workload", choices=sorted(WORKLOADS)), _arg("scale_factor", type=int))
_BACKEND = _arg("--backend", choices=backend_names(), default=DEFAULT_BACKEND,
                help="engine personality to run on (default: %(default)s)")


def _resolve_policy(args) -> SupervisionPolicy:
    return SupervisionPolicy(timeout=args.timeout, retries=args.retries,
                             on_error=args.on_error)


def _resolve_cache(args) -> Optional[ResultCache]:
    """Build the result cache implied by --cache-dir/--no-cache/env."""
    directory = None if args.no_cache else args.cache_dir or default_cache_dir()
    return None if directory is None else ResultCache(directory)


def _config(args, backend: str = DEFAULT_BACKEND, **allocation) -> ExperimentConfig:
    """The experiment the allocation group's flags describe, with the
    command's own :class:`ResourceAllocation` fields on top."""
    duration = (duration_for(args.workload, args.scale_factor)
                if args.duration is None else args.duration)
    return ExperimentConfig(
        workload=args.workload, scale_factor=args.scale_factor,
        allocation=ResourceAllocation(max_dop=args.maxdop,
                                      grant_percent=args.grant_percent, **allocation),
        duration=duration, seed=args.seed, backend=backend,
    )


def _print_cache_stats(cache: Optional[ResultCache]) -> None:
    if cache is not None:
        stats = cache.stats()
        print(f"cache: {stats['hits']} hits, {stats['misses']} misses "
              f"({cache.directory})")


def _cmd_run(args) -> int:
    def cap(mb):
        return None if mb is None else mb_per_s(mb)

    config = _config(
        args, backend=args.backend, logical_cores=args.cores, llc_mb=args.llc_mb,
        read_bw_limit=cap(args.read_limit_mb), write_bw_limit=cap(args.write_limit_mb),
        grant_timeout_s=args.grant_timeout,
        small_query_bypass_bytes=args.small_query_bypass_mb * 1024.0 * 1024.0,
        max_queue_depth=args.max_queue_depth, on_grant_timeout=args.on_grant_timeout,
    )
    m = Experiment(config).run()
    rows = [("primary metric", m.primary_metric), ("MPKI", m.mpki),
            ("SSD read MB/s", m.ssd_read_mb), ("SSD write MB/s", m.ssd_write_mb),
            ("DRAM read MB/s", m.dram_read_mb), ("SMT multiplier", m.smt_multiplier)]
    if m.secondary_metric is not None:
        rows.insert(1, ("analytics QPH", m.secondary_metric))
    if (args.grant_timeout is not None or args.small_query_bypass_mb > 0
            or args.max_queue_depth is not None):
        rows += [("grant waits", m.grant_waits), ("grant wait s", m.grant_wait_seconds),
                 ("grant timeouts", m.grant_timeouts),
                 ("grant degrades", m.grant_degrades),
                 ("grant bypasses", m.grant_bypasses),
                 ("grant queue peak", m.grant_queue_peak)]
    print(format_table(
        ["metric", "value"], rows,
        title=f"{args.workload} SF={args.scale_factor} on {m.backend} "
        f"({config.duration:.0f}s simulated)",
    ))
    return 0


def _cmd_sweep(args) -> int:
    sweep, xs, x_label = ((core_sweep, CORE_SWEEP, "cores") if args.axis == "cores"
                          else (llc_sweep, LLC_SWEEP_MB, "llc_mb"))
    configs = on_backend(sweep(args.workload, args.scale_factor,
                               duration_scale=args.duration_scale), args.backend)
    cache = _resolve_cache(args)
    # Under on_error="raise" the supervisor raises instead of leaving a
    # hole, so only skip/collect can reach the hole report below.
    report = run_supervised(configs, jobs=args.jobs, cache=cache,
                            policy=_resolve_policy(args))
    xs = [x for x, m in zip(xs, report.measurements) if m is not None]
    measurements = report.successes()
    if len(measurements) < len(configs):
        for failure in report.failures:
            print(f"failure: {failure.describe()}")
        print(f"sweep: {report.summary()}")
    _print_cache_stats(cache)
    print(format_series(x_label, xs, {
        "perf": [m.primary_metric for m in measurements],
        "mpki": [m.mpki_model for m in measurements],
        "ssd_rd_MB/s": [m.ssd_read_mb for m in measurements],
        "p99_ms": [m.p99_latency_ms for m in measurements],
        "p999_ms": [m.p999_latency_ms for m in measurements],
    }, title=f"{args.workload} SF={args.scale_factor}: {args.axis} sweep"))
    return 0


def _cmd_whatif(args) -> int:
    # Greppable: a ``whatif:`` line per point and a ``whatif-complete:``
    # cache/simulated tally.
    configs = [_config(args, logical_cores=cores, llc_mb=llc)
               for cores in args.cores for llc in args.llc_mb]
    cache = _resolve_cache(args)
    measurements = run_sweep(configs, cache=cache)
    for m in measurements:
        alloc = m.allocation
        print(f"whatif: {m.workload} sf={m.scale_factor} "
              f"cores={alloc.logical_cores} llc={alloc.llc_mb}MB "
              f"grant={alloc.grant_percent:g}%: {m.primary_metric:.3f} "
              f"(mpki {m.mpki_model:.2f})")
    hits = cache.hits if cache is not None else 0
    print(f"whatif-complete: {hits} cache, {len(measurements) - hits} simulated")
    return 0


def _cmd_faults(args) -> int:
    # Greppable on purpose: the CI fault matrix asserts on the
    # ``sweep-complete:`` and ``resumed:`` markers.
    d = args.duration
    # At the default jobs=2 the worker crash breaks the pool in the very
    # first pair, exercising quarantine + rebuild up front; the stall runs
    # last so every other point is already measured when its timeout hits.
    grid = [
        ("worker-crash", (WorkerCrash(attempts=1),)),
        ("clean", ()),
        ("brownout", (StorageBrownout(start=0.25 * d, duration=0.5 * d,
                                      write_factor=0.01),)),
        ("io-errors", (TransientWriteErrors(start=0.25 * d, duration=0.25 * d),)),
        ("crash-recover", (CrashPoint(at=0.5 * d),)),
        ("worker-stall", (WorkerStall(seconds=args.stall_seconds, attempts=1),)),
    ]
    configs = [
        ExperimentConfig(workload="asdb", scale_factor=2000, duration=d,
                         seed=seed, faults=faults)
        for seed, (_, faults) in enumerate(grid)
    ]
    cache = _resolve_cache(args)
    report = run_supervised(configs, jobs=args.jobs, cache=cache,
                            policy=_resolve_policy(args))
    print(f"supervision: {report.summary()}")
    for failure in report.failures:
        print(f"failure: {failure.describe()}")
    for (label, _), measurement in zip(grid, report.measurements):
        if measurement is None:
            print(f"point {label}: no measurement")
            continue
        line = f"point {label}: tps={measurement.primary_metric:.2f}"
        summary = measurement.fault_summary
        if summary:
            line += (f" wal_retries={summary['wal_flush_retries']:.0f}"
                     f" recoveries={summary['crash_recoveries']:.0f}"
                     f" io_faults={summary['write_faults_injected']:.0f}")
        print(line)
    _print_cache_stats(cache)
    if cache is not None and report.cache_hits > 0:
        print(f"resumed: {report.cache_hits} points served from cache")
    print(f"sweep-complete: {len(report.successes())}/{len(configs)}")
    return 0


def _cmd_admission(args) -> int:
    # Greppable on purpose: the CI overload matrix asserts on the
    # ``admission-complete:`` and ``monotone-degradation:`` markers.
    from repro.core.admission import ADMISSION_POLICIES, sweep_admission_policies

    policies = (ADMISSION_POLICIES if args.admission_policy == "all"
                else (args.admission_policy,))
    sweep = sweep_admission_policies(
        scale_factor=args.scale_factor, oversubscription=args.oversub,
        policies=policies, base_streams=args.base_streams,
        duration_scale=args.duration_scale, seed=args.seed,
        grant_timeout_s=args.grant_timeout,
    )
    print(format_table(
        ["policy", "oversub", "streams", "QPS", "QPS/stream", "waits",
         "wait s", "timeouts", "degrades", "queue peak"],
        [(p.policy, f"{p.oversubscription}x", p.streams,
          f"{p.qps:.4f}", f"{p.per_stream_qps:.5f}", p.grant_waits,
          f"{p.grant_wait_seconds:.0f}", p.grant_timeouts, p.grant_degrades,
          p.grant_queue_peak) for p in sweep.points],
        title=f"Admission policies, TPC-H SF={sweep.scale_factor} "
        f"({sweep.duration:.0f}s simulated per point)",
    ))
    for policy in policies:
        ladder = sweep.points_for(policy)
        marker = "ok" if sweep.monotone_degradation(policy) else "VIOLATED"
        print(f"policy {policy}: per-stream "
              + " -> ".join(f"{p.per_stream_qps:.5f}" for p in ladder)
              + f" [{marker}]")
    monotone = sweep.monotone_degradation()
    print(f"admission-complete: {len(sweep.points)} points")
    print(f"monotone-degradation: {'ok' if monotone else 'VIOLATED'}")
    return 0 if monotone else 1


def _cmd_backends(_args) -> int:
    rows = [(name, BACKENDS[name].description) for name in backend_names()]
    print(format_table(["backend", "description"], rows,
                       title="Engine personalities"))
    return 0


def _cmd_figure(args) -> int:
    from repro.core import figures
    cache = _resolve_cache(args)
    if args.name == "table2":
        rows = figures.table2()
        print(format_table(
            ["workload", "SF", "data GB", "paper", "index GB", "paper", "fits"],
            [(r.workload, r.scale_factor, r.data_gb, r.paper_data_gb,
              r.index_gb, r.paper_index_gb, r.fits_in_memory) for r in rows],
            title="Table 2",
        ))
    elif args.name == "table3":
        result = figures.table3(duration_scale=args.duration_scale,
                                jobs=args.jobs, cache=cache)
        _print_cache_stats(cache)
        print(format_table(
            ["wait type", "ratio 15000/5000"],
            sorted(result.ratios.items()),
            title="Table 3 (paper: LOCK 0.15, PAGELATCH 0.56, PAGEIOLATCH 74.61)",
        ))
    elif args.name == "fig5":
        result = figures.fig5_read_limits(duration_scale=args.duration_scale,
                                          jobs=args.jobs, cache=cache)
        _print_cache_stats(cache)
        print(format_series("limit_MB/s", result.limits_mb, {"qps": result.qps},
                            title="Fig 5"))
        print(f"linear-model savings: {result.comparison.savings_fraction:.0%}")
    elif args.name == "fig7":
        result = figures.fig7_q20_plans()
        print("Fig 7a — serial plan:\n" + result.serial_plan_text)
        print("\nFig 7b — MAXDOP=32 plan:\n" + result.parallel_plan_text)
        print("\n" + result.diff_summary)
    return 0


def _cmd_report(args) -> int:
    """A one-command paper-vs-measured summary (the headline numbers)."""

    def measure(workload, sf, cores=ResourceAllocation.logical_cores):
        return run_experiment(
            workload, sf, allocation=ResourceAllocation(logical_cores=cores),
            duration=duration_for(workload, sf, args.duration_scale))

    rows = []
    for sf, paper in ((10, 1.72), (30, 1.27), (100, 0.93), (300, 0.82)):
        ratio = (measure("tpch", sf, 16).primary_metric
                 / measure("tpch", sf).primary_metric)
        rows.append((f"TPC-H SF={sf} perf16/perf32", f"{ratio:.2f}", paper))
    asdb16, asdb32 = measure("asdb", 2000, 16), measure("asdb", 2000)
    gain = asdb32.primary_metric / asdb16.primary_metric - 1
    rows.append(("ASDB HT gain", f"{gain:.1%}", "5-6.8%"))
    tpce = {sf: measure("tpce", sf) for sf in (5000, 15000)}
    rows.append(("TPC-E TPS(15000) > TPS(5000)",
                 tpce[15000].primary_metric > tpce[5000].primary_metric, True))
    lock_ratio = (tpce[15000].wait_times[WaitType.LOCK]
                  / max(1e-9, tpce[5000].wait_times[WaitType.LOCK]))
    rows.append(("Table 3 LOCK ratio", f"{lock_ratio:.2f}", 0.15))
    print(format_table(["check", "measured", "paper"], rows,
                       title="Calibration report (reduced durations)"))
    return 0


def _cmd_list(_args) -> int:
    print(format_table(
        ["workload", "scale factors", "default duration (s)"],
        [
            (w, ", ".join(str(sf) for ww, sf in STUDY_MATRIX if ww == w),
             duration_for(w, next(sf for ww, sf in STUDY_MATRIX if ww == w)))
            for w in sorted(WORKLOADS)
        ],
        title="Available workloads (paper study matrix)",
    ))
    return 0


def _cmd_chaos(args) -> int:
    journal = SweepJournal(args.journal) if args.journal else None
    violations = 0
    for seed in args.seeds:
        config = ChaosConfig(seed=seed, duration=args.duration, replicas=args.replicas,
                             scenario=args.scenario, episodes=args.episodes,
                             hedging=not args.no_hedging)
        report = run_chaos(config, journal=journal,
                           compare_hedging=args.compare_hedging,
                           check_determinism=True if args.check_determinism else None)
        print("\n".join(report.summary_lines()))
        if not report.ok:
            violations += 1
            print(f"chaos-violation: seed={seed} "
                  f"invariants={','.join(report.violations())}", file=sys.stderr)
    return 1 if violations else 0


def _cmd_fleet(args) -> int:
    # Greppable on purpose: the CI SLO matrix asserts on the
    # ``fleet-complete:``, ``slo-invariant:``, ``monotone-degradation:``
    # and ``shed-fairness:`` markers.
    autoscale = (AutoscalePolicy(min_shards=args.shards, max_shards=args.max_shards,
                                 cooldown_s=2.0) if args.autoscale else None)
    spec = FleetSpec(
        shards=args.shards, duration=args.duration, seed=args.seed,
        arrival=ArrivalSpec(offered_tps=args.offered_tps, trace=args.trace),
        tenants=default_tenants(args.tenants, slo_p99_ms=args.slo_ms),
        capacity_per_shard=args.capacity, replication=args.replication,
        autoscale=autoscale,
    )
    schedule = ()
    if args.chaos and SCENARIOS[args.chaos]:
        schedule = generate_schedule(seed=args.seed, duration=args.duration,
                                     kinds=SCENARIOS[args.chaos],
                                     replicas=args.shards, episodes=3)
    sweep = fleet_oversubscription_sweep(spec, oversubscription=args.oversub,
                                         jobs=args.jobs, journal=args.journal,
                                         schedule=schedule)
    for oversub, report in zip(sweep.oversubscription, sweep.reports):
        tenants = sorted(report.tenants.values(), key=lambda t: (t.priority, t.name))
        print(format_table(
            ["tenant", "prio", "arrivals", "shed", "governed", "tps",
             "p50ms", "p99ms", "p999ms", "slo"],
            [(t.name, t.priority, t.arrivals, t.shed, t.governed,
              f"{t.goodput_tps:.1f}", f"{t.p50_ms:.1f}", f"{t.p99_ms:.1f}",
              f"{t.p999_ms:.1f}", "ok" if t.slo_ok else "VIOLATED") for t in tenants],
            title=f"{oversub:g}x oversubscription: "
            f"{report.offered_tps:.0f} tps offered over {report.trace}, "
            f"{report.shards_initial}->{report.shards_peak} shards",
        ))
        scaling = report.scaling
        if scaling.get("decisions"):
            line = (f"  autoscaler: {scaling['scale_outs']} out / "
                    f"{scaling['scale_ins']} in")
            if report.reaction_seconds is not None:
                line += f", reaction {report.reaction_seconds:.3f}s"
            print(line)
        for episode in report.episodes:
            print(f"  chaos t={episode['at']:7.3f}s {episode['kind']:<9} "
                  f"shard={episode['shard']}")
    if sweep.resumed:
        print(f"  resumed {sweep.resumed} point(s) from journal")
    verdicts = {"slo-invariant": sweep.slo_invariant(),
                "monotone-degradation": sweep.monotone_degradation(),
                "shed-fairness": sweep.shed_fairness()}
    for line in sweep.slo_violations():
        print(f"slo-violation: {line}", file=sys.stderr)
    print(f"fleet-complete: {len(sweep.reports)} points seed={args.seed} "
          f"trace={args.trace}")
    for name, ok in verdicts.items():
        print(f"{name}: {'ok' if ok else 'VIOLATED'}")
    return 0 if all(verdicts.values()) else 1


@dataclass(frozen=True)
class Command:
    """One row of the subcommand table: :func:`main` builds both the
    parser and the dispatch from these."""

    name: str
    handler: Callable[[argparse.Namespace], int]
    help: str
    description: Optional[str] = None
    arguments: Tuple[Tuple[tuple, dict], ...] = ()
    #: names of the shared option groups in :data:`_GROUPS`
    groups: Tuple[str, ...] = ()
    #: parser defaults that replace the groups' own
    defaults: Dict[str, object] = field(default_factory=dict)


COMMANDS = (
    Command("run", _cmd_run, "run one experiment", groups=("allocation",), arguments=(
        *_TARGET,
        _arg("--cores", type=int, default=ResourceAllocation.logical_cores),
        _arg("--llc-mb", type=int, default=ResourceAllocation.llc_mb),
        _arg("--read-limit-mb", type=float),
        _arg("--write-limit-mb", type=float),
        _arg("--grant-timeout", type=float, metavar="SECONDS",
             help="RESOURCE_SEMAPHORE grant-queue timeout; enables overload "
             "protection (default: off)"),
        _arg("--small-query-bypass-mb", type=float, default=0.0, metavar="MB",
             help="grants at or below this size skip the grant queue; 0 turns "
             "the bypass off (default: %(default)s)"),
        _arg("--max-queue-depth", type=int, metavar="N", help="throttle admission "
             "once N requests are queued for grants (default: unbounded)"),
        _arg("--on-grant-timeout", choices=("degrade", "fail"), default="degrade",
             help="timed-out/throttled grants shrink to free memory and spill "
             "(degrade) or raise (fail)"),
        _BACKEND,
    )),
    Command("sweep", _cmd_sweep, "run a one-axis sweep",
            groups=("runner", "cache", "supervision"), arguments=(
                _arg("axis", choices=("cores", "llc")), *_TARGET,
                _arg("--duration-scale", type=float, default=0.5), _BACKEND)),
    Command(
        "faults", _cmd_faults, "demonstrate fault injection and supervised recovery",
        "Runs a small ASDB grid, each point with a different injected fault (storage "
        "brownout, transient write errors, crash/recover, worker crash, worker "
        "stall), under the supervised runner.  With --cache-dir, a second run "
        "resumes from the journal and re-runs only the failed points.",
        groups=("runner", "cache", "supervision"),
        defaults=dict(jobs=2, timeout=60.0, on_error="collect"),
        arguments=(
            _arg("--duration", type=float, default=1.0,
                 help="simulated seconds per grid point (default: %(default)s)"),
            _arg("--stall-seconds", type=float, default=120.0,
                 help="wall-clock sleep of the stalled worker; must exceed "
                 "--timeout (default: %(default)s)"),
        ),
    ),
    Command(
        "admission", _cmd_admission,
        "sweep §10 admission policies under stream oversubscription",
        "Runs three admission policies (immediate, serialized, queued-with-timeout) "
        "across stream oversubscription levels, reports per-stream throughput and "
        "the RESOURCE_SEMAPHORE counters, and checks that per-stream throughput "
        "never increases with oversubscription (monotone degradation).",
        arguments=(
            _arg("--scale-factor", type=int, default=100),
            _arg("--oversub", type=_listed(int), default="1,4,16", metavar="L1,L2,...",
                 help="comma-separated oversubscription levels relative to the "
                 "pool's natural concurrency (default: %(default)s)"),
            _arg("--admission-policy", default="all",
                 choices=("immediate", "serialized", "queued", "all"),
                 help="which policy to sweep (default: %(default)s)"),
            _arg("--base-streams", type=int, default=4,
                 help="streams at 1x oversubscription, the default pool's "
                 "concurrent-grant capacity (default: %(default)s)"),
            _arg("--grant-timeout", type=float, default=30.0, metavar="SECONDS",
                 help="queued policy's grant timeout (default: %(default)s)"),
            _arg("--duration-scale", type=float, default=0.4),
            _arg("--seed", type=int, default=0),
        ),
    ),
    Command(
        "chaos", _cmd_chaos, "run a seeded chaos schedule against a replicated fleet",
        "Composes a reproducible fault schedule from the seed, drives writer/reader "
        "clients through a replicated shard group (heartbeat failure detection, "
        "hedged reads), and audits four resilience invariants: no acknowledged "
        "durable write lost, unavailability within the detection+promotion budget, "
        "hedged p99 no worse than unhedged (--compare-hedging), and bit-identical "
        "replay (--check-determinism; automatic for an empty schedule).  Exits 1 "
        "if any invariant is violated.",
        arguments=(
            _arg("--seed", "--seeds", dest="seeds", type=_listed(int), default="0",
                 metavar="S1,S2,...", help="schedule seed, or comma-separated seeds "
                 "for a soak (default: %(default)s)"),
            _arg("--duration", type=float, default=3.0,
                 help="simulated seconds per run (default: %(default)s)"),
            _arg("--scenario", "--faults", dest="scenario", choices=sorted(SCENARIOS),
                 default="mixed", help="fault mix to schedule; 'none' runs "
                 "fault-free and checks determinism (default: %(default)s)"),
            _arg("--episodes", type=int, default=3,
                 help="fault episodes per run (default: %(default)s)"),
            _arg("--replicas", type=int, default=3,
                 help="replica-group size (default: %(default)s)"),
            _arg("--no-hedging", action="store_true",
                 help="disable hedged reads in the primary run"),
            _arg("--compare-hedging", action="store_true", help="re-run the identical "
                 "schedule with hedging off and gate on the p99 comparison"),
            _arg("--check-determinism", action="store_true", help="replay the run and "
                 "require a bit-identical digest (always on for empty schedules)"),
            _arg("--journal", metavar="PATH", help="append schedule/episode/failover/"
                 "report events to this JSONL journal"),
        ),
    ),
    Command(
        "fleet", _cmd_fleet,
        "drive open-loop traffic through a sharded multi-tenant fleet",
        "Feeds an open-loop arrival trace (diurnal, MMPP burst or flash-crowd) from "
        "weighted, prioritized tenants into a sharded cluster and sweeps "
        "oversubscription while checking the graceful-degradation contract: every "
        "most-protected tenant's p99 stays inside its SLO at every load, per-tenant "
        "goodput degrades monotonically, and sheds land on low-priority traffic "
        "first.  Optionally autoscales and composes seeded chaos schedules.  Exits 1 "
        "if any contract is violated.",
        groups=("runner",),
        arguments=(
            _arg("--shards", type=int, default=2,
                 help="initial shard count (default: %(default)s)"),
            _arg("--tenants", type=int, default=4,
                 help="tenant count; priorities cycle 0/1/2 (default: %(default)s)"),
            _arg("--trace", choices=TRACE_KINDS, default="diurnal",
                 help="arrival trace shape (default: %(default)s)"),
            _arg("--offered-tps", type=float, default=300.0, help="base offered rate "
                 "before oversubscription (default: %(default)s)"),
            _arg("--oversub", type=_listed(float), default="1,4,16",
                 metavar="F1,F2,...",
                 help="oversubscription multipliers (default: %(default)s)"),
            _arg("--duration", type=float, default=6.0,
                 help="simulated seconds per point (default: %(default)s)"),
            _arg("--capacity", type=int, default=32,
                 help="concurrent transactions per shard (default: %(default)s)"),
            _arg("--slo-ms", type=float, default=250.0,
                 help="per-tenant p99 SLO in ms (default: %(default)s)"),
            _arg("--replication", type=int, default=1,
                 help="replicas per shard (default: %(default)s)"),
            _arg("--autoscale", action="store_true",
                 help="enable the deterministic autoscaler"),
            _arg("--max-shards", type=int, default=16,
                 help="autoscaler ceiling (default: %(default)s)"),
            _arg("--chaos", choices=sorted(SCENARIOS), help="compose a seeded chaos "
                 "schedule of this scenario into every point"),
            _arg("--seed", type=int, default=0),
            _arg("--journal", metavar="PATH", help="append fleet-traffic events "
                 "(spec digest + full report) for resume"),
        ),
    ),
    Command("backends", _cmd_backends, "list engine personalities"),
    Command(
        "whatif", _cmd_whatif,
        "answer sizing queries from the result cache or simulation",
        "Answers 'what would throughput be at these knobs?' for the cross product "
        "of the --cores and --llc-mb comma lists: a cache hit where the exact "
        "config was measured, a simulation (stored in the cache) otherwise.",
        groups=("allocation", "cache"), arguments=(
            *_TARGET,
            _arg("--cores", type=_listed(int), default="32", metavar="C1,C2,..."),
            _arg("--llc-mb", type=_listed(int), default="40", metavar="M1,M2,..."))),
    Command("figure", _cmd_figure, "regenerate a paper artifact",
            groups=("runner", "cache"), arguments=(
                _arg("name", choices=("table2", "table3", "fig5", "fig7")),
                _arg("--duration-scale", type=float, default=0.3))),
    Command("report", _cmd_report, "run a reduced study and print a calibration report",
            arguments=(_arg("--duration-scale", type=float, default=0.3),)),
    Command("list", _cmd_list, "list workloads and scale factors"),
)


def main(argv: Optional[List[str]] = None) -> int:
    """Parse *argv*, run the command it names, and return the exit code.

    This is the one error boundary: a spec the command cannot build (a
    configuration, workload or fault-spec error) exits 2 with one stderr
    line.  Failures while running keep their traceback.
    """
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Resource-sensitivity experiments on the simulated testbed",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command in COMMANDS:
        command_parser = sub.add_parser(command.name, help=command.help,
                                        description=command.description)
        shared = tuple(spec for group in command.groups for spec in _GROUPS[group])
        for flags, kwargs in command.arguments + shared:
            command_parser.add_argument(*flags, **kwargs)
        command_parser.set_defaults(handler=command.handler, **command.defaults)
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (TransientIOError, SimulatedWorkerCrash):
        raise
    except (ConfigurationError, WorkloadError, FaultInjectionError) as exc:
        print(f"repro {args.command}: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
