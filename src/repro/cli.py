"""Command-line interface: run experiments and regenerate paper artifacts.

Usage::

    python -m repro run tpch 100 --cores 16 --llc-mb 12 --duration 300
    python -m repro sweep cores tpch 10
    python -m repro sweep llc asdb 2000 --jobs 4 --cache-dir ~/.cache/repro
    python -m repro sweep cores tpce 5000 --timeout 600 --on-error collect
    python -m repro faults --cache-dir /tmp/faults-demo
    python -m repro admission --oversub 1,4,16 --grant-timeout 30
    python -m repro run tpch 10 --backend columnstore-dss
    python -m repro chaos --seed 1 --scenario failover
    python -m repro chaos --seeds 1,2,3 --scenario hedging --compare-hedging
    python -m repro backends
    python -m repro figure table2
    python -m repro figure fig7
    python -m repro whatif asdb 2000 --cores 4,8 --llc-mb 8 --cache-dir DIR
    python -m repro list

``--jobs N`` fans independent experiments over N worker processes
(results are identical to serial).  ``--cache-dir DIR`` enables the
content-addressed result cache so re-runs are disk reads;
``$REPRO_CACHE_DIR`` sets a default directory and ``--no-cache``
overrides both.

The CLI is a thin veneer over :mod:`repro.core`; anything it prints can
be produced programmatically from the same functions.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.core.experiment import run_experiment
from repro.core.knobs import CORE_SWEEP, LLC_SWEEP_MB, ResourceAllocation
from repro.core.report import format_series, format_table
from repro.core.resultcache import ResultCache, default_cache_dir
from repro.core.runner import SupervisionPolicy, run_supervised
from repro.core.sweeps import (
    STUDY_MATRIX,
    core_sweep,
    duration_for,
    llc_sweep,
    on_backend,
    run_sweep,
)
from repro.units import mb_per_s
from repro.workloads import WORKLOADS


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


def _add_cache_options(parser: argparse.ArgumentParser) -> None:
    """The result-cache knobs (also used alone by whatif)."""
    parser.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="directory for the content-addressed result cache "
        "(default: $REPRO_CACHE_DIR if set, else caching is off)",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="disable the result cache even if --cache-dir or "
        "$REPRO_CACHE_DIR is set",
    )


def _add_runner_options(parser: argparse.ArgumentParser) -> None:
    """The runner knobs shared by every multi-experiment command."""
    parser.add_argument(
        "--jobs", type=_job_count, default=1, metavar="N",
        help="worker processes for independent experiments (default: 1, "
        "in-process; results are identical at any job count)",
    )
    _add_cache_options(parser)


def _add_supervision_options(parser: argparse.ArgumentParser) -> None:
    """Supervisor knobs for commands that run many experiments."""
    parser.add_argument(
        "--timeout", type=float, default=None, metavar="SECONDS",
        help="per-experiment wall-clock budget; a timed-out attempt kills "
        "and rebuilds the worker pool (default: unlimited)",
    )
    parser.add_argument(
        "--retries", type=int, default=2, metavar="N",
        help="extra attempts after a crashed worker, with exponential "
        "backoff (default: 2; deterministic errors are never retried)",
    )
    parser.add_argument(
        "--on-error", choices=("raise", "skip", "collect"), default="raise",
        help="what to do when a grid point exhausts its attempts: abort "
        "the sweep (raise), or keep going and report the holes "
        "(skip/collect; collect returns structured failure records)",
    )


def _add_backend_options(parser: argparse.ArgumentParser) -> None:
    """The engine-personality knob shared by run/sweep."""
    from repro.backends import DEFAULT_BACKEND, backend_names

    parser.add_argument(
        "--backend", choices=backend_names(), default=DEFAULT_BACKEND,
        help="engine personality to run on (default: %(default)s)",
    )


def _resolve_policy(args):
    return SupervisionPolicy(
        timeout=getattr(args, "timeout", None),
        retries=getattr(args, "retries", 2),
        on_error=getattr(args, "on_error", "raise"),
    )


def _resolve_cache(args) -> Optional[ResultCache]:
    """Build the result cache implied by --cache-dir/--no-cache/env."""
    if getattr(args, "no_cache", False):
        return None
    directory = getattr(args, "cache_dir", None) or default_cache_dir()
    if directory is None:
        return None
    return ResultCache(directory)


def _print_cache_stats(cache: Optional[ResultCache]) -> None:
    if cache is not None:
        stats = cache.stats()
        print(f"cache: {stats['hits']} hits, {stats['misses']} misses "
              f"({cache.directory})")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Resource-sensitivity experiments on the simulated testbed",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one experiment")
    run.add_argument("workload", choices=sorted(WORKLOADS))
    run.add_argument("scale_factor", type=int)
    run.add_argument("--cores", type=int, default=32)
    run.add_argument("--llc-mb", type=int, default=40)
    run.add_argument("--maxdop", type=int, default=None)
    run.add_argument("--read-limit-mb", type=float, default=None)
    run.add_argument("--write-limit-mb", type=float, default=None)
    run.add_argument("--grant-percent", type=float, default=25.0)
    run.add_argument("--duration", type=float, default=None,
                     help="simulated seconds (default: per-workload)")
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--grant-timeout", type=float, default=None,
                     metavar="SECONDS",
                     help="RESOURCE_SEMAPHORE grant-queue timeout; enables "
                     "overload protection (default: off)")
    run.add_argument("--small-query-bypass-mb", type=float, default=0.0,
                     metavar="MB",
                     help="grants at or below this size skip the grant "
                     "queue (default: 0, bypass off)")
    run.add_argument("--max-queue-depth", type=int, default=None, metavar="N",
                     help="throttle admission once N requests are queued "
                     "for grants (default: unbounded)")
    run.add_argument("--on-grant-timeout", choices=("degrade", "fail"),
                     default="degrade",
                     help="timed-out/throttled grants shrink to free memory "
                     "and spill (degrade) or raise (fail)")
    _add_backend_options(run)

    sweep = sub.add_parser("sweep", help="run a one-axis sweep")
    sweep.add_argument("axis", choices=("cores", "llc"))
    sweep.add_argument("workload", choices=sorted(WORKLOADS))
    sweep.add_argument("scale_factor", type=int)
    sweep.add_argument("--duration-scale", type=float, default=0.5)
    _add_backend_options(sweep)
    _add_runner_options(sweep)
    _add_supervision_options(sweep)

    faults = sub.add_parser(
        "faults",
        help="demonstrate fault injection and supervised recovery",
        description="Runs a small ASDB grid where every point carries a "
        "different injected fault (storage brownout, transient write "
        "errors, crash/recover, worker crash, worker stall) under the "
        "supervised runner.  With --cache-dir, a second invocation "
        "resumes from the journal and re-runs only the failed points.",
    )
    faults.add_argument("--duration", type=float, default=1.0,
                        help="simulated seconds per grid point (default: 1)")
    faults.add_argument("--stall-seconds", type=float, default=120.0,
                        help="wall-clock sleep of the stalled worker "
                        "(default: 120; must exceed --timeout)")
    _add_runner_options(faults)
    _add_supervision_options(faults)
    faults.set_defaults(jobs=2, timeout=60.0, on_error="collect")

    admission = sub.add_parser(
        "admission",
        help="sweep §10 admission policies under stream oversubscription",
        description="Runs the overload-protection demo: three admission "
        "policies (immediate, serialized, queued-with-timeout) across "
        "stream oversubscription levels, reporting per-stream throughput "
        "and the RESOURCE_SEMAPHORE counters, and checking the "
        "monotone-degradation invariant (per-stream throughput never "
        "increases with oversubscription).",
    )
    admission.add_argument("--scale-factor", type=int, default=100)
    admission.add_argument(
        "--oversub", type=_listed(int), default="1,4,16", metavar="L1,L2,...",
        help="comma-separated oversubscription levels relative to the "
        "pool's natural concurrency (default: 1,4,16)",
    )
    admission.add_argument(
        "--admission-policy",
        choices=("immediate", "serialized", "queued", "all"), default="all",
        help="which policy to sweep (default: all three)",
    )
    admission.add_argument("--base-streams", type=int, default=4,
                           help="streams at 1x oversubscription (default: 4, "
                           "the default pool's concurrent-grant capacity)")
    admission.add_argument("--grant-timeout", type=float, default=30.0,
                           metavar="SECONDS",
                           help="grant-queue timeout for the queued policy "
                           "(default: 30)")
    admission.add_argument("--duration-scale", type=float, default=0.4)
    admission.add_argument("--seed", type=int, default=0)

    chaos = sub.add_parser(
        "chaos",
        help="run a seeded chaos schedule against a replicated fleet",
        description="Builds a replicated shard group (N engine replicas on "
        "one simulated clock with heartbeat failure detection and hedged "
        "reads), composes a reproducible fault schedule from the seed, "
        "drives writer/reader clients through it, and audits the four "
        "resilience invariants: no acknowledged durable write lost, "
        "unavailability bounded by the detection+promotion budget, hedged "
        "p99 no worse than unhedged under the same schedule (with "
        "--compare-hedging), and bit-identical replay digests (checked "
        "automatically when the schedule is empty, or with "
        "--check-determinism).  Exits 1 if any invariant is violated.",
    )
    from repro.faults.chaos import SCENARIOS

    chaos.add_argument("--seed", type=int, default=0,
                       help="schedule seed (default: 0)")
    chaos.add_argument("--seeds", type=_listed(int), default=None,
                       metavar="S1,S2,...",
                       help="comma-separated seeds for a soak; overrides "
                       "--seed")
    chaos.add_argument("--duration", type=float, default=3.0,
                       help="simulated seconds per run (default: 3)")
    chaos.add_argument("--scenario", "--faults", dest="scenario",
                       choices=sorted(SCENARIOS), default="mixed",
                       help="fault mix to schedule (default: mixed; 'none' "
                       "runs fault-free and checks determinism)")
    chaos.add_argument("--episodes", type=int, default=3,
                       help="fault episodes per run (default: 3)")
    chaos.add_argument("--replicas", type=int, default=3,
                       help="replica-group size (default: 3)")
    chaos.add_argument("--no-hedging", action="store_true",
                       help="disable hedged reads in the primary run")
    chaos.add_argument("--compare-hedging", action="store_true",
                       help="re-run the identical schedule with hedging off "
                       "and gate on the p99 comparison")
    chaos.add_argument("--check-determinism", action="store_true",
                       help="replay the run and require a bit-identical "
                       "report digest (always on for empty schedules)")
    chaos.add_argument("--journal", default=None, metavar="PATH",
                       help="append schedule/episode/failover/report events "
                       "to this JSONL journal")

    fleet = sub.add_parser(
        "fleet",
        help="drive open-loop traffic through a sharded multi-tenant fleet",
        description="Builds a sharded cluster of engine personalities on "
        "one simulated clock, feeds it an open-loop arrival trace "
        "(diurnal / MMPP burst / flash-crowd) attributed to weighted, "
        "prioritized tenants, and sweeps oversubscription while checking "
        "the graceful-degradation contract: every most-protected tenant's "
        "p99 stays inside its SLO at every load level, per-tenant goodput "
        "degrades monotonically, and sheds land on low-priority traffic "
        "first.  Optionally autoscales (queue/grant-wait/shed signals, "
        "serverless cold-start cost) and composes with seeded chaos "
        "schedules.  Exits 1 if any contract is violated.",
    )
    from repro.workloads.arrivals import TRACE_KINDS

    fleet.add_argument("--shards", type=int, default=2,
                       help="initial shard count (default: 2)")
    fleet.add_argument("--tenants", type=int, default=4,
                       help="tenant count; priorities cycle 0/1/2 "
                       "(default: 4)")
    fleet.add_argument("--trace", choices=TRACE_KINDS, default="diurnal",
                       help="arrival trace shape (default: diurnal)")
    fleet.add_argument("--offered-tps", type=float, default=300.0,
                       help="base offered rate before oversubscription "
                       "(default: 300)")
    fleet.add_argument("--oversub", type=_listed(float), default="1,4,16",
                       metavar="F1,F2,...",
                       help="oversubscription multipliers (default: 1,4,16)")
    fleet.add_argument("--duration", type=float, default=6.0,
                       help="simulated seconds per point (default: 6)")
    fleet.add_argument("--capacity", type=int, default=32,
                       help="concurrent transactions per shard (default: 32)")
    fleet.add_argument("--slo-ms", type=float, default=250.0,
                       help="per-tenant p99 SLO in ms (default: 250)")
    fleet.add_argument("--replication", type=int, default=1,
                       help="replicas per shard (default: 1)")
    fleet.add_argument("--autoscale", action="store_true",
                       help="enable the deterministic autoscaler")
    fleet.add_argument("--max-shards", type=int, default=16,
                       help="autoscaler ceiling (default: 16)")
    fleet.add_argument("--chaos", choices=sorted(SCENARIOS), default=None,
                       help="compose a seeded chaos schedule of this "
                       "scenario into every point")
    fleet.add_argument("--seed", type=int, default=0)
    fleet.add_argument("--jobs", type=_job_count, default=1,
                       help="sweep points simulated in parallel")
    fleet.add_argument("--journal", default=None, metavar="PATH",
                       help="append fleet-traffic events (spec digest + "
                       "full report) for resume")

    sub.add_parser(
        "backends", help="list engine personalities"
    )

    whatif = sub.add_parser(
        "whatif",
        help="answer sizing queries from the result cache or simulation",
        description="Answers 'what would throughput be at these knobs?' "
        "for the cross product of the --cores and --llc-mb comma lists: "
        "a cache hit where the exact config was measured, a simulation "
        "(stored in the cache) otherwise.",
    )
    whatif.add_argument("workload", choices=sorted(WORKLOADS))
    whatif.add_argument("scale_factor", type=int)
    whatif.add_argument("--cores", type=_listed(int), default="32",
                        metavar="C1,C2,...")
    whatif.add_argument("--llc-mb", type=_listed(int), default="40",
                        metavar="M1,M2,...")
    whatif.add_argument("--maxdop", type=int, default=None)
    whatif.add_argument("--grant-percent", type=float, default=25.0)
    whatif.add_argument("--duration", type=float, default=None,
                        help="simulated seconds (default: per-workload)")
    whatif.add_argument("--seed", type=int, default=0)
    _add_cache_options(whatif)

    figure = sub.add_parser("figure", help="regenerate a paper artifact")
    figure.add_argument(
        "name",
        choices=("table2", "table3", "fig5", "fig7"),
    )
    figure.add_argument("--duration-scale", type=float, default=0.3)
    _add_runner_options(figure)

    report = sub.add_parser(
        "report", help="run a reduced study and print a calibration report"
    )
    report.add_argument("--duration-scale", type=float, default=0.3)

    sub.add_parser("list", help="list workloads and scale factors")
    return parser


def _cmd_run(args) -> int:
    allocation = ResourceAllocation(
        logical_cores=args.cores,
        llc_mb=args.llc_mb,
        max_dop=args.maxdop,
        read_bw_limit=mb_per_s(args.read_limit_mb) if args.read_limit_mb else None,
        write_bw_limit=mb_per_s(args.write_limit_mb) if args.write_limit_mb else None,
        grant_percent=args.grant_percent,
        grant_timeout_s=args.grant_timeout,
        small_query_bypass_bytes=args.small_query_bypass_mb * 1024.0 * 1024.0,
        max_queue_depth=args.max_queue_depth,
        on_grant_timeout=args.on_grant_timeout,
    )
    duration = args.duration or duration_for(args.workload, args.scale_factor)
    m = run_experiment(args.workload, args.scale_factor, allocation=allocation,
                       duration=duration, seed=args.seed, backend=args.backend)
    rows = [
        ("primary metric", m.primary_metric),
        ("MPKI", m.mpki),
        ("SSD read MB/s", m.ssd_read_mb),
        ("SSD write MB/s", m.ssd_write_mb),
        ("DRAM read MB/s", m.dram_read_mb),
        ("SMT multiplier", m.smt_multiplier),
    ]
    if m.secondary_metric is not None:
        rows.insert(1, ("analytics QPH", m.secondary_metric))
    protection_on = (args.grant_timeout is not None
                     or args.small_query_bypass_mb > 0
                     or args.max_queue_depth is not None)
    if protection_on:
        rows += [
            ("grant waits", m.grant_waits),
            ("grant wait s", m.grant_wait_seconds),
            ("grant timeouts", m.grant_timeouts),
            ("grant degrades", m.grant_degrades),
            ("grant bypasses", m.grant_bypasses),
            ("grant queue peak", m.grant_queue_peak),
        ]
    print(format_table(
        ["metric", "value"], rows,
        title=f"{args.workload} SF={args.scale_factor} on {m.backend} "
        f"({duration:.0f}s simulated)",
    ))
    return 0


def _cmd_sweep(args) -> int:
    if args.axis == "cores":
        configs = core_sweep(args.workload, args.scale_factor,
                             duration_scale=args.duration_scale)
        xs = list(CORE_SWEEP)
        x_label = "cores"
    else:
        configs = llc_sweep(args.workload, args.scale_factor,
                            duration_scale=args.duration_scale)
        xs = list(LLC_SWEEP_MB)
        x_label = "llc_mb"
    configs = on_backend(configs, args.backend)
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
    print(format_series(
        x_label, xs,
        {
            "perf": [m.primary_metric for m in measurements],
            "mpki": [m.mpki_model for m in measurements],
            "ssd_rd_MB/s": [m.ssd_read_mb for m in measurements],
            "p99_ms": [m.p99_latency_ms for m in measurements],
            "p999_ms": [m.p999_latency_ms for m in measurements],
        },
        title=f"{args.workload} SF={args.scale_factor}: {args.axis} sweep",
    ))
    return 0


def _cmd_whatif(args) -> int:
    """Sizing answers (greppable: ``whatif:`` per point and a
    ``whatif-complete:`` cache/simulated tally)."""
    from repro.core.experiment import ExperimentConfig
    from repro.errors import ConfigurationError

    duration = args.duration or duration_for(args.workload, args.scale_factor)
    try:
        configs = [
            ExperimentConfig(
                workload=args.workload, scale_factor=args.scale_factor,
                allocation=ResourceAllocation(
                    logical_cores=cores, llc_mb=llc, max_dop=args.maxdop,
                    grant_percent=args.grant_percent,
                ),
                duration=duration, seed=args.seed,
            )
            for cores in args.cores for llc in args.llc_mb
        ]
    except ConfigurationError as exc:
        print(f"whatif: {exc}", file=sys.stderr)
        return 1
    cache = _resolve_cache(args)
    measurements = run_sweep(configs, cache=cache)
    for m in measurements:
        alloc = m.allocation
        print(f"whatif: {m.workload} sf={m.scale_factor} "
              f"cores={alloc.logical_cores} llc={alloc.llc_mb}MB "
              f"grant={alloc.grant_percent:g}%: {m.primary_metric:.3f} "
              f"(mpki {m.mpki_model:.2f})")
    hits = cache.hits if cache is not None else 0
    print(f"whatif-complete: {hits} cache, "
          f"{len(measurements) - hits} simulated")
    return 0


def _cmd_faults(args) -> int:
    """Fault-injection demo: one grid, five failure modes, one report.

    Output is line-oriented and greppable on purpose — the CI fault
    matrix asserts on ``sweep-complete:`` and ``resumed:`` markers.
    """
    from repro.core.experiment import ExperimentConfig
    from repro.faults import (
        CrashPoint,
        StorageBrownout,
        TransientWriteErrors,
        WorkerCrash,
        WorkerStall,
    )

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
    policy = _resolve_policy(args)
    report = run_supervised(configs, jobs=args.jobs, cache=cache, policy=policy)
    resumed = cache is not None and report.cache_hits > 0
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
    if resumed:
        print(f"resumed: {report.cache_hits} points served from cache")
    print(f"sweep-complete: {len(report.successes())}/{len(configs)}")
    return 0


def _cmd_admission(args) -> int:
    """Overload-protection demo: §10 policies under oversubscription.

    Output is line-oriented and greppable on purpose — the CI overload
    matrix asserts on ``admission-complete:`` and
    ``monotone-degradation:`` markers.
    """
    from repro.core.admission import ADMISSION_POLICIES, sweep_admission_policies

    policies = (ADMISSION_POLICIES if args.admission_policy == "all"
                else (args.admission_policy,))
    sweep = sweep_admission_policies(
        scale_factor=args.scale_factor,
        oversubscription=args.oversub,
        policies=policies,
        base_streams=args.base_streams,
        duration_scale=args.duration_scale,
        seed=args.seed,
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
    from repro.backends import BACKENDS, backend_names

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
    scale = args.duration_scale
    rows = []

    def ratio(workload, sf, duration):
        hi = run_experiment(workload, sf,
                            allocation=ResourceAllocation(logical_cores=16),
                            duration=duration)
        full = run_experiment(workload, sf, duration=duration)
        return hi.primary_metric / full.primary_metric, full

    for sf, paper in ((10, 1.72), (30, 1.27), (100, 0.93), (300, 0.82)):
        measured, _ = ratio("tpch", sf, duration_for("tpch", sf, scale))
        rows.append((f"TPC-H SF={sf} perf16/perf32", f"{measured:.2f}", paper))

    asdb16 = run_experiment("asdb", 2000,
                            allocation=ResourceAllocation(logical_cores=16),
                            duration=duration_for("asdb", 2000, scale))
    asdb32 = run_experiment("asdb", 2000,
                            duration=duration_for("asdb", 2000, scale))
    rows.append(("ASDB HT gain",
                 f"{(asdb32.primary_metric / asdb16.primary_metric - 1):.1%}",
                 "5-6.8%"))

    tpce = {sf: run_experiment("tpce", sf,
                               duration=duration_for("tpce", sf, scale))
            for sf in (5000, 15000)}
    rows.append(("TPC-E TPS(15000) > TPS(5000)",
                 tpce[15000].primary_metric > tpce[5000].primary_metric, True))
    from repro.engine.locks import WaitType
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
    from repro.core.journal import SweepJournal
    from repro.faults.chaos import ChaosConfig, run_chaos

    seeds = args.seeds or (args.seed,)
    journal = SweepJournal(args.journal) if args.journal else None
    violations = 0
    for seed in seeds:
        config = ChaosConfig(
            seed=seed,
            duration=args.duration,
            replicas=args.replicas,
            scenario=args.scenario,
            episodes=args.episodes,
            hedging=not args.no_hedging,
        )
        report = run_chaos(
            config,
            journal=journal,
            compare_hedging=args.compare_hedging,
            check_determinism=True if args.check_determinism else None,
        )
        print(f"chaos-schedule: seed={seed} scenario={args.scenario} "
              f"episodes={len(report.schedule)}")
        for episode in report.schedule:
            print(f"  t={episode.at:7.3f}s {episode.kind:<9} "
                  f"replica={episode.replica} duration={episode.duration:.3f}s")
        fleet = report.fleet
        print(f"  writes acked={int(fleet.get('writes_acked', 0))} "
              f"failovers={int(fleet.get('failovers', 0))} "
              f"epoch={int(fleet.get('epoch', 0))} "
              f"unavailable={fleet.get('unavailable_seconds', 0.0):.3f}s")
        hedging = report.hedging
        print(f"  reads={int(hedging.get('reads', 0))} "
              f"hedges={int(hedging.get('hedges', 0))} "
              f"hedge_wins={int(hedging.get('hedge_wins', 0))}")
        if report.failover_windows:
            worst = max(report.failover_windows)
            print(f"  failover windows: worst={worst:.3f}s "
                  f"bound={report.availability_bound:.3f}s")
        if report.read_p99 is not None:
            line = f"  read p99: {report.read_p99 * 1000.0:.2f}ms"
            if report.unhedged_read_p99 is not None:
                line += f" (unhedged {report.unhedged_read_p99 * 1000.0:.2f}ms)"
            print(line)
        for line in report.summary_lines():
            print(line)
        print(f"chaos-complete: seed={seed} ok={report.ok} "
              f"digest={report.digest[:16]}")
        if not report.ok:
            violations += 1
            print(f"chaos-violation: seed={seed} "
                  f"invariants={','.join(report.violations())}",
                  file=sys.stderr)
    return 1 if violations else 0


def _cmd_fleet(args) -> int:
    """Fleet-traffic sweep with the graceful-degradation contract.

    Output is line-oriented and greppable on purpose — the CI SLO
    matrix asserts on ``fleet-complete:``, ``slo-invariant:``,
    ``monotone-degradation:``, and ``shed-fairness:`` markers.
    """
    from repro.fleet.autoscale import AutoscalePolicy
    from repro.fleet.cluster import (
        FleetSpec,
        default_tenants,
        fleet_oversubscription_sweep,
    )
    from repro.workloads.arrivals import ArrivalSpec

    autoscale = None
    if args.autoscale:
        autoscale = AutoscalePolicy(min_shards=args.shards,
                                    max_shards=args.max_shards,
                                    cooldown_s=2.0)
    spec = FleetSpec(
        shards=args.shards,
        duration=args.duration,
        seed=args.seed,
        arrival=ArrivalSpec(offered_tps=args.offered_tps, trace=args.trace),
        tenants=default_tenants(args.tenants, slo_p99_ms=args.slo_ms),
        capacity_per_shard=args.capacity,
        replication=args.replication,
        autoscale=autoscale,
    )
    schedule = ()
    if args.chaos:
        from repro.faults.chaos import SCENARIOS, generate_schedule

        kinds = SCENARIOS[args.chaos]
        if kinds:
            schedule = generate_schedule(
                seed=args.seed, duration=args.duration, kinds=kinds,
                replicas=args.shards, episodes=3,
            )
    sweep = fleet_oversubscription_sweep(
        spec, oversubscription=args.oversub, jobs=args.jobs,
        journal=args.journal, schedule=schedule,
    )
    for oversub, report in zip(sweep.oversubscription, sweep.reports):
        rows = [
            (t.name, t.priority, t.arrivals, t.shed, t.governed,
             f"{t.goodput_tps:.1f}", f"{t.p50_ms:.1f}",
             f"{t.p99_ms:.1f}", f"{t.p999_ms:.1f}",
             "ok" if t.slo_ok else "VIOLATED")
            for t in sorted(report.tenants.values(),
                            key=lambda t: (t.priority, t.name))
        ]
        print(format_table(
            ["tenant", "prio", "arrivals", "shed", "governed", "tps",
             "p50ms", "p99ms", "p999ms", "slo"],
            rows,
            title=f"{oversub:g}x oversubscription: "
            f"{report.offered_tps:.0f} tps offered over {report.trace}, "
            f"{report.shards_initial}->{report.shards_peak} shards",
        ))
        scaling = report.scaling
        if scaling.get("decisions"):
            print(f"  autoscaler: {scaling['scale_outs']} out / "
                  f"{scaling['scale_ins']} in, reaction "
                  f"{report.reaction_seconds:.3f}s"
                  if report.reaction_seconds is not None else
                  f"  autoscaler: {scaling['scale_outs']} out / "
                  f"{scaling['scale_ins']} in")
        for episode in report.episodes:
            print(f"  chaos t={episode['at']:7.3f}s {episode['kind']:<9} "
                  f"shard={episode['shard']}")
    if sweep.resumed:
        print(f"  resumed {sweep.resumed} point(s) from journal")
    slo_ok = sweep.slo_invariant()
    monotone = sweep.monotone_degradation()
    fairness = sweep.shed_fairness()
    for line in sweep.slo_violations():
        print(f"slo-violation: {line}", file=sys.stderr)
    print(f"fleet-complete: {len(sweep.reports)} points seed={args.seed} "
          f"trace={args.trace}")
    print(f"slo-invariant: {'ok' if slo_ok else 'VIOLATED'}")
    print(f"monotone-degradation: {'ok' if monotone else 'VIOLATED'}")
    print(f"shed-fairness: {'ok' if fairness else 'VIOLATED'}")
    return 0 if (slo_ok and monotone and fairness) else 1


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {
        "run": _cmd_run,
        "sweep": _cmd_sweep,
        "faults": _cmd_faults,
        "admission": _cmd_admission,
        "chaos": _cmd_chaos,
        "fleet": _cmd_fleet,
        "backends": _cmd_backends,
        "whatif": _cmd_whatif,
        "figure": _cmd_figure,
        "report": _cmd_report,
        "list": _cmd_list,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
