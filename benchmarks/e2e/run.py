"""End-to-end benchmark of the simulator: four workloads, end-to-end
metrics from untraced runs, and a per-layer table from a traced run.

One closed-loop client: this process starts one fresh worker process at
a time (``worker.py``), each of which primes one workload and runs one
pass of it; reps interleave round-robin across workloads.  No workload
uses more than two worker processes of its own.

Report mode (every workload, or those named)::

    python3 benchmarks/e2e/run.py [--workload W ...] [--seed N] [--reps R]
        [--out F] [--smoke]

prints every metric with its unit, the layer table of one traced pass
per workload, and writes the whole result as JSON (default
``benchmarks/e2e/results/latest.json``).

Single-run mode, one workload, last stdout line a JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics`` (the end-to-end
metrics of ``BENCHMARK.json`` with ``--trace 0``, its per-layer metrics
with ``--trace 1``)::

    python3 benchmarks/e2e/run.py --workload W --seed N --seconds S --trace 0

Compare two report-mode results, and rewrite the seed-0 golden digests::

    python3 benchmarks/e2e/run.py compare A.json B.json
    python3 benchmarks/e2e/run.py --update-golden

Exits nonzero when an output digest differs from ``golden.json`` (seed
0) or from the other reps (any seed), or when an operation failed.
"""

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(BENCH_DIR))
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(BENCH_DIR, "worker.py")
GOLDEN = os.path.join(BENCH_DIR, "golden.json")
WORKDIR = os.path.join(BENCH_DIR, ".work")
DEFAULT_OUT = os.path.join(BENCH_DIR, "results", "latest.json")

if ROOT not in sys.path:
    sys.path.insert(0, ROOT)
from benchmarks.e2e.worker import children  # noqa: E402

#: Untraced reps (fresh processes) per single run, whatever --seconds is,
#: so that every run reports medians of at least this many samples.
MIN_REPS = 3

#: A worker that runs longer than this is killed and the run fails.
WORKER_TIMEOUT_S = 170.0

#: End-to-end metrics measured from the untraced reps (see end_to_end).
MEASURED = ("setup_s", "wall_s", "peak_rss_mb")


class BenchmarkError(RuntimeError):
    pass


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def workload_names(benchmark):
    """The workloads, in the order reps interleave them."""
    return [w["name"] for w in benchmark["workloads"]]


def _kill_tree(pid):
    for child in children(pid):
        _kill_tree(child)
    try:
        os.kill(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def spawn(workload, seed, workdir, passes=1, traced=False, smoke=False):
    """Run one fresh worker process and return its parsed result."""
    env = dict(os.environ)
    for name in ("REPRO_CACHE_DIR", "REPRO_POOL_START_METHOD"):
        env.pop(name, None)
    env["TMPDIR"] = workdir
    command = [sys.executable, WORKER, "--workload", workload,
               "--seed", str(seed), "--workdir", workdir,
               "--passes", str(passes)]
    if traced:
        command.append("--traced")
    if smoke:
        command.append("--smoke")
    command += ["--t0", repr(time.monotonic())]
    proc = subprocess.Popen(command, stdout=subprocess.PIPE, env=env,
                            cwd=ROOT, text=True)
    try:
        stdout, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except BaseException as exc:
        # Timeout or interrupt: stop the worker and its pool, then reap.
        _kill_tree(proc.pid)
        proc.communicate()
        if isinstance(exc, subprocess.TimeoutExpired):
            raise BenchmarkError(
                f"{workload}: worker exceeded {WORKER_TIMEOUT_S:.0f} s"
            ) from exc
        raise
    if proc.returncode != 0 or not stdout.strip():
        raise BenchmarkError(
            f"{workload}: worker exited with code {proc.returncode}")
    return json.loads(stdout.strip().splitlines()[-1])


def load_golden():
    try:
        with open(GOLDEN) as handle:
            return json.load(handle)
    except FileNotFoundError:
        return None


def digest_mismatches(workload, passes, seed, smoke):
    """Output digests that differ from the reference: the golden file
    when it covers this seed, else the first pass."""
    golden = load_golden()
    if (golden is not None and not smoke and golden["seed"] == seed
            and workload in golden["digests"]):
        reference = golden["digests"][workload]
    else:
        reference = passes[0]["digests"]
    mismatches = 0
    for p in passes:
        keys = set(reference) | set(p["digests"])
        mismatches += sum(p["digests"].get(k) != reference.get(k)
                          for k in keys)
    return mismatches


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def _summary(values, unit, value=None):
    q1, median, q3 = quartiles(values)
    return {"unit": unit, "value": median if value is None else value,
            "q1": q1, "q3": q3, "n": len(values), "values": values}


def _units(benchmark, section):
    return {m["name"]: m["unit"] for m in benchmark[section]}


def pass_wall(passes):
    """Host seconds of one pass: the sum over its operations of each
    operation's median time across *passes*.

    Host contention here comes in bursts of a few seconds.  A burst
    spoils the operations it overlaps in one pass, and the per-operation
    median drops them, where the median of whole-pass times would
    keep a burst that hit most passes somewhere.
    """
    return sum(statistics.median(p["timings"][op] for p in passes)
               for op in passes[0]["timings"])


def end_to_end(reps, units):
    """Summaries of the measured end-to-end metrics over the reps: the
    median for set-up and memory, :func:`pass_wall` for the pass.  The
    quartiles are those of the per-rep samples."""
    passes = [p for r in reps for p in r["passes"]]
    return {
        "setup_s": _summary([r["setup_s"] for r in reps], units["setup_s"]),
        "wall_s": _summary([p["wall_s"] for p in passes], units["wall_s"],
                           value=pass_wall(passes)),
        "peak_rss_mb": _summary([r["peak_rss_mb"] for r in reps],
                                units["peak_rss_mb"]),
    }


def layer_metrics(traced, untraced_wall):
    """The traced pass's layer metrics plus the two that need the
    untraced wall time."""
    metrics = dict(traced["layers"])
    steps = metrics["sim.events.steps"]
    metrics["sim.events.host_us_per_step"] = (
        untraced_wall / steps * 1e6 if steps else 0.0)
    metrics["trace.overhead"] = traced["wall_s"] / untraced_wall
    return metrics


def _accounting(passes):
    """Attempted and failed operations; each error goes to stderr."""
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    for p in passes:
        for error in p["errors"]:
            print(f"error: {error}", file=sys.stderr)
    return attempted, failed


def _git_commit():
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def _nproc():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count()


# -- printing ------------------------------------------------------------------


def _print_end_to_end(name, summary):
    print(f"  {name:<18} {summary['value']:>12.4f} {summary['unit']:<6}"
          f" [q1 {summary['q1']:.4f}, q3 {summary['q3']:.4f}, "
          f"n={summary['n']}]")


def _print_layers(metrics, units, scope):
    print(f"  layer table (traced; {scope}):")
    layers = [n[:-len(".self_s")] for n in units if n.endswith(".self_s")]
    for layer in layers:
        print(f"    {layer:<18} {metrics[layer + '.self_s']:>9.3f} s "
              f"{100 * metrics[layer + '.share']:>6.1f} %")
    for name, unit in units.items():
        if not name.endswith((".self_s", ".share")):
            print(f"    {name:<40} {metrics[name]:>14.4f} {unit}")


# -- modes ---------------------------------------------------------------------


def single_run(args, benchmark, workdir):
    """One workload, one run; prints the single-line JSON result."""
    workload = args.workload[0]
    if args.trace:
        result = spawn(workload, args.seed, workdir, passes=1, traced=True,
                       smoke=args.smoke)
        passes = result["passes"] + [result["traced"]]
        for module in result["traced"]["unmapped_modules"]:
            print(f"warning: {module} has no layer; its time is "
                  "unattributed", file=sys.stderr)
        units = _units(benchmark, "per_layer")
        values = layer_metrics(result["traced"],
                               result["passes"][0]["wall_s"])
    else:
        reps, measured = [], 0.0
        while len(reps) < MIN_REPS or measured < args.seconds:
            reps.append(spawn(workload, args.seed, workdir,
                              smoke=args.smoke))
            measured += reps[-1]["passes"][0]["wall_s"]
        passes = [p for r in reps for p in r["passes"]]
        units = _units(benchmark, "end_to_end")
        values = {name: s["value"]
                  for name, s in end_to_end(reps, units).items()}
    attempted, failed = _accounting(passes)
    mismatches = digest_mismatches(workload, passes, args.seed, args.smoke)
    correct = mismatches == 0 and failed == 0
    for name, unit in units.items():
        print(f"{workload} {name} {values[name]:.6g} {unit}")
    if mismatches:
        print(f"{workload}: {mismatches} output digest(s) differ",
              file=sys.stderr)
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0 if correct else 1


def report(args, benchmark, workdir):
    """Every selected workload: interleaved untraced reps, then one
    traced pass each."""
    names = args.workload or workload_names(benchmark)
    reps = {name: [] for name in names}
    for _ in range(args.reps):
        for name in names:
            reps[name].append(spawn(name, args.seed, workdir,
                                    smoke=args.smoke))
    e2e_units = _units(benchmark, "end_to_end")
    layer_units = _units(benchmark, "per_layer")
    result = {
        "commit": _git_commit(), "python": platform.python_version(),
        "nproc": _nproc(), "seed": args.seed, "reps": args.reps,
        "smoke": args.smoke, "workloads": {},
    }
    status = 0
    for name in names:
        traced = spawn(name, args.seed, workdir, passes=0, traced=True,
                       smoke=args.smoke)["traced"]
        passes = [p for r in reps[name] for p in r["passes"]] + [traced]
        attempted, failed = _accounting(passes)
        mismatches = digest_mismatches(name, passes, args.seed, args.smoke)
        e2e = end_to_end(reps[name], e2e_units)
        e2e["failed_fraction"] = {"unit": "ratio",
                                  "value": failed / attempted}
        e2e["digest_mismatches"] = {"unit": "count", "value": mismatches}
        metrics = layer_metrics(traced, e2e["wall_s"]["value"])
        result["workloads"][name] = {
            "end_to_end": e2e,
            "attempted": attempted, "failed": failed,
            "per_layer": {m: {"value": metrics[m], "unit": unit}
                          for m, unit in layer_units.items()},
            "layer_scope": traced["scope"],
            "unmapped_modules": traced["unmapped_modules"],
        }
        print(f"{name}:")
        for metric in MEASURED:
            _print_end_to_end(metric, e2e[metric])
        print(f"  {'failed_fraction':<18} {failed / attempted:>12.4f} ratio"
              f" [{failed} of {attempted} operations]")
        print(f"  {'digest_mismatches':<18} {mismatches:>12d} count")
        _print_layers(metrics, layer_units, traced["scope"])
        if mismatches or failed:
            status = 1
    out = args.out or DEFAULT_OUT
    os.makedirs(os.path.dirname(os.path.abspath(out)), exist_ok=True)
    with open(out, "w") as handle:
        json.dump(result, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"result written to {out}")
    return status


def update_golden(args, benchmark, workdir):
    if args.seed != 0 or args.smoke:
        raise BenchmarkError("golden digests are for seed 0, full size")
    names = args.workload or workload_names(benchmark)
    golden = load_golden() or {"seed": 0, "digests": {}}
    for name in names:
        result = spawn(name, 0, workdir)
        golden["digests"][name] = result["passes"][0]["digests"]
        print(f"{name}: {len(golden['digests'][name])} digests")
    with open(GOLDEN, "w") as handle:
        json.dump(golden, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


def compare(path_a, path_b, benchmark):
    """One row per (workload, metric): values, quartiles, verdict.

    A metric is ``unresolved`` when either side's quartile spread,
    relative to its value, exceeds the metric's bound, unless every
    run of B is better than every run of A.  Count metrics of the layer
    table must match exactly.
    """
    with open(path_a) as handle:
        a = json.load(handle)
    with open(path_b) as handle:
        b = json.load(handle)
    bounds = {m["name"]: m for m in benchmark["end_to_end"]}
    counts = [m["name"] for m in benchmark["per_layer"]
              if m["unit"] == "count"]
    status = 0
    print(f"{'workload':<16} {'metric':<18} {'A value [q1, q3]':>30} "
          f"{'B value [q1, q3]':>30}  verdict")
    for workload in sorted(set(a["workloads"]) & set(b["workloads"])):
        ea = a["workloads"][workload]["end_to_end"]
        eb = b["workloads"][workload]["end_to_end"]
        for name in MEASURED:
            spec = bounds[name]
            verdict = _verdict(ea[name], eb[name], spec["bound"],
                               spec["better"] == "lower")
            status |= verdict == "worse"
            print(f"{workload:<16} {name:<18} {_fmt(ea[name]):>30} "
                  f"{_fmt(eb[name]):>30}  {verdict}")
        for name in ("failed_fraction", "digest_mismatches"):
            va, vb = ea[name]["value"], eb[name]["value"]
            verdict = "worse" if vb > va else (
                "better" if vb < va else "same")
            status |= verdict == "worse"
            print(f"{workload:<16} {name:<18} {va:>30} {vb:>30}  {verdict}")
        la = a["workloads"][workload]["per_layer"]
        lb = b["workloads"][workload]["per_layer"]
        differing = [n for n in counts
                     if la[n]["value"] != lb[n]["value"]]
        for name in differing:
            print(f"{workload:<16} count {name} differs: "
                  f"{la[name]['value']} vs {lb[name]['value']}")
        status |= bool(differing)
        print(f"{workload:<16} {len(counts) - len(differing)}/{len(counts)}"
              " count metrics match exactly")
    return int(status)


def _fmt(summary):
    return (f"{summary['value']:.4f} [{summary['q1']:.4f}, "
            f"{summary['q3']:.4f}]")


def _verdict(a, b, bound, lower_is_better):
    """better / same / worse / unresolved for summaries *a* -> *b*."""
    spread = max((s["q3"] - s["q1"]) / s["value"] for s in (a, b))
    sign = 1.0 if lower_is_better else -1.0
    # Positive change means B is worse than A.
    change = sign * (b["value"] - a["value"]) / a["value"]
    if spread > bound:
        if all(sign * (vb - va) < 0
               for vb in b["values"] for va in a["values"]):
            return "better"
        return "unresolved"
    if change > bound:
        return "worse"
    if change < -bound:
        return "better"
    return "same"


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"error: no repro package under {SRC}", file=sys.stderr)
        return 2
    benchmark = load_benchmark()
    if argv[:1] == ["compare"]:
        if len(argv) != 3:
            print("usage: run.py compare A.json B.json", file=sys.stderr)
            return 2
        return compare(argv[1], argv[2], benchmark)
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", action="append",
                        choices=workload_names(benchmark))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--reps", type=int, default=5,
                        help="untraced reps per workload (report mode)")
    parser.add_argument("--seconds", type=float, default=0.0,
                        help="measured pass seconds per run (single run)")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="single-run mode: 0 = end-to-end metrics, "
                             "1 = per-layer metrics")
    parser.add_argument("--out", help="report-mode JSON result path")
    parser.add_argument("--smoke", action="store_true",
                        help="about one second of work per pass")
    parser.add_argument("--update-golden", action="store_true")
    args = parser.parse_args(argv)
    if args.trace is not None and (not args.workload
                                   or len(args.workload) != 1):
        parser.error("--trace needs exactly one --workload")
    os.makedirs(WORKDIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=WORKDIR)
    try:
        if args.update_golden:
            return update_golden(args, benchmark, workdir)
        if args.trace is not None:
            return single_run(args, benchmark, workdir)
        return report(args, benchmark, workdir)
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
