"""One benchmark process: prime a workload, run its passes, report JSON.

Started by ``run.py`` as a fresh interpreter for every rep, so set-up is
measured the way a user pays it: ``--t0`` is the parent's
``time.monotonic()`` just before it started this process, and
``setup_s`` runs from there, through ``import repro``, to the end of the
workload's prime step.

    python3 benchmarks/e2e/worker.py --workload W --seed N --t0 T \\
        --workdir DIR [--passes 1] [--traced] [--smoke]

Prints one JSON object on stdout: set-up time, each pass's wall time,
output digests and operation counts, peak RSS, and with ``--traced`` the
layer metrics of one more pass run under cProfile.
"""

import argparse
import json
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))


def children(pid: int):
    """PIDs whose parent is *pid* (Linux /proc)."""
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                stat = handle.read()
        except OSError:  # the process ended while we looked
            continue
        # The command name is parenthesised and may hold spaces.
        if stat.rsplit(")", 1)[1].split()[1] == str(pid):
            found.append(int(entry))
    return found


def peak_rss_mb() -> float:
    """Largest VmHWM of this process and its children (pool workers)."""
    peaks = []
    for pid in [os.getpid()] + children(os.getpid()):
        try:
            with open(f"/proc/{pid}/status") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        peaks.append(int(line.split()[1]) / 1024.0)
        except OSError:
            continue
    return max(peaks)


def _run_pass(workload, args, digest):
    start = time.perf_counter()
    out = workload.run_pass(args.seed, args.workdir, args.smoke)
    wall = time.perf_counter() - start
    return out, {
        "wall_s": wall,
        "timings": out.timings,
        "attempted": out.attempted,
        "failed": out.failed,
        "errors": out.errors,
        "digests": {key: digest(item) for key, item in out.items.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--passes", type=int, default=1)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)

    sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]
    from benchmarks.e2e.workloads import WORKLOADS, digest
    from repro.core import workerpool

    workload = WORKLOADS[args.workload]
    workload.prime(args.seed, args.workdir)
    result = {"setup_s": time.monotonic() - args.t0, "passes": []}
    for _ in range(args.passes):
        result["passes"].append(_run_pass(workload, args, digest)[1])
    result["peak_rss_mb"] = peak_rss_mb()

    if args.traced:
        import cProfile
        import pstats

        from benchmarks.e2e import layers

        before = workerpool.pool_stats()
        counters = layers.CallCounters()
        profile = cProfile.Profile()
        try:
            profile.enable()
            out, traced = _run_pass(workload, args, digest)
        finally:
            profile.disable()
            counters.remove()
        after = workerpool.pool_stats()
        traced["layers"] = layers.layer_metrics(
            pstats.Stats(profile).stats, counters, out.counts,
            {k: after[k] - before[k] for k in after})
        traced["scope"] = workload.scope
        traced["unmapped_modules"] = layers.unmapped_modules(sys.modules)
        result["traced"] = traced

    # Stop the warm pool's workers and wait for them before exiting.
    for pool in workerpool.active_pools().values():
        pool.executor.shutdown(wait=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
