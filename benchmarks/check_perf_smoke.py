"""Perf-smoke gate: apply the benches' thresholds to their JSON reports.

Run after ``bench_runner_scaling.py`` and ``bench_sim_kernel.py`` have
regenerated ``BENCH_runner_scaling.json`` / ``BENCH_sim_kernel.json``:

    python benchmarks/check_perf_smoke.py \\
        [--baseline-kernel baseline/BENCH_sim_kernel.json]

Two classes of check:

* **Machine-relative ratios** (always applied): dispatch overhead under
  10% of serial sweep cost, vectorized MRC and counter rollups >= 2x,
  compaction observed, warm cache >= 10x.  These are robust across
  machines because both sides of each ratio ran on the same host.
* **Cross-commit regression** (only with ``--baseline-kernel``): the
  fresh ``points_per_second`` of each end-to-end anchor — ``fig2_mini``
  (the OLTP path) and ``olap_mini`` (token buckets and the water-filling
  server) — must be at least ``PERF_SMOKE_ALLOWED_REGRESSION`` (default
  0.8, i.e. no more than a 20% slowdown) times the committed
  baseline's.  Each is skipped with a notice when the baseline predates
  it.  Absolute wall-clock comparisons are only meaningful between
  same-class runners; loosen the env knob if CI hardware changes.
"""

import argparse
import json
import os
import sys
from pathlib import Path

_REPO_ROOT = Path(__file__).resolve().parent.parent

try:
    from benchmarks import (
        bench_fleet_slo,
        bench_runner_scaling,
        bench_sim_kernel,
    )
except ImportError:  # executed as a script: benchmarks/ is sys.path[0]
    import bench_fleet_slo
    import bench_runner_scaling
    import bench_sim_kernel


#: End-to-end anchors of ``BENCH_sim_kernel.json`` gated across commits.
ANCHORS = ("fig2_mini", "olap_mini")


def check_regression(fresh, baseline_path, allowed):
    baseline = json.loads(Path(baseline_path).read_text())
    for anchor in ANCHORS:
        old = baseline.get(anchor, {}).get("points_per_second")
        new = fresh.get(anchor, {}).get("points_per_second")
        if not old or not new:
            print(f"perf-smoke: baseline lacks {anchor}.points_per_second; "
                  "regression check skipped")
            continue
        ratio = new / old
        print(f"perf-smoke: {anchor} {new} vs baseline {old} "
              f"points/s ({ratio:.2f}x, floor {allowed:.2f}x)")
        assert ratio >= allowed, (
            f"{anchor} regressed: {new} points/s is {ratio:.2f}x the "
            f"baseline {old} (floor {allowed:.2f}x)"
        )


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--scaling", default=_REPO_ROOT / "BENCH_runner_scaling.json",
        help="fresh runner-scaling report",
    )
    parser.add_argument(
        "--kernel", default=_REPO_ROOT / "BENCH_sim_kernel.json",
        help="fresh sim-kernel report",
    )
    parser.add_argument(
        "--baseline-kernel", default=None,
        help="committed BENCH_sim_kernel.json to diff points_per_second "
        "against (omit to skip the cross-commit regression check)",
    )
    parser.add_argument(
        "--fleet-slo", nargs="?", const=_REPO_ROOT / "BENCH_fleet_slo.json",
        default=None, metavar="PATH",
        help="also gate a fresh BENCH_fleet_slo.json (shed monotonicity "
        "vs fleet size, autoscaler reaction bound); omit to skip",
    )
    args = parser.parse_args(argv)

    scaling = json.loads(Path(args.scaling).read_text())
    kernel = json.loads(Path(args.kernel).read_text())

    bench_runner_scaling.check_report(scaling)
    print(f"perf-smoke: dispatch overhead "
          f"{scaling['dispatch_overhead_fraction']:.1%} "
          f"(limit {bench_runner_scaling.DISPATCH_OVERHEAD_LIMIT:.0%}), "
          f"warm cache {scaling['warm_speedup']}x")
    # An honest verdict either way: a single-core runner cannot validate
    # parallel speedups, and pretending it checked them is worse than
    # saying it skipped them.
    cores = scaling["effective_cores"]
    if scaling["parallel_claims_valid"]:
        best = max(scaling["speedup"].values())
        print(f"perf-smoke: parallel_claims_valid=true "
              f"(effective_cores={cores}); best parallel speedup {best}x")
    else:
        print(f"perf-smoke: parallel_claims_valid=false "
              f"(effective_cores={cores}); SKIPPED parallel-scaling "
              f"assertions — not silently passed")
    bench_sim_kernel.check_report(kernel)
    print(f"perf-smoke: MRC {kernel['mrc']['speedup']}x, "
          f"counter rollup {kernel['counter_rollup']['speedup']}x, "
          f"{kernel['events']['compactions']} compaction(s)")

    if args.baseline_kernel:
        allowed = float(os.environ.get("PERF_SMOKE_ALLOWED_REGRESSION", "0.8"))
        check_regression(kernel, args.baseline_kernel, allowed)
    if args.fleet_slo:
        fleet = json.loads(Path(args.fleet_slo).read_text())
        bench_fleet_slo.check_report(fleet)
        reaction = fleet["reaction"]
        print(f"perf-smoke: fleet reaction "
              f"{reaction['reaction_seconds']}s (bound 4s), shed "
              f"reduction {reaction['shed_reduction']:.0%} over static")
    print("perf-smoke: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
