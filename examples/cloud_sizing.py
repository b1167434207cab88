#!/usr/bin/env python3
"""Cloud SLO sizing from the nonlinear bandwidth response (the Fig 5 use
case).

A DBaaS provider prices storage-bandwidth tiers.  A linear performance
model says: to reach a target QPS, buy bandwidth proportional to it.  The
paper shows the real response curve is concave, so the linear model
overbuys: the paper reports about 20%, and this model's TPC-H curve
flattens earlier (the savings row prints 76%).

This example simulates every read-bandwidth tier for TPC-H at SF=300
through the supervised runner, fits the naive linear model, and picks the
cheapest tier meeting the target QPS from the measured curve.  Results go
to a result cache (the directory given as the first argument, else a
fresh temporary one), so a second run over the same directory is all
disk reads::

    python examples/cloud_sizing.py [CACHE_DIR]
"""

import sys
import tempfile

from repro.core import ResourceAllocation
from repro.core.analysis import linear_response_comparison
from repro.core.experiment import ExperimentConfig
from repro.core.report import format_series, format_table
from repro.core.resultcache import ResultCache
from repro.core.runner import run_supervised
from repro.units import mb_per_s

#: Bandwidth tiers on offer (MB/s) and monthly prices (made-up units).
TIERS = [(200, 10), (400, 19), (600, 27), (800, 34), (1200, 48), (2500, 90)]

DURATION = 2500.0


def tier_config(limit_mb: float) -> ExperimentConfig:
    return ExperimentConfig(
        workload="tpch", scale_factor=300,
        allocation=ResourceAllocation(read_bw_limit=mb_per_s(limit_mb)),
        duration=DURATION,
    )


def main() -> None:
    directory = (sys.argv[1] if len(sys.argv) > 1
                 else tempfile.mkdtemp(prefix="cloud-sizing-"))
    cache = ResultCache(directory)

    print(f"Sweeping {len(TIERS)} read-bandwidth caps for TPC-H SF=300 "
          f"(3 streams)...")
    report = run_supervised([tier_config(t[0]) for t in TIERS], cache=cache)
    print(f"  {report.summary()}")

    limits = [t[0] for t in TIERS]
    qps = [m.primary_metric for m in report.successes()]
    print(format_series("limit_MB/s", limits, {"QPS": qps}))

    comparison = linear_response_comparison(limits, qps, probe_fraction=0.95)
    print(
        format_table(
            ["target QPS", "linear model buys", "curve needs", "savings"],
            [(
                f"{comparison.probe_performance:.3f}",
                f"{comparison.linear_bandwidth:.0f} MB/s",
                f"{comparison.actual_bandwidth:.0f} MB/s",
                f"{comparison.savings_fraction:.0%}",
            )],
            title="\nLinear model vs measured response",
        )
    )

    target = comparison.probe_performance
    for (limit, price), achieved in zip(TIERS, qps):
        if achieved >= target:
            print(
                f"\nCheapest tier meeting QPS >= {target:.3f}: "
                f"{limit} MB/s at price {price}"
            )
            break
    linear_tier = next(
        (t for t in TIERS if t[0] >= comparison.linear_bandwidth), TIERS[-1]
    )
    print(
        f"The linear model would have bought the {linear_tier[0]} MB/s tier "
        f"at price {linear_tier[1]}."
    )


if __name__ == "__main__":
    main()
