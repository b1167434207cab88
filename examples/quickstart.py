#!/usr/bin/env python3
"""Quickstart: run a workload on the simulated testbed and read the dials.

Builds the paper's machine (2x Broadwell, 64 GB, 40 MB LLC with CAT,
NVMe SSD), runs the ASDB transactional benchmark for 15 simulated
seconds, prints throughput and PCM/iostat-style counters, then shrinks
the CAT allocation and shows the cache knee from §5.
"""

from repro.core import ResourceAllocation, run_experiment
from repro.core.report import format_series, format_table


def main() -> None:
    print("== 1. ASDB on the full machine " + "=" * 40)
    full = run_experiment("asdb", scale_factor=2000, duration=15.0)
    print(
        format_table(
            ["metric", "value"],
            [
                ("TPS", f"{full.primary_metric:.0f}"),
                ("LLC MPKI", f"{full.mpki:.1f}"),
                ("SSD read MB/s", f"{full.ssd_read_mb:.0f}"),
                ("SSD write MB/s", f"{full.ssd_write_mb:.0f}"),
                ("DRAM read MB/s", f"{full.dram_read_mb:.0f}"),
                ("p99 txn latency ms",
                 f"{full.p99_latency_ms:.1f}"),
            ],
            title="ASDB SF=2000, 32 cores, 40 MB LLC",
        )
    )

    print("\n== 2. Shrinking the LLC with CAT (the §5 knee) " + "=" * 24)
    sizes = [2, 4, 6, 8, 10, 16, 24, 40]
    tps, mpki = [], []
    for size in sizes:
        m = run_experiment(
            "asdb", 2000,
            allocation=ResourceAllocation(llc_mb=size),
            duration=10.0,
        )
        tps.append(m.primary_metric)
        mpki.append(m.mpki_model)
    print(format_series("llc_mb", sizes, {"TPS": tps, "MPKI": mpki}))
    knee_sizes = [s for s, t in zip(sizes, tps) if t >= 0.9 * tps[-1]]
    print(
        f"\nSmallest allocation within 90% of full performance: "
        f"{knee_sizes[0]} MB (Table 4 reports 8 MB for ASDB SF=2000)"
    )


if __name__ == "__main__":
    main()
