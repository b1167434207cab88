"""Paper-shape integration tests: the headline findings of every section,
asserted with tolerances against the simulated testbed.

These are the "who wins, by roughly what factor, where crossovers fall"
checks the reproduction is graded on; absolute throughputs are not
compared (our substrate is a simulator, not the authors' testbed).
"""

import pytest

from repro.core.experiment import run_experiment
from repro.core.knobs import ResourceAllocation
from repro.engine.locks import WaitType
from repro.units import mb_per_s


def perf(workload, sf, duration, **alloc_kwargs):
    m = run_experiment(
        workload, sf, allocation=ResourceAllocation(**alloc_kwargs),
        duration=duration,
    )
    return m.primary_metric


class TestSection4Cores:
    """§4: sensitivity to number of cores and hyper-threading."""

    def test_tpch_ht_crossover(self):
        """perf16/perf32 = 1.72 / 1.27 / 0.93 / 0.82 for SF 10/30/100/300:
        HT detrimental at small SFs, beneficial at large ones."""
        targets = {10: (1.72, 150), 30: (1.27, 400), 100: (0.93, 1200),
                   300: (0.82, 3000)}
        for sf, (target, duration) in targets.items():
            ratio = (perf("tpch", sf, duration, logical_cores=16)
                     / perf("tpch", sf, duration, logical_cores=32))
            assert ratio == pytest.approx(target, rel=0.15), (sf, ratio)

    def test_tpch_scales_with_physical_cores(self):
        values = [perf("tpch", 10, 150, logical_cores=n) for n in (2, 4, 8, 16)]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_oltp_scales_with_physical_cores(self):
        values = [perf("asdb", 2000, 8, logical_cores=n) for n in (2, 4, 8, 16)]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_asdb_ht_gain_small(self):
        """§4: 5-6.8% improvement from the extra logical cores."""
        for sf in (2000, 6000):
            gain = (perf("asdb", sf, 10, logical_cores=32)
                    / perf("asdb", sf, 10, logical_cores=16) - 1)
            assert 0.01 <= gain <= 0.12, (sf, gain)

    def test_tpce_ht_gain_large(self):
        """§4: 16.7-24.2% improvement for TPC-E."""
        for sf in (5000, 15000):
            gain = (perf("tpce", sf, 12, logical_cores=32)
                    / perf("tpce", sf, 12, logical_cores=16) - 1)
            assert 0.12 <= gain <= 0.30, (sf, gain)

    def test_tpce_larger_scale_factor_is_faster(self):
        """§4: TPC-E shows better performance at SF=15000 despite more IO
        (reduced contention for shared data)."""
        assert perf("tpce", 15000, 15) > perf("tpce", 5000, 15)

    def test_htap_components_diverge_with_scale(self):
        """§4: at SF=15000 DSS performs less and OLTP performs better."""
        small = run_experiment("htap", 5000, duration=20.0)
        large = run_experiment("htap", 15000, duration=20.0)
        assert large.primary_metric > small.primary_metric          # OLTP up
        assert large.secondary_metric < small.secondary_metric      # DSS down


class TestTable3Waits:
    """Table 3: wait-time ratios, TPC-E SF=15000 vs SF=5000."""

    @pytest.fixture(scope="class")
    def waits(self):
        return {
            sf: run_experiment("tpce", sf, duration=20.0).wait_times
            for sf in (5000, 15000)
        }

    def test_lock_waits_shrink(self, waits):
        ratio = waits[15000][WaitType.LOCK] / waits[5000][WaitType.LOCK]
        assert ratio < 0.7  # paper: 0.15

    def test_pagelatch_waits_shrink(self, waits):
        ratio = waits[15000][WaitType.PAGELATCH] / waits[5000][WaitType.PAGELATCH]
        assert ratio < 1.0  # paper: 0.56

    def test_pageiolatch_waits_explode(self, waits):
        ratio = (waits[15000][WaitType.PAGEIOLATCH]
                 / max(1e-9, waits[5000][WaitType.PAGEIOLATCH]))
        assert ratio > 10.0  # paper: 74.61

    def test_sigma_below_one(self, waits):
        small = sum(waits[5000][w] for w in
                    (WaitType.LOCK, WaitType.LATCH, WaitType.PAGELATCH))
        large = sum(waits[15000][w] for w in
                    (WaitType.LOCK, WaitType.LATCH, WaitType.PAGELATCH))
        assert large / small < 1.0  # paper: 0.49


class TestSection5Cache:
    """§5: LLC capacity sensitivity."""

    def test_perf_rises_with_llc_with_knee(self):
        """Dramatic gains at small allocations, modest beyond the knee."""
        sizes = (2, 10, 40)
        values = [perf("tpch", 100, 1200, llc_mb=mb) for mb in sizes]
        assert values[0] < values[1] <= values[2] * 1.02
        small_gain = values[1] / values[0]
        large_gain = values[2] / values[1]
        assert small_gain > 2.0          # paper: 3.4x from 2->10 MB
        assert large_gain < 1.6          # paper: +26% from 10->40 MB

    def test_mpki_falls_with_llc(self):
        mpkis = [
            run_experiment("tpch", 100,
                           allocation=ResourceAllocation(llc_mb=mb),
                           duration=600).mpki_model
            for mb in (2, 10, 40)
        ]
        assert mpkis[0] > mpkis[1] > mpkis[2]

    def test_asdb_tail_latency_knee(self):
        """§5: the 99th-percentile latency for ASDB (not shown in the
        paper) exhibits a knee like the miss-rate curves: it collapses
        once the hot working set fits."""
        def p99(llc_mb):
            m = run_experiment(
                "asdb", 2000,
                allocation=ResourceAllocation(llc_mb=llc_mb), duration=8,
            )
            return m.tracker.latencies["txn"].percentile(99)
        tail = {mb: p99(mb) for mb in (2, 10, 40)}
        assert tail[2] > 1.2 * tail[10]           # steep below the knee
        assert tail[10] < 1.2 * tail[40]          # flat beyond it

    def test_oltp_needs_less_cache_than_analytical(self):
        """Table 4's qualitative claim."""
        def sufficient_90(workload, sf, duration):
            from repro.core.analysis import sufficient_allocation
            sizes = [2, 6, 10, 16, 24, 40]
            values = [perf(workload, sf, duration, llc_mb=mb) for mb in sizes]
            return sufficient_allocation(sizes, values, 0.90)
        asdb = sufficient_90("asdb", 2000, 8)
        htap = sufficient_90("htap", 5000, 15)
        assert asdb is not None and htap is not None
        assert asdb <= htap


class TestSection6Storage:
    """§6: storage bandwidth sensitivity."""

    def test_read_limit_throttles_tpch(self):
        free = perf("tpch", 300, 3000)
        capped = perf("tpch", 300, 3000, read_bw_limit=mb_per_s(200))
        assert capped < 0.5 * free

    def test_read_response_has_diminishing_returns(self):
        from repro.core.analysis import diminishing_returns
        limits = [200, 600, 1200, 2500]
        values = [
            perf("tpch", 300, 3000, read_bw_limit=mb_per_s(l)) for l in limits
        ]
        assert diminishing_returns(limits, values)

    def test_write_limits_hit_transactional_workloads(self):
        """§6: ASDB TPS drops ~6% at 100 MB/s and ~44% at 50 MB/s even
        though the database mostly fits in memory."""
        base = perf("asdb", 2000, 10)
        drop100 = 1 - perf("asdb", 2000, 10, write_bw_limit=mb_per_s(100)) / base
        drop50 = 1 - perf("asdb", 2000, 10, write_bw_limit=mb_per_s(50)) / base
        assert 0.0 <= drop100 <= 0.20
        assert 0.25 <= drop50 <= 0.65
        assert drop50 > drop100


class TestSection7Parallelism:
    """§7: MAXDOP sensitivity and plan adaptation (unit-level plan checks
    live in tests/engine; here the executed-latency view)."""

    def test_insensitive_queries_flat_at_sf10(self):
        from repro.core.figures import fig6_maxdop
        speedups = fig6_maxdop(10, maxdops=(1, 8, 32), duration_scale=1.0)
        for name in ("Q2", "Q6", "Q14", "Q15", "Q20"):
            series = speedups.get(name)
            assert series is not None, name
            for value in series:
                assert value == pytest.approx(1.0, rel=0.30), (name, series)

    def test_sensitive_queries_speed_up_at_sf10(self):
        from repro.core.figures import fig6_maxdop
        speedups = fig6_maxdop(10, maxdops=(1, 32), duration_scale=1.0)
        q1 = speedups["Q1"]
        assert q1[0] < 0.5  # MAXDOP=1 much slower than MAXDOP=32


class TestSection8Memory:
    """§8: memory grant sensitivity (plan-level; Fig 8 executed view is
    exercised by the benchmark)."""

    def test_q20_memory_shrinks_at_low_dop(self):
        """§8: Q20 uses 45% less memory at MAXDOP=1 than at MAXDOP=32.
        The exact 45% is the grant DOP-scaling factor (unit-tested in
        tests/engine); end to end the chosen plans also differ, so the
        measured reduction is asserted as a band."""
        from repro.core.figures import q20_memory_vs_dop
        serial, parallel = q20_memory_vs_dop(100)
        assert serial < parallel
        assert 0.35 <= serial / parallel <= 0.95

    def test_memory_bands_at_sf100(self):
        """The seven sensitive queries need more memory than the 2% cap;
        the insensitive ones fit within it."""
        from repro.engine.engine import SqlEngine
        from repro.engine.resource_governor import ResourceGovernor
        from repro.hardware.machine import Machine
        from repro.workloads import make_workload
        from repro.workloads.tpch import tpch_query

        workload = make_workload("tpch", 100)
        machine = Machine()
        ResourceAllocation().apply_to(machine)
        engine = SqlEngine(
            machine, workload.database, workload.execution_characteristics(),
            governor=ResourceGovernor(max_dop=32),
            **workload.engine_parameters(),
        )
        cap_2pct = engine.memory_pool.pool_bytes * 0.02
        cap_25pct = engine.memory_pool.pool_bytes * 0.25
        needs = {
            n: engine.optimize(tpch_query(n, 100)).required_memory_bytes
            for n in range(1, 23)
        }
        for n in (3, 9, 13, 16, 18, 21):
            assert needs[n] > cap_2pct, n
        # Q18 exceeds even the default 25% grant — degrades everywhere.
        assert needs[18] > cap_25pct
        # Insensitive queries fit in the smallest grant.
        for n in (1, 2, 4, 6, 11, 14, 15, 17, 19, 20, 22):
            assert needs[n] <= cap_2pct, n
