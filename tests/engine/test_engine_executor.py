"""Integration tests for SqlOs, the executor, and the SqlEngine facade."""

import pytest

from repro.core.knobs import ResourceAllocation
from repro.engine.engine import SqlEngine
from repro.engine.executor import ContentionPoint, TransactionDemand, parallel_startup_seconds
from repro.engine.locks import WaitType
from repro.engine.resource_governor import ResourceGovernor
from repro.engine.schemas import build_tpch
from repro.errors import ConfigurationError
from repro.hardware.machine import Machine
from repro.units import KIB
from repro.workloads.profiles import execution_profile
from repro.workloads.tpch import tpch_query


def make_engine(cores=32, llc_mb=40, sf=10, max_dop=None, grant_percent=25.0):
    machine = Machine()
    ResourceAllocation(logical_cores=cores, llc_mb=llc_mb).apply_to(machine)
    governor = ResourceGovernor(
        max_dop=max_dop if max_dop is not None else cores,
        grant_percent=grant_percent,
    )
    return SqlEngine(
        machine=machine,
        database=build_tpch(sf),
        execution=execution_profile("tpch", sf),
        governor=governor,
        concurrent_grant_slots=3,
    )


class TestResourceGovernor:
    def test_effective_dop_caps(self):
        governor = ResourceGovernor(max_dop=32)
        assert governor.effective_dop(8) == 8
        assert governor.effective_dop(32) == 32
        assert governor.effective_dop(32, hint=4) == 4

    def test_invalid_settings_rejected(self):
        with pytest.raises(ConfigurationError):
            ResourceGovernor(max_dop=0)
        with pytest.raises(ConfigurationError):
            ResourceGovernor(grant_percent=0)


class TestSqlOs:
    def test_fewer_cores_less_capacity(self):
        small = make_engine(cores=4).sqlos
        big = make_engine(cores=16).sqlos
        assert small.capacity_core_equivalents < big.capacity_core_equivalents

    def test_smaller_llc_higher_mpki(self):
        full = make_engine(llc_mb=40, sf=100).sqlos
        tiny = make_engine(llc_mb=2, sf=100).sqlos
        assert tiny.mpki > full.mpki
        assert tiny.per_core_ips < full.per_core_ips

    def test_hyperthreading_inflates_footprint(self):
        no_ht = make_engine(cores=16, sf=10).sqlos
        ht = make_engine(cores=32, sf=10).sqlos
        assert ht.mpki >= no_ht.mpki

    def test_counters_monotone(self):
        engine = make_engine()
        sim = engine.machine.sim
        def worker():
            yield from engine.sqlos.run_on_cpu(1e9, dop=8)
        sim.spawn(worker())
        sim.run()
        totals = engine.counter_totals()
        assert totals["instructions_retired"] == pytest.approx(1e9, rel=0.01)
        assert totals["llc_misses"] > 0

    def test_transaction_cpu_path_accounts_instructions(self):
        engine = make_engine()
        sim = engine.machine.sim
        def worker():
            yield from engine.sqlos.run_transaction_cpu(5e8)
        sim.spawn(worker())
        sim.run()
        assert engine.counter_totals()["instructions_retired"] == pytest.approx(
            5e8, rel=0.01
        )


class TestQueryExecution:
    def test_run_query_returns_result(self):
        engine = make_engine(sf=10)
        sim = engine.machine.sim
        def runner():
            result = yield from engine.run_query(tpch_query(6, 10))
            return result
        proc = sim.spawn(runner())
        sim.run()
        assert proc.result.elapsed > 0

    def test_dop_hint_limits_parallelism(self):
        engine = make_engine(sf=100)
        hinted = engine.optimize(tpch_query(1, 100), dop_hint=4)
        free = engine.optimize(tpch_query(1, 100))
        assert hinted.dop <= 4
        assert free.dop == 32

    def test_more_cores_finish_faster(self):
        def elapsed(cores):
            engine = make_engine(cores=cores, sf=30)
            sim = engine.machine.sim
            def runner():
                result = yield from engine.run_query(tpch_query(1, 30))
                return result
            proc = sim.spawn(runner())
            sim.run()
            return proc.result.elapsed
        assert elapsed(16) < elapsed(2)

    def test_small_grant_slows_spilling_query(self):
        """The Fig 8 mechanism: Q18 with a tiny grant runs slower."""
        def elapsed(grant_percent):
            engine = make_engine(sf=30, grant_percent=grant_percent)
            sim = engine.machine.sim
            def runner():
                result = yield from engine.run_query(tpch_query(18, 30))
                return result
            proc = sim.spawn(runner())
            sim.run()
            return proc.result.elapsed
        assert elapsed(2.0) > elapsed(25.0) * 1.1

    def test_parallel_startup_monotone(self):
        assert parallel_startup_seconds(1) == 0.0
        values = [parallel_startup_seconds(d) for d in (2, 4, 8, 16, 32)]
        assert values == sorted(values)


class TestTransactionExecution:
    def test_transaction_lifecycle(self):
        engine = make_engine()
        sim = engine.machine.sim
        demand = TransactionDemand(
            name="txn",
            instructions=1e7,
            page_reads=2.0,
            log_bytes=4 * KIB,
            locks=(ContentionPoint(WaitType.LOCK, 0, 0.001),),
            latches=(ContentionPoint(WaitType.PAGELATCH, 0, 0.0005),),
        )
        def runner():
            result = yield from engine.run_transaction(demand)
            return result
        proc = sim.spawn(runner())
        sim.run()
        assert proc.result.elapsed > 0
        # Page reads were charged as PAGEIOLATCH time.
        assert engine.locks.accounting.wait_time[WaitType.PAGEIOLATCH] > 0

    def test_lock_released_after_commit(self):
        engine = make_engine()
        sim = engine.machine.sim
        demand = TransactionDemand(
            name="txn", instructions=1e6, page_reads=0.0, log_bytes=KIB,
            locks=(ContentionPoint(WaitType.LOCK, 3, 0.0),),
        )
        def runner():
            yield from engine.run_transaction(demand)
        sim.spawn(runner())
        sim.run()
        # Slot free again: an immediate re-acquire would not wait.
        assert engine.locks.row_locks._slots[3].in_use == 0

    def test_contended_lock_serializes_commits(self):
        engine = make_engine()
        sim = engine.machine.sim
        demand = TransactionDemand(
            name="txn", instructions=1e6, page_reads=0.0, log_bytes=KIB,
            locks=(ContentionPoint(WaitType.LOCK, 0, 0.005),),
        )
        def runner():
            yield from engine.run_transaction(demand)
        for _ in range(4):
            sim.spawn(runner())
        sim.run()
        assert engine.locks.accounting.wait_time[WaitType.LOCK] > 0

    def test_demand_builds_from_keywords_with_defaults(self):
        demand = TransactionDemand(
            name="txn", instructions=1e6, page_reads=0.0, log_bytes=KIB)
        assert demand == ("txn", 1e6, 0.0, KIB, (), (), 0.0)
        assert TransactionDemand._fields == (
            "name", "instructions", "page_reads", "log_bytes", "latches",
            "locks", "dirty_page_writes")
        point = ContentionPoint(wait_type=WaitType.LATCH, slot=2,
                                hold_seconds=0.5)
        assert (point.wait_type, point.slot, point.hold_seconds) == (
            WaitType.LATCH, 2, 0.5)

    def test_demand_rejects_attribute_assignment(self):
        demand = TransactionDemand("txn", 1e6, 0.0, KIB)
        with pytest.raises(AttributeError):
            demand.instructions = 2e6
        with pytest.raises(AttributeError):
            demand.extra = 1
        with pytest.raises(AttributeError):
            ContentionPoint(WaitType.LOCK, 0, 0.0).slot = 1


class TestPlanAdaptation:
    def test_q20_plan_changes_with_maxdop_at_sf300(self):
        """Fig 7: serial Q20 hash-joins part; MAXDOP=32 nested-loops it."""
        from repro.engine.plan.operators import OpKind
        engine = make_engine(sf=300)
        spec = tpch_query(20, 300)
        serial = engine.optimizer.optimize(spec, max_dop=1)
        parallel = engine.optimizer.optimize(spec, max_dop=32)
        assert not serial.plan.uses(OpKind.NESTED_LOOPS)
        assert serial.plan.uses(OpKind.HASH_JOIN)
        assert parallel.plan.uses(OpKind.NESTED_LOOPS)
        nlj_inners = [
            node.children[1].table
            for node in parallel.plan.walk()
            if node.op is OpKind.NESTED_LOOPS
        ]
        assert "p" in nlj_inners
        assert serial.plan.signature() != parallel.plan.signature()

    def test_q20_serial_at_small_scale_factors(self):
        """§7: Q20's serial plan is chosen at SF 10 and 30 for all MAXDOP."""
        for sf in (10, 30):
            engine = make_engine(sf=sf)
            assert engine.optimize(tpch_query(20, sf)).dop == 1

    def test_insensitive_queries_at_sf10(self):
        """§7: queries 2, 6, 14, 15, 20 choose serial plans at SF=10."""
        engine = make_engine(sf=10)
        for number in (2, 6, 14, 15, 20):
            assert engine.optimize(tpch_query(number, 10)).dop == 1, number

    def test_almost_all_parallel_at_sf100(self):
        """§7: at larger scale factors a serial plan is almost never right."""
        engine = make_engine(sf=100)
        serial = [
            n for n in range(1, 23)
            if engine.optimize(tpch_query(n, 100)).dop == 1
        ]
        assert len(serial) == 0
