"""Tests for the engine-level plan cache: LRU mechanics, hit accounting,
and — the part that matters for the paper — that memoized plans are
exactly the plans the optimizer would have produced (Fig 7's Q20 plan
flip must still be observable through the cached path)."""

import pytest

from repro.core.experiment import run_experiment
from repro.core.knobs import ResourceAllocation
from repro.engine.engine import SqlEngine
from repro.engine.plancache import DEFAULT_PLAN_CACHE_SIZE, PlanCache
from repro.engine.resource_governor import ResourceGovernor
from repro.engine.schemas import build_tpch
from repro.hardware.machine import Machine
from repro.workloads.profiles import execution_profile
from repro.workloads.tpch import tpch_query


def make_engine(cores=32, sf=10, max_dop=None, plan_cache_size=None):
    machine = Machine()
    ResourceAllocation(logical_cores=cores).apply_to(machine)
    kwargs = {}
    if plan_cache_size is not None:
        kwargs["plan_cache_size"] = plan_cache_size
    return SqlEngine(
        machine=machine,
        database=build_tpch(sf),
        execution=execution_profile("tpch", sf),
        governor=ResourceGovernor(
            max_dop=max_dop if max_dop is not None else cores),
        concurrent_grant_slots=3,
        **kwargs,
    )


class TestPlanCacheMechanics:
    def test_hit_and_miss_accounting(self):
        cache = PlanCache(maxsize=4)
        assert cache.get("a") is None
        cache.put("a", 1)
        assert cache.get("a") == 1
        info = cache.info()
        assert info["hits"] == 1
        assert info["misses"] == 1
        assert info["currsize"] == 1

    def test_lru_eviction_order(self):
        cache = PlanCache(maxsize=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")          # refresh a; b becomes LRU
        cache.put("c", 3)
        assert cache.get("b") is None
        assert cache.get("a") == 1
        assert cache.get("c") == 3
        assert cache.info()["evictions"] == 1

    def test_zero_size_disables(self):
        cache = PlanCache(maxsize=0)
        assert not cache.enabled
        cache.put("a", 1)
        assert cache.get("a") is None

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            PlanCache(maxsize=-1)

    def test_clear(self):
        cache = PlanCache(maxsize=4)
        cache.put("a", 1)
        cache.clear()
        assert cache.info()["currsize"] == 0
        assert cache.get("a") is None


class TestEnginePlanCaching:
    def test_repeat_optimize_returns_the_same_plan_object(self):
        engine = make_engine(sf=10)
        spec = tpch_query(1, 10)
        first = engine.optimize(spec)
        second = engine.optimize(spec)
        assert second is first
        assert engine.plan_cache.info()["hits"] >= 1

    def test_distinct_dop_hints_cache_separately(self):
        """Fig 7's flip: Q20 at SF 300 plans differently at DOP 1 vs 32,
        and the cache must keep both entries apart."""
        engine = make_engine(sf=300)
        spec = tpch_query(20, 300)
        serial = engine.optimize(spec, dop_hint=1)
        parallel = engine.optimize(spec, dop_hint=32)
        assert serial.plan.signature() != parallel.plan.signature()
        assert engine.optimize(spec, dop_hint=1) is serial
        assert engine.optimize(spec, dop_hint=32) is parallel

    def test_cached_plan_equals_uncached_plan(self):
        engine = make_engine(sf=100)
        for number in (1, 6, 20):
            spec = tpch_query(number, 100)
            cached = engine.optimize(spec)
            direct = engine.optimizer.optimize(
                spec, max_dop=engine.governor.effective_dop(
                    len(engine.machine.cpuset)))
            assert cached.plan.signature() == direct.plan.signature()
            assert cached.dop == direct.dop
            assert cached.required_memory_bytes == direct.required_memory_bytes

    def test_engines_do_not_share_plans(self):
        """Allocation changes that can flip plans land in different
        engine instances, so caching is per-engine by construction."""
        wide = make_engine(sf=300, max_dop=32)
        narrow = make_engine(sf=300, max_dop=1)
        spec = tpch_query(20, 300)
        assert wide.optimize(spec).plan.signature() != \
            narrow.optimize(spec).plan.signature()

    def test_cache_can_be_disabled_per_engine(self):
        engine = make_engine(sf=10, plan_cache_size=0)
        spec = tpch_query(1, 10)
        first = engine.optimize(spec)
        second = engine.optimize(spec)
        assert first is not second
        assert first.plan.signature() == second.plan.signature()

    def test_default_size_bounds_memory(self):
        engine = make_engine(sf=10)
        assert engine.plan_cache.info()["maxsize"] == DEFAULT_PLAN_CACHE_SIZE


class TestBackendIsolation:
    """An engine runs one backend personality and owns its cache, so
    plans made under one backend's cost model never serve another's
    lookups, and each cache counts only its own traffic."""

    def test_backend_engines_own_their_caches(self):
        from repro.backends import make_backend
        from repro.workloads import make_workload

        engines = []
        for name in ("rowstore-oltp", "columnstore-dss"):
            machine = Machine()
            allocation = ResourceAllocation(logical_cores=8)
            allocation.apply_to(machine)
            engines.append(make_backend(name).build_engine(
                machine, make_workload("tpch", 10), allocation))
        row, col = engines
        spec = tpch_query(1, 10)
        assert row.optimize(spec) is not col.optimize(spec)
        assert row.optimize(spec) is row.optimize(spec)
        assert row.plan_cache.info()["hits"] == 2
        assert col.plan_cache.info()["hits"] == 0
        assert row.plan_cache.info()["misses"] == 1
        assert col.plan_cache.info()["misses"] == 1


class TestPlanSignatureCollection:
    def test_fig7_flip_survives_signature_collection(self):
        """_collect_plan_signatures now reuses the engine plan cache;
        the Q20 signature must still differ between a MAXDOP=1 run and a
        MAXDOP=32 run (the Fig 7 detection path end-to-end)."""
        serial = run_experiment(
            "tpch", 300, duration=40.0,
            allocation=ResourceAllocation(max_dop=1),
        )
        parallel = run_experiment("tpch", 300, duration=40.0)
        assert serial.plan_signatures["Q20"] != parallel.plan_signatures["Q20"]

    def test_signatures_cover_all_queries(self):
        measurement = run_experiment("tpch", 10, duration=20.0)
        assert len(measurement.plan_signatures) == 22
