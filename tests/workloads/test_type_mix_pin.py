"""Pinned transaction-type and tenant mixes.

Every weighted draw of a transaction type or a tenant consumes the run's
random stream, so a change to how those draws are made shows up here as
a changed per-type count or fleet digest long before it shows up as a
changed figure.  The literals were recorded from short runs at fixed
seeds; they must only change together with a deliberate change to the
simulated workload.
"""

import hashlib
from types import SimpleNamespace

from hypothesis import given, settings, strategies as st

from repro.core.experiment import Experiment, ExperimentConfig
from repro.core.resultcache import canonical_json
from repro.faults.chaos import generate_schedule
from repro.fleet.autoscale import AutoscalePolicy
from repro.fleet.cluster import (
    FleetSpec,
    TenantSpec,
    default_tenants,
    run_fleet,
)
from repro.fleet.hedging import HedgedReader, RetryBudget
from repro.sim.process import Timeout
from repro.workloads.arrivals import ArrivalSpec, TenantTraffic

from tests.fleet.conftest import build_fleet


def test_asdb_closed_loop_type_mix():
    m = Experiment(ExperimentConfig("asdb", 2000, duration=3.0, seed=3)).run()
    assert m.tracker.counts == {
        "delete_row": 257, "insert_row": 812, "point_select": 1759,
        "range_select": 980, "stored_proc_mix": 239, "txn": 5123,
        "update_row": 1076,
    }


def test_tpce_closed_loop_type_mix():
    m = Experiment(ExperimentConfig("tpce", 5000, duration=3.0, seed=5)).run()
    assert m.tracker.counts == {
        "customer_position": 134, "market_feed": 11, "market_watch": 194,
        "security_detail": 138, "trade_lookup": 91, "trade_order": 97,
        "trade_result": 92, "trade_status": 187, "trade_update": 16,
        "txn": 960,
    }


def test_open_loop_tenant_and_type_mix():
    arrival = ArrivalSpec(
        offered_tps=3000.0, max_in_flight=40,
        tenants=(TenantTraffic(name="a", weight=3.0),
                 TenantTraffic(name="b", weight=1.0),
                 TenantTraffic(name="c", weight=0.5)),
    )
    m = Experiment(ExperimentConfig("asdb", 2000, duration=2.0, seed=2,
                                    arrival=arrival)).run()
    assert m.tracker.counts == {"txn": 3399}
    assert m.sheds_by_tenant == {"a": 1841, "b": 594, "c": 296}
    latencies = m.tracker.latencies["txn"]
    assert latencies.percentile(50) == 0.021619682577321497
    assert latencies.percentile(99) == 0.041331947758511185


def test_fleet_report_digest():
    spec = FleetSpec(
        shards=2, duration=2.5,
        arrival=ArrivalSpec(offered_tps=250.0, trace="burst"),
        tenants=default_tenants(3), capacity_per_shard=8, seed=11,
    )
    assert run_fleet(spec).digest() == (
        "837dad6676e622e006637f37defe7b3003774b53bf0614f85760bffa7a84a4df"
    )


def test_open_loop_traced_tenant_mix():
    arrival = ArrivalSpec(
        offered_tps=2500.0, trace="diurnal", period_s=1.5, amplitude=0.8,
        max_in_flight=30,
        tenants=(TenantTraffic(name="a", weight=2.0),
                 TenantTraffic(name="b", weight=1.0),
                 TenantTraffic(name="c", weight=1.0)),
    )
    m = Experiment(ExperimentConfig("asdb", 2000, duration=2.0, seed=8,
                                    arrival=arrival)).run()
    assert m.tracker.counts == {"txn": 2699}
    assert m.arrival_sheds == 1846
    assert m.sheds_by_tenant == {"a": 948, "b": 443, "c": 455}
    latencies = m.tracker.latencies["txn"]
    assert latencies.percentile(50) == 0.014510041609775537
    assert latencies.percentile(99) == 0.03496845601401199


def test_fleet_diurnal_digest():
    spec = FleetSpec(
        shards=4, duration=3.0, seed=4,
        arrival=ArrivalSpec(offered_tps=900.0, trace="diurnal",
                            period_s=2.0),
        tenants=default_tenants(4), capacity_per_shard=8,
    )
    assert run_fleet(spec).digest() == (
        "d8bb90e6e876f89856e337e984fcd5cf7de7565e353d2869d760b45ce9801cc1"
    )


def test_fleet_autoscaled_flash_crowd_digest():
    # Cold-starting and scaled-in shards are un-ready while arrivals
    # are placed.
    spec = FleetSpec(
        shards=2, duration=4.0, seed=6,
        arrival=ArrivalSpec(offered_tps=250.0, trace="flash-crowd",
                            flash_at=0.3, flash_magnitude=8.0,
                            flash_width=0.4),
        tenants=default_tenants(3), capacity_per_shard=8,
        autoscale=AutoscalePolicy(min_shards=2, max_shards=6,
                                  cooldown_s=0.5),
    )
    assert run_fleet(spec).digest() == (
        "7b451802f69149e38081645e6aab5e7c4b3d548277c3a52db382ffd31168ff61"
    )


CHAOS_SCHEDULE = generate_schedule(seed=4, duration=3.0,
                                   kinds=("crash", "partition"),
                                   replicas=3, episodes=2)


def test_fleet_replicated_chaos_digest():
    spec = FleetSpec(
        shards=3, duration=3.0, seed=9, replication=2,
        arrival=ArrivalSpec(offered_tps=400.0, trace="burst"),
        tenants=default_tenants(3), capacity_per_shard=6,
    )
    assert run_fleet(spec, schedule=CHAOS_SCHEDULE).digest() == (
        "f30e527fe3438fd0538e4759c3c7382d309b21ccc662a4db84a41146fdf3b5ea"
    )


def test_fleet_unreplicated_chaos_digest():
    # Crashed and partitioned unreplicated shards leave the ready set
    # mid-run.
    spec = FleetSpec(
        shards=3, duration=3.0, seed=9,
        arrival=ArrivalSpec(offered_tps=500.0, trace="burst"),
        tenants=default_tenants(3), capacity_per_shard=6,
    )
    assert run_fleet(spec, schedule=CHAOS_SCHEDULE).digest() == (
        "2beb464c2486a8f9349e20e8584ed9266b718b4cb63da58900953992fd3b7e9f"
    )


def test_fleet_governed_tenants_digest():
    # Two governed tenants, one at the default 2x-rate bucket and one
    # at an explicit burst allowance, are both denied under the burst.
    spec = FleetSpec(
        shards=2, duration=2.5, seed=13,
        arrival=ArrivalSpec(offered_tps=250.0, trace="burst"),
        tenants=(
            TenantSpec(name="gold", priority=0, weight=2.0,
                       rate_limit_tps=60.0),
            TenantSpec(name="silver", priority=1, rate_limit_tps=25.0,
                       burst_allowance=4.0),
            TenantSpec(name="bronze", priority=2),
        ),
        capacity_per_shard=8,
    )
    report = run_fleet(spec)
    assert report.tenants["gold"].governed == 1602
    assert report.tenants["silver"].governed == 881
    assert report.digest() == (
        "f255e8102d3e8bcd4a18c7235b8406470e5a035a0b3ed757fc1d24a56c532e29"
    )


def test_hedged_reader_tight_budget_digest():
    # A 3-token budget refilling at 7.3/s cannot cover a hedge on every
    # read against a browned-out primary, so some hedges are denied.
    sim, group = build_fleet(replicas=3)
    reader = HedgedReader(group, budget=RetryBudget(sim, capacity=3.0,
                                                    refill_per_s=7.3))
    latencies = []

    def client(count):
        for _ in range(count):
            yield Timeout(0.005)
            latencies.append((yield from reader.read()))

    sim.spawn(client(10), name="warm")
    sim.run(until=sim.now + 60.0)
    group.primary.machine.ssd.apply_brownout(
        read_factor=0.05, write_factor=0.5, latency_factor=20.0)
    sim.spawn(client(40), name="tight")
    sim.run(until=sim.now + 60.0)
    summary = reader.summary()
    assert summary["budget_denied"] == 20.0
    payload = {"latencies": latencies, "summary": summary}
    assert hashlib.sha256(canonical_json(payload).encode()).hexdigest() == (
        "37524f243f5032d2eb840b77341d2724d9174602d71d9caed5e62f37e6c7ea53"
    )


class _StoreEveryCallBucket:
    """The fleet's former governance bucket, kept as the reference for
    :class:`RetryBudget`: it stores the refilled level on every call,
    where the budget stores it only on a spend."""

    def __init__(self, sim, rate_tps, capacity):
        self._sim = sim
        self.rate = rate_tps
        self.capacity = capacity
        self._tokens = capacity
        self._at = sim.now

    def try_spend(self):
        now = self._sim.now
        self._tokens = min(self.capacity,
                           self._tokens + (now - self._at) * self.rate)
        self._at = now
        if self._tokens < 1.0:
            return False
        self._tokens -= 1.0
        return True


# Call times, rates and capacities are dyadic (k/1024 s, m/16 tps,
# c/16 tokens), so every refill sum below is exact and the two rules
# must agree call for call.  On arbitrary floats they compute the same
# real number by different roundings, and a level within one ulp of a
# whole token can round to either side.
@settings(max_examples=300, deadline=None)
@given(
    rate=st.integers(min_value=1, max_value=8000).map(lambda m: m / 16),
    capacity=st.integers(min_value=16, max_value=800).map(lambda c: c / 16),
    gaps=st.lists(st.integers(min_value=0, max_value=2048)
                  .map(lambda k: k / 1024), max_size=300),
)
def test_retry_budget_matches_the_store_every_call_bucket(rate, capacity,
                                                          gaps):
    sim = SimpleNamespace(now=0.0)
    reference = _StoreEveryCallBucket(sim, rate, capacity)
    budget = RetryBudget(sim, capacity=capacity, refill_per_s=rate)
    for gap in gaps:
        sim.now += gap
        assert budget.try_spend() == reference.try_spend()
