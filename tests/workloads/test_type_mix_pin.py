"""Pinned transaction-type and tenant mixes.

Every weighted draw of a transaction type or a tenant consumes the run's
random stream, so a change to how those draws are made shows up here as
a changed per-type count or fleet digest long before it shows up as a
changed figure.  The literals were recorded from short runs at fixed
seeds; they must only change together with a deliberate change to the
simulated workload.
"""

from repro.core.experiment import Experiment, ExperimentConfig
from repro.faults.chaos import generate_schedule
from repro.fleet.autoscale import AutoscalePolicy
from repro.fleet.cluster import FleetSpec, default_tenants, run_fleet
from repro.workloads.arrivals import ArrivalSpec, TenantTraffic


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
