"""Pinned transaction-type and tenant mixes.

Every weighted draw of a transaction type or a tenant consumes the run's
random stream, so a change to how those draws are made shows up here as
a changed per-type count or fleet digest long before it shows up as a
changed figure.  The literals were recorded from short runs at fixed
seeds; they must only change together with a deliberate change to the
simulated workload.
"""

from repro.core.experiment import Experiment, ExperimentConfig
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
