"""Fleet placement against the scan-every-ready-shard reference."""

from types import SimpleNamespace

from hypothesis import given, settings, strategies as st

from repro.fleet.cluster import (
    FleetCluster,
    FleetSpec,
    _Shard,
    default_tenants,
    priority_watermark,
)
from repro.sim.process import Simulator

NOW = 5.0
PRIORITIES = range(6)


def reference_place(cluster, priority):
    """The original rule: least-loaded ready shard under the priority's
    watermark, ties to the lowest index, watermark derived per shard."""
    now = cluster.sim.now
    best = None
    for shard in [s for s in cluster.shards if s.ready(now)]:
        if shard.in_flight >= priority_watermark(priority,
                                                 cluster.capacity_per_shard):
            continue
        if best is None or shard.in_flight < best.in_flight:
            best = shard
    return best


def _shard(index, state):
    in_flight, active, down, cold, replicated, primary_lost = state
    replica = SimpleNamespace(engine=object())
    group = SimpleNamespace(primary=replica, replicas=[replica])
    if replicated:
        primary = None if primary_lost else replica
        group = SimpleNamespace(primary=primary, replicas=[replica, replica])
    shard = _Shard(index, group, backend="b",
                   ready_at=NOW + 1.0 if cold else NOW - 1.0)
    shard.in_flight = in_flight
    shard.active = active
    shard.down = down
    return shard


def _cluster(capacity, shards):
    """A cluster shell: just the state ``_place`` reads."""
    sim = Simulator()
    sim.run(until=NOW)
    cluster = FleetCluster.__new__(FleetCluster)
    cluster.sim = sim
    cluster.capacity_per_shard = capacity
    cluster.shards = shards
    cluster._watermarks = {p: priority_watermark(p, capacity)
                           for p in PRIORITIES}
    return cluster


@st.composite
def fleets(draw):
    capacity = draw(st.integers(min_value=1, max_value=32))
    states = draw(st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=capacity),   # in_flight
            st.booleans(),                                  # active
            st.booleans(),                                  # down
            st.booleans(),                                  # cold start
            st.booleans(),                                  # replicated
            st.booleans(),                                  # primary lost
        ),
        min_size=0, max_size=12,
    ))
    return capacity, [_shard(i, s) for i, s in enumerate(states)]


@settings(max_examples=400, deadline=None)
@given(fleets(), st.sampled_from(PRIORITIES))
def test_place_matches_the_reference(fleet, priority):
    capacity, shards = fleet
    cluster = _cluster(capacity, shards)
    assert cluster._place(priority) is reference_place(cluster, priority)


def test_ties_break_to_the_lowest_index():
    shards = [_shard(i, (2, True, False, False, False, False))
              for i in range(3)]
    cluster = _cluster(8, shards)
    assert cluster._place(0) is shards[0]


def test_skips_unready_idle_shard():
    shards = [_shard(0, (0, True, True, False, False, False)),
              _shard(1, (3, True, False, False, False, False)),
              _shard(2, (1, True, False, False, True, True)),
              _shard(3, (2, True, False, False, False, False))]
    cluster = _cluster(8, shards)
    assert cluster._place(0) is shards[3]


def test_watermarks_are_computed_once_per_priority():
    spec = FleetSpec(shards=1, duration=1.0, tenants=default_tenants(4),
                     capacity_per_shard=8)
    cluster = FleetCluster(spec)
    assert cluster._watermarks == {p: priority_watermark(p, 8)
                                   for p in (0, 1, 2)}
