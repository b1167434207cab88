"""Golden pins for every fault-episode path.

Chaos soaks, fleet runs under a chaos schedule and the per-run
:class:`~repro.faults.injector.FaultInjector` all apply the same fault
kinds (crash, brownout, partition, grant storm).  These hashes and logs
pin what each path produces, so reworking how the episodes are driven
cannot silently change an outcome.

A chaos report digest covers only what clients saw, so a crash and a
partition of the same replica can digest alike (``failover`` and
``partition`` do at both seeds); the episode log digest is what tells
them apart.
"""

import pytest

from repro.core.experiment import Experiment, ExperimentConfig
from repro.core.knobs import ResourceAllocation
from repro.core.resultcache import canonical_digest
from repro.faults import injector
from repro.faults.chaos import SCENARIOS, ChaosConfig, generate_schedule, \
    run_chaos
from repro.faults.spec import CrashPoint, GrantStorm, StorageBrownout
from repro.fleet.cluster import FleetSpec, default_tenants, run_fleet
from repro.workloads.arrivals import ArrivalSpec

#: (scenario, seed) -> (report digest, episode-log digest), duration 2.
CHAOS_PINS = {
    ("failover", 1): (
        "36551450fce6e23e9385597602f58ac09571e1a294dcfeb9a64c968af9cc2031",
        "ec0f430729c39ac5a535a2da3d8157553752f2b8c65117442ae30f6501d26ef2"),
    ("failover", 2): (
        "a168c4f7807a9f82549f8aa74293e8575f6a0a4aa0b2962d4fff50f328739be8",
        "55e10a7cb2712ed1eda4612d052046a27135622c0c92db7a06cf1d99906aa0a5"),
    ("hedging", 1): (
        "9ed3548beebfca43ad6fffa84a6b159550d1cedca1c3df2e497a7e2f8f8611b4",
        "8c6f58cfed0512e5a322cd7e25b4c75107ce16baeba88b633862b4f1801d5e04"),
    ("hedging", 2): (
        "ab6eba4558265d7d98dd149988df008d3331f641bb74c1051feeaa6f32b52c74",
        "67d8cff9b8152d8f1465ab3f6717153f7ef7995e6738f572227428b2ff9f973e"),
    ("mixed", 1): (
        "4c9e2a32b9456fd6576371bca2ae92c72e4e55e550846578c11ad5f9a60553d1",
        "321af0b052daf51c13a011331c2e1dfd8fa4e1cc685aadbdca1ec22fbe59461c"),
    ("mixed", 2): (
        "48e659baf9c06c5af8c19960504f85ba107e10c493ea751c52cdbe60a0c61902",
        "81999312c2627e9005feb24afebbf878b189754872d95d2dba7fdbdf4419b6df"),
    ("partition", 1): (
        "36551450fce6e23e9385597602f58ac09571e1a294dcfeb9a64c968af9cc2031",
        "664f65b0e7271410961c471054edc80e7c99d1386f423f06c3f2530d1b690171"),
    ("partition", 2): (
        "a168c4f7807a9f82549f8aa74293e8575f6a0a4aa0b2962d4fff50f328739be8",
        "5ff5c9eb88d7e8d8b21eb6232cc46f314d421515735f30a020c8a49425974546"),
    ("storm", 1): (
        "25666953119d3b29184404dd1e09151b3ce5a3ff967f0df118c63bbf56180179",
        "1a81162df010bef42f60c342ff1e7694cf1541c2a4aeedacdabf20721dfd4f9d"),
    ("storm", 2): (
        "92e75ae9a66ff1ed905001ea94dbe437e1a3a36f94b1e01dade8f85e0ba7e41b",
        "fe08b879617d64e5d4480308fbc3e9a33333533728fa96c72ab5a534285b7896"),
}

#: replication -> fleet report digest under :data:`FLEET_SCHEDULE`.
FLEET_PINS = {
    1: "a9780d49c695b8e016e51a396a33d7e26f1d790d22006fcffb86ad09148c60de",
    3: "5b049c7568ec186b39812bae74970e6038f2b1c1a1acdd2cd9077f1b9aa0fbc9",
}

#: Seed 7 draws one episode of each kind (storm, brownout, crash,
#: partition), alternating between the two shards.
FLEET_SCHEDULE = generate_schedule(
    7, 2.5, ("crash", "brownout", "partition", "storm"), replicas=2,
    episodes=4)


def test_the_pins_cover_every_faulted_scenario():
    assert {scenario for scenario, _ in CHAOS_PINS} == set(SCENARIOS) - {"none"}
    assert [e.kind for e in FLEET_SCHEDULE] == [
        "storm", "brownout", "crash", "partition"]


@pytest.mark.parametrize("scenario,seed", sorted(CHAOS_PINS))
def test_chaos_report_and_episode_log(scenario, seed):
    report = run_chaos(ChaosConfig(seed=seed, scenario=scenario, duration=2))
    assert (report.digest, canonical_digest(report.episodes)) == \
        CHAOS_PINS[scenario, seed]


@pytest.mark.parametrize("replication", sorted(FLEET_PINS))
def test_fleet_report_under_every_fault_kind(replication):
    spec = FleetSpec(
        shards=2, duration=2.5, replication=replication,
        arrival=ArrivalSpec(offered_tps=250.0, trace="burst"),
        tenants=default_tenants(3), capacity_per_shard=8,
    )
    report = run_fleet(spec, schedule=FLEET_SCHEDULE)
    assert report.digest() == FLEET_PINS[replication]


def test_injector_summary_and_event_log(monkeypatch):
    """A storm under fail-fast overload protection (one grant throttled
    at the queue, one timed out, four still held when the run ends), a
    brownout and a crash against one ASDB run."""
    built = []

    class RecordingInjector(injector.FaultInjector):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self)

    monkeypatch.setattr(injector, "FaultInjector", RecordingInjector)
    config = ExperimentConfig(
        workload="asdb", scale_factor=2000, duration=2.0,
        allocation=ResourceAllocation(grant_timeout_s=0.25,
                                      max_queue_depth=1,
                                      on_grant_timeout="fail"),
        faults=(
            GrantStorm(at=0.5, queries=6, pool_fraction=0.3,
                       hold_seconds=10.0),
            StorageBrownout(start=0.8, duration=0.5, read_factor=0.2,
                            write_factor=0.5, latency_factor=4.0),
            CrashPoint(at=1.5),
        ),
    )
    measurement = Experiment(config).run()
    assert measurement.fault_summary == {
        "faults_installed": 3.0,
        "write_faults_injected": 0.0,
        "wal_flush_retries": 0.0,
        "crash_recoveries": 1.0,
        "replayed_records": 170.0,
        "storm_grants": 4.0,
        "storm_rejections": 2.0,
        "events": 6.0,
    }
    assert built[0].events == [
        (0.5, "grant storm: 6 requests x 11874725580 B, held 10.0s"),
        (0.5, "storm-5: rejected at admission"),
        (0.75, "storm-4: rejected at admission"),
        (0.8, "brownout on: read x0.2, write x0.5"),
        (1.3, "brownout cleared"),
        (1.5, "crash/recover: 1105 durable, 170 replayed past checkpoint "
              "LSN 935, 0 in-flight dropped"),
    ]
