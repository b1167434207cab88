"""Replicated shard groups: quorum acks, fencing, crash/rejoin, audits."""

import pytest

from repro.engine.statistics import dm_fleet_replicas
from repro.engine.wal import WalRecord
from repro.errors import FaultInjectionError
from repro.fleet.replicas import ROLE_PRIMARY, ROLE_SECONDARY, ReplicaGroup

from tests.fleet.conftest import WRITE_BYTES, build_fleet, run_writes, spawn_writes


class TestGroupConstruction:
    def test_first_replica_starts_primary(self):
        _, group = build_fleet(replicas=3)
        assert group.primary is group.replicas[0]
        assert [r.role for r in group.replicas] == [
            ROLE_PRIMARY, ROLE_SECONDARY, ROLE_SECONDARY]

    def test_quorum_is_majority(self):
        assert build_fleet(replicas=3)[1].quorum == 2
        assert build_fleet(replicas=5)[1].quorum == 3

    def test_empty_group_rejected(self):
        sim, group = build_fleet(replicas=2)
        with pytest.raises(FaultInjectionError):
            ReplicaGroup(sim, [])


class TestQuorumWrites:
    def test_acked_writes_are_durable_on_a_majority(self):
        sim, group = build_fleet(replicas=3)
        records = run_writes(sim, group, 10)
        assert len(records) == 10
        assert group.writes_acked == 10
        for record in records:
            copies = sum(
                1 for r in group.replicas
                if any(d.lsn == record.lsn for d in r.wal.durable_records)
            )
            assert copies >= group.quorum

    def test_audit_clean_after_fault_free_writes(self):
        sim, group = build_fleet(replicas=3)
        run_writes(sim, group, 8)
        audit = group.audit_durability()
        assert audit["acked"] == 8
        assert audit["lost"] == []

    def test_lsns_acknowledged_in_order(self):
        sim, group = build_fleet(replicas=3)
        records = run_writes(sim, group, 6)
        lsns = [r.lsn for r in records]
        assert lsns == sorted(lsns)

    def test_counters_track_shipping(self):
        sim, group = build_fleet(replicas=3)
        run_writes(sim, group, 5)
        summary = group.summary()
        assert summary["writes_acked"] == 5.0
        # Each ack shipped to both secondaries.
        assert summary["records_shipped"] == 10.0
        assert summary["unavailable_seconds"] == 0.0


class TestPrimaryFailure:
    def test_group_unwritable_without_primary(self):
        sim, group = build_fleet(replicas=3)
        group.primary.crash()
        assert not group.writable

    def test_writes_block_then_resume_after_promotion(self):
        sim, group = build_fleet(replicas=3)
        run_writes(sim, group, 3, until=1.0)
        group.primary.crash()
        records = spawn_writes(sim, group, 2, start_txn=100)
        sim.run(until=1.2)
        assert records == []  # blocked: no writable primary
        group.install_primary(group.replicas[1])
        sim.run(until=2.0)
        assert len(records) == 2
        # The outage the client saw is accounted.
        assert group.summary()["unavailable_seconds"] > 0.0

    def test_promotion_bumps_epoch_and_fences_the_old_primary(self):
        sim, group = build_fleet(replicas=3)
        old = group.primary
        group.install_primary(group.replicas[2])
        assert group.epoch == 1
        assert group.primary is group.replicas[2]
        assert old.fenced
        assert old.role == ROLE_SECONDARY
        assert len(group.failovers) == 1

    def test_reinstalling_the_same_primary_is_a_noop(self):
        _, group = build_fleet(replicas=3)
        group.install_primary(group.primary)
        assert group.epoch == 0
        assert group.failovers == []

    def test_fenced_primary_never_acks(self):
        sim, group = build_fleet(replicas=3)
        group.primary.fence()
        records = spawn_writes(sim, group, 1)
        sim.run(until=0.5)
        assert records == []
        assert group.writes_acked == 0


class TestRejoin:
    def test_crashed_secondary_catches_up_on_rejoin(self):
        sim, group = build_fleet(replicas=3)
        run_writes(sim, group, 4, until=1.0)
        secondary = group.replicas[2]
        secondary.crash()
        run_writes(sim, group, 6, until=2.0, start_txn=10)
        assert group.writes_acked == 10
        behind = group.primary.durable_lsn - secondary.durable_lsn
        assert behind > 0
        secondary.restart()
        sim.spawn(group.rejoin(secondary), name="test-rejoin")
        sim.run(until=3.0)
        assert secondary.durable_lsn == group.primary.durable_lsn
        assert not secondary.fenced
        assert secondary.role == ROLE_SECONDARY
        assert group.catchup_records >= behind
        assert secondary.recoveries == 1

    def test_rejoin_uses_checkpoint_bulk_restore(self):
        sim, group = build_fleet(replicas=3)
        secondary = group.replicas[1]
        secondary.crash()
        run_writes(sim, group, 30, until=4.0, interval=0.01)
        # Dirty some pages so the primary's checkpoint writer publishes a
        # checkpoint LSN covering the missed records (direct WAL commits
        # do not dirty data pages by themselves).
        checkpoint = group.primary.engine.checkpoint
        sim.spawn(checkpoint.mark_dirty(64.0), name="dirty")
        sim.run(until=6.0)
        assert group.primary.checkpoint_lsn > 0
        secondary.restart()
        sim.spawn(group.rejoin(secondary), name="test-rejoin")
        sim.run(until=8.0)
        assert group.checkpoint_catchups == 1
        assert secondary.durable_lsn == group.primary.durable_lsn

    def test_divergent_tail_is_truncated(self):
        sim, group = build_fleet(replicas=3)
        run_writes(sim, group, 3, until=1.0)
        deposed = group.primary
        # A record that exists only on the deposed primary's history:
        # committed locally, never replicated, never acknowledged.
        orphan_lsn = deposed.durable_lsn + 1

        def orphan_commit():
            yield from deposed.wal.apply_shipped(
                [WalRecord(lsn=orphan_lsn, nbytes=WRITE_BYTES, txn_id=999)]
            )

        sim.spawn(orphan_commit(), name="orphan")
        sim.run(until=1.5)
        assert deposed.durable_lsn == orphan_lsn
        group.install_primary(group.replicas[1])
        sim.spawn(group.rejoin(deposed), name="test-rejoin")
        sim.run(until=2.5)
        assert group.log_truncations == 1
        assert all(r.lsn != orphan_lsn or r.txn_id != 999
                   for r in deposed.wal.durable_records)

    def test_truncation_lowers_the_checkpoint_lsn(self):
        sim, group = build_fleet(replicas=3)
        run_writes(sim, group, 3, until=1.0)
        replica = group.replicas[1]
        replica.engine.checkpoint.checkpoint_lsn = replica.durable_lsn
        replica.truncate_to(replica.durable_lsn - 2)
        assert replica.checkpoint_lsn == replica.durable_lsn
        replica.crash()  # the crash image's checkpoint is durable

    def test_rejoin_of_the_primary_itself_just_unfences(self):
        sim, group = build_fleet(replicas=3)
        primary = group.primary
        primary.fenced = True
        sim.spawn(group.rejoin(primary), name="test-rejoin")
        sim.run(until=0.5)
        assert not primary.fenced
        assert primary.role == ROLE_PRIMARY


class TestCrashSemantics:
    def test_restart_discards_ghost_records(self):
        sim, group = build_fleet(replicas=3)
        run_writes(sim, group, 3, until=1.0)
        victim = group.replicas[1]
        at_crash = victim.durable_lsn
        victim.crash()

        # A shipped apply that completes after the crash instant: on real
        # hardware that write never became durable.
        def ghost():
            yield from victim.wal.apply_shipped(
                [WalRecord(lsn=at_crash + 1, nbytes=WRITE_BYTES, txn_id=7)]
            )

        sim.spawn(ghost(), name="ghost")
        sim.run(until=1.5)
        victim.restart()
        assert victim.durable_lsn == at_crash

    def test_crash_verifies_recovery_of_committed_transactions(self):
        sim, group = build_fleet(replicas=3)
        run_writes(sim, group, 5, until=1.0)
        committed = {r.txn_id for r in group.primary.wal.durable_records
                     if r.txn_id >= 0}
        result = group.primary.crash()
        # Every durably-committed transaction survived replay.
        assert committed <= set(result.recovered_txn_ids)

    def test_crashed_replica_is_not_eligible(self):
        _, group = build_fleet(replicas=3)
        replica = group.replicas[1]
        replica.crash()
        assert not replica.reachable
        assert not replica.eligible
        assert replica not in group.eligible_candidates()

    def test_partitioned_replica_is_not_eligible(self):
        _, group = build_fleet(replicas=3)
        replica = group.replicas[1]
        replica.partitioned = True
        assert not replica.reachable
        assert replica not in group.eligible_candidates()


class TestAudit:
    def test_audit_reports_a_lost_acknowledged_write(self):
        sim, group = build_fleet(replicas=3)
        run_writes(sim, group, 3, until=1.0)
        # Fabricate an acknowledged record no replica holds: the audit
        # must flag it, not paper over it.
        group.acked_records[10 ** 9] = WalRecord(
            lsn=10 ** 9, nbytes=WRITE_BYTES, txn_id=-1)
        audit = group.audit_durability()
        assert audit["lost"] == [10 ** 9]

    def test_audit_only_counts_surviving_replicas(self):
        sim, group = build_fleet(replicas=3)
        run_writes(sim, group, 3, until=1.0)
        group.replicas[1].up = False
        audit = group.audit_durability()
        assert audit["survivors"] == [0, 2]
        assert audit["lost"] == []


class TestFleetDmv:
    def test_dm_fleet_replicas_rows(self):
        sim, group = build_fleet(replicas=3)
        run_writes(sim, group, 2, until=1.0)
        rows = dm_fleet_replicas(group)
        assert [row.replica for row in rows] == [0, 1, 2]
        assert rows[0].role == ROLE_PRIMARY
        assert all(row.up for row in rows)
        assert rows[0].durable_lsn == group.primary.durable_lsn
        # Without a monitor the health columns are neutral.
        assert all(row.suspicion == 0.0 and not row.suspected for row in rows)
