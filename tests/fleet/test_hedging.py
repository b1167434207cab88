"""Hedged reads, retry budgets, and brownout-aware shedding."""

import math
from types import SimpleNamespace

import pytest

from repro.engine.statistics import dm_hedge_outcomes
from repro.errors import FaultInjectionError
from repro.fleet.health import HeartbeatMonitor
from repro.fleet.hedging import MIN_HEDGE_DELAY, PAGE_BYTES, READ_BYTES, \
    HedgedReader, RetryBudget
from repro.hardware.storage import RANDOM_READ_LATENCY

from tests.fleet.conftest import build_fleet

PAGES = READ_BYTES / PAGE_BYTES

#: Per-read device time with the straggler brownout below (latency x20).
STRAGGLER_FACTOR = 20.0
STRAGGLER_LATENCY = PAGES * RANDOM_READ_LATENCY * STRAGGLER_FACTOR


def reader_fleet(hedging=True, monitor=False, replicas=3, budget=None):
    sim, group = build_fleet(replicas=replicas)
    mon = HeartbeatMonitor(group) if monitor else None
    if mon is not None:
        mon.install()
    reader = HedgedReader(group, monitor=mon, budget=budget, enabled=hedging)
    return sim, group, reader


def run_reads(sim, reader, count, interval=0.005, horizon=60.0):
    """Run *count* sequential reads; returns their latencies.

    The horizon is relative to the current clock — ``run(until=...)`` is
    absolute and these helpers are called back to back.
    """
    from repro.sim.process import Timeout

    latencies = []

    def client():
        for _ in range(count):
            yield Timeout(interval)
            latency = yield from reader.read()
            latencies.append(latency)

    sim.spawn(client(), name="test-reader")
    sim.run(until=sim.now + horizon)
    assert len(latencies) == count, "reads did not all complete in time"
    return latencies


def brownout(replica, latency_factor=STRAGGLER_FACTOR):
    replica.machine.ssd.apply_brownout(read_factor=0.05, write_factor=0.5,
                                       latency_factor=latency_factor)


class TestRetryBudget:
    def sim(self, now=0.0):
        return SimpleNamespace(now=now)

    def test_validation(self):
        with pytest.raises(FaultInjectionError):
            RetryBudget(self.sim(), capacity=0.0)
        with pytest.raises(FaultInjectionError):
            RetryBudget(self.sim(), refill_per_s=-1.0)

    @pytest.mark.parametrize("field,value", [
        ("capacity", math.nan),
        ("capacity", 0.5),
        ("refill_per_s", math.nan),
    ])
    def test_rejection_names_field_and_value(self, field, value):
        with pytest.raises(FaultInjectionError,
                           match=rf"RetryBudget\.{field} .*got {value!r}"):
            RetryBudget(self.sim(), **{field: value})

    def test_spend_down_to_denial(self):
        budget = RetryBudget(self.sim(), capacity=2.0, refill_per_s=0.0)
        assert budget.try_spend()
        assert budget.try_spend()
        assert not budget.try_spend()
        assert budget.spent == 2
        assert budget.denied == 1

    def test_refills_with_simulated_time(self):
        sim = self.sim()
        budget = RetryBudget(sim, capacity=2.0, refill_per_s=1.0)
        assert budget.try_spend() and budget.try_spend()
        assert not budget.try_spend()
        sim.now = 1.5
        assert budget.tokens() == pytest.approx(1.5)
        assert budget.try_spend()

    def test_refill_clamps_at_capacity(self):
        sim = self.sim()
        budget = RetryBudget(sim, capacity=4.0, refill_per_s=100.0)
        budget.try_spend()
        sim.now = 10.0
        assert budget.tokens() == 4.0

    def test_tenants_are_isolated(self):
        budget = RetryBudget(self.sim(), capacity=1.0, refill_per_s=0.0)
        assert budget.try_spend("a")
        assert not budget.try_spend("a")
        assert budget.try_spend("b")


class TestHedgedReads:
    def test_fast_path_never_hedges(self):
        sim, group, reader = reader_fleet()
        latencies = run_reads(sim, reader, 20)
        assert len(latencies) == 20
        assert reader.hedges == 0
        assert reader.reads == 20

    def test_hedge_dodges_a_straggling_primary(self):
        sim, group, reader = reader_fleet()
        # Roomy budget: this test isolates the hedging path, not the
        # budget guard (covered below).
        reader.budget = RetryBudget(sim, capacity=100.0, refill_per_s=100.0)
        run_reads(sim, reader, 10)  # warm the latency distribution
        brownout(group.primary)
        latencies = run_reads(sim, reader, 30)
        assert reader.hedges > 0
        assert reader.hedge_wins > 0
        # Every hedged read beat the straggler's full device latency.
        assert max(latencies) < STRAGGLER_LATENCY

    def test_disabled_reader_eats_the_full_tail(self):
        sim, group, reader = reader_fleet(hedging=False)
        run_reads(sim, reader, 10)
        brownout(group.primary)
        latencies = run_reads(sim, reader, 10)
        assert reader.hedges == 0
        assert max(latencies) >= STRAGGLER_LATENCY

    def test_budget_bounds_hedge_amplification(self):
        sim, group, reader = reader_fleet(
            budget=None)  # replaced below with a tiny bucket
        reader.budget = RetryBudget(sim, capacity=2.0, refill_per_s=0.0)
        run_reads(sim, reader, 10)
        brownout(group.primary)
        run_reads(sim, reader, 30)
        assert reader.hedges <= 2
        assert reader.budget_denied > 0

    def test_hedge_shed_when_every_spare_is_browned_out(self):
        sim, group, reader = reader_fleet()
        run_reads(sim, reader, 10)
        for replica in group.replicas:
            brownout(replica)
        run_reads(sim, reader, 10)
        assert reader.sheds > 0
        assert reader.hedges == 0

    def test_latency_distribution_feeds_the_hedge_delay(self):
        sim, group, reader = reader_fleet()
        assert reader._hedge_delay() == MIN_HEDGE_DELAY  # cold
        run_reads(sim, reader, 20)
        assert len(reader.latencies) == 20
        assert reader._hedge_delay() >= MIN_HEDGE_DELAY

    def test_min_hedge_delay_covers_the_unloaded_read(self):
        unloaded = PAGES * RANDOM_READ_LATENCY
        assert MIN_HEDGE_DELAY >= unloaded


class TestPlacement:
    def test_primary_first_by_default(self):
        _, group, reader = reader_fleet()
        assert reader._pick() is group.primary

    def test_exclusion_skips_the_first_attempt_replica(self):
        _, group, reader = reader_fleet()
        alternate = reader._pick(exclude=(group.primary.index,))
        assert alternate is not group.primary

    def test_suspected_primary_is_routed_around(self):
        sim, group, reader = reader_fleet(monitor=True)
        sim.run(until=0.5)
        for _ in range(8):
            reader.monitor.note_service_time(group.primary.index, 0.5)
            reader.monitor.note_service_time(1, 0.003)
        assert reader.monitor.suspected(group.primary.index)
        assert reader._pick() is not group.primary

    def test_all_suspected_degrades_to_any_reachable(self):
        sim, group = build_fleet()
        monitor = HeartbeatMonitor(group)  # never installed: no beats
        reader = HedgedReader(group, monitor=monitor)
        sim.run(until=1.0)  # clock advances; every replica looks silent
        assert all(monitor.suspected(r.index) for r in group.replicas)
        assert reader._pick() is not None

    def test_total_outage_returns_none(self):
        _, group, reader = reader_fleet()
        for replica in group.replicas:
            replica.up = False
        assert reader._pick() is None


class TestHedgeDmv:
    def test_dm_hedge_outcomes_snapshot(self):
        sim, group, reader = reader_fleet()
        run_reads(sim, reader, 10)
        brownout(group.primary)
        run_reads(sim, reader, 20)
        row = dm_hedge_outcomes(reader)
        assert row.reads == 30
        assert row.hedges == reader.hedges > 0
        assert row.hedge_wins == reader.hedge_wins
        assert row.budget_tokens <= reader.budget.capacity
