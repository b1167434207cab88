"""Tests for the FCFS server and the token bucket."""

import pytest

from repro.errors import SimulationError
from repro.sim.process import Simulator, Timeout
from repro.sim.resources import FcfsServer, TokenBucket


class TestFcfsServer:
    def test_capacity_one_serializes(self):
        sim = Simulator()
        server = FcfsServer(sim, capacity=1)
        spans = []
        def worker(i):
            yield from server.acquire()
            start = sim.now
            yield Timeout(2.0)
            server.release()
            spans.append((i, start, sim.now))
        for i in range(3):
            sim.spawn(worker(i))
        sim.run()
        assert spans == [(0, 0.0, 2.0), (1, 2.0, 4.0), (2, 4.0, 6.0)]

    def test_capacity_two_allows_two_concurrent(self):
        sim = Simulator()
        server = FcfsServer(sim, capacity=2)
        done = []
        def worker(i):
            yield from server.acquire()
            yield Timeout(1.0)
            server.release()
            done.append((i, sim.now))
        for i in range(4):
            sim.spawn(worker(i))
        sim.run()
        assert [t for _, t in done] == [1.0, 1.0, 2.0, 2.0]

    def test_wait_time_accounted(self):
        sim = Simulator()
        server = FcfsServer(sim, capacity=1)
        def worker():
            yield from server.acquire()
            yield Timeout(5.0)
            server.release()
        sim.spawn(worker())
        sim.spawn(worker())
        sim.run()
        assert server.total_wait_time == pytest.approx(5.0)
        assert server.total_acquisitions == 2

    def test_release_without_acquire_raises(self):
        sim = Simulator()
        server = FcfsServer(sim, capacity=1)
        with pytest.raises(SimulationError):
            server.release()

    def test_zero_capacity_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            FcfsServer(sim, capacity=0)

    def test_nan_capacity_rejected(self):
        # A NaN capacity would never grant: ``in_use < nan`` is false.
        with pytest.raises(SimulationError, match="capacity=nan"):
            FcfsServer(Simulator(), capacity=float("nan"))

    def test_nan_set_capacity_rejected(self):
        server = FcfsServer(Simulator(), capacity=2)
        with pytest.raises(SimulationError, match="capacity=nan"):
            server.set_capacity(float("nan"))
        assert server.capacity == 2


class TestTokenBucket:
    def test_unlimited_never_blocks(self):
        sim = Simulator()
        bucket = TokenBucket(sim, rate=None)
        def worker():
            yield from bucket.take(1e12)
            return sim.now
        proc = sim.spawn(worker())
        sim.run()
        assert proc.result == 0.0

    def test_rate_limits_throughput(self):
        sim = Simulator()
        bucket = TokenBucket(sim, rate=100.0)
        def worker():
            for _ in range(5):
                yield from bucket.take(100.0)
            return sim.now
        proc = sim.spawn(worker())
        sim.run()
        assert proc.result == pytest.approx(5.0)

    def test_burst_allows_initial_spike(self):
        sim = Simulator()
        bucket = TokenBucket(sim, rate=10.0, burst=100.0)
        def worker():
            yield from bucket.take(100.0)
            return sim.now
        proc = sim.spawn(worker())
        sim.run()
        assert proc.result == pytest.approx(0.0)

    def test_fifo_ordering(self):
        sim = Simulator()
        bucket = TokenBucket(sim, rate=10.0)
        order = []
        def big():
            yield from bucket.take(100.0)
            order.append("big")
        def small():
            yield from bucket.take(1.0)
            order.append("small")
        sim.spawn(big())
        sim.spawn(small())
        sim.run()
        assert order == ["big", "small"]

    def test_set_rate_takes_effect(self):
        sim = Simulator()
        bucket = TokenBucket(sim, rate=1.0)
        done = []
        def worker():
            yield from bucket.take(10.0)
            done.append(sim.now)
        def tighten():
            yield Timeout(0.0)
            bucket.set_rate(100.0)
        sim.spawn(worker())
        sim.spawn(tighten())
        sim.run()
        assert done[0] < 10.0

    def test_total_consumed_tracks_all_requests(self):
        sim = Simulator()
        bucket = TokenBucket(sim, rate=1000.0)
        def worker():
            yield from bucket.take(10.0)
            yield from bucket.take(20.0)
        sim.spawn(worker())
        sim.run()
        assert bucket.total_consumed == pytest.approx(30.0)

    def test_invalid_rate_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            TokenBucket(sim, rate=0.0)

    @pytest.mark.parametrize("rate", [float("nan"), float("inf")])
    def test_non_finite_rate_rejected(self, rate):
        sim = Simulator()
        with pytest.raises(SimulationError, match="rate="):
            TokenBucket(sim, rate=rate)
        with pytest.raises(SimulationError, match="rate="):
            TokenBucket(sim, rate=1.0).set_rate(rate)

    def test_nan_consume_rejected(self):
        sim = Simulator()
        bucket = TokenBucket(sim, rate=100.0)
        def worker():
            yield from bucket.take(float("nan"))
        sim.spawn(worker())
        with pytest.raises(SimulationError, match="nbytes=nan"):
            sim.run(until=5.0)
        assert sim.now == 0.0 and bucket.total_consumed == 0.0

    def test_consume_passes_through_or_calls_back(self):
        sim = Simulator()
        granted = []
        unlimited = TokenBucket(sim, rate=None)
        assert unlimited.consume(10.0, lambda: granted.append("never"))
        assert unlimited.total_consumed == 10.0
        bucket = TokenBucket(sim, rate=10.0, burst=5.0)
        # Within the burst: granted before consume returns.
        assert not bucket.consume(5.0, lambda: granted.append(sim.now))
        assert granted == [0.0]
        assert not bucket.consume(10.0, lambda: granted.append(sim.now))
        sim.run()
        assert granted == [0.0, 1.0]
        # The caller credits a granted request itself.
        assert bucket.total_consumed == 0.0
