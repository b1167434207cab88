"""The token bucket against the refill/kick/drain bucket it replaced.

:class:`_ReferenceTokenBucket` keeps the earlier implementation, which
refilled on every entry and went ``consume`` → ``_kick`` → ``_drain`` →
``_refill`` for every request.  The property drives both through the same
random schedule — consumes at colliding instants, unlimited and finite
rates, burst changes, ``set_rate`` in the middle of a queue, and consumes
at the instant of a grant, both queued through ``call_soon`` and made
from inside the grant callback — and requires the same grants at the
same instants and the same bucket state after every event, compared with
``==``.
"""

import math
from collections import deque

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import SimulationError
from repro.sim.process import Simulator
from repro.sim.resources import TokenBucket


class _ReferenceTokenBucket:
    """Reference: the bucket as it was, refilling on every entry."""

    def __init__(self, sim, rate, burst=0.0, name="bucket"):
        if rate is not None and not 0 < rate < math.inf:
            raise SimulationError(f"{name}: bad rate={rate}")
        self._sim = sim
        self.rate = rate
        self.burst = max(0.0, burst)
        self.name = name
        self._tokens = self.burst
        self._last_refill = 0.0
        self._queue = deque()
        self._timer = None
        self.total_consumed = 0.0
        self._in_flight = None

    def set_rate(self, rate):
        self._refill()
        if rate is not None and not 0 < rate < math.inf:
            raise SimulationError(f"{self.name}: bad rate={rate}")
        self.rate = rate
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        self._kick()

    def _refill(self):
        now = self._sim.now
        if self.rate is not None:
            self._tokens += self.rate * (now - self._last_refill)
            if not self._queue:
                self._tokens = min(self.burst, self._tokens)
        self._last_refill = now

    @property
    def served_bytes(self):
        total = self.total_consumed
        if self._in_flight is not None:
            start, finish, nbytes = self._in_flight
            span = finish - start
            if span > 0:
                progress = min(1.0, max(0.0, (self._sim.now - start) / span))
                total += nbytes * progress
        return total

    def consume(self, nbytes, on_grant):
        if not nbytes >= 0:
            raise SimulationError(f"{self.name}: negative consume nbytes={nbytes}")
        if self.rate is None or nbytes == 0:
            self.total_consumed += nbytes
            return True
        self._refill()
        self._queue.append((nbytes, on_grant))
        self._kick()
        return False

    def take(self, nbytes):
        gate = self._sim.event()
        if self.consume(nbytes, gate.trigger):
            return None
        yield gate
        self.total_consumed += nbytes
        return None

    def _kick(self):
        if self._timer is None:
            self._drain()

    def _drain(self):
        self._refill()
        while self._queue:
            nbytes, on_grant = self._queue[0]
            if self.rate is None:
                self._queue.popleft()
                on_grant()
                continue
            if self._tokens >= nbytes - max(1.0, nbytes * 1e-9):
                self._tokens = max(0.0, self._tokens - nbytes)
                self._queue.popleft()
                on_grant()
                continue
            deficit = nbytes - self._tokens
            delay = max(deficit / self.rate, 1e-9)
            self._in_flight = (self._sim.now, self._sim.now + delay, nbytes)
            self._timer = self._sim.loop.schedule_after(delay, self._on_timer)
            return
        self._in_flight = None

    def _on_timer(self, _event):
        self._timer = None
        self._in_flight = None
        self._drain()


def _drive(bucket_cls, rate, burst, ops):
    """Run *ops* ``(instant, kind, value, follow)`` on a fresh bucket and
    return the grant log and the bucket's state after every event."""
    sim = Simulator()
    bucket = bucket_cls(sim, rate, burst=burst)
    grants = []

    def state():
        return (bucket._tokens, bucket.total_consumed, bucket._in_flight,
                bucket.served_bytes, bucket.rate, bucket.burst,
                len(bucket._queue), len(grants))

    def request(tag, nbytes, follow):
        def granted():
            grants.append((tag, sim.now))
            bucket.total_consumed += nbytes
            if follow == "soon":
                # Another request at the grant's instant, after it.
                sim.loop.call_soon(
                    lambda _arg: request((tag, "soon"), nbytes / 2, None), None)
            elif follow == "inside":
                # Another request from inside the grant callback.
                request((tag, "inside"), nbytes / 2, None)

        if bucket.consume(nbytes, granted):
            grants.append((tag, "through", sim.now))

    def taker(tag, nbytes):
        yield from bucket.take(nbytes)
        grants.append((tag, "take", sim.now))

    def fire(index, kind, value, follow):
        if kind == "consume":
            request(index, value, follow)
        elif kind == "take":
            sim.spawn(taker(index, value))
        elif kind == "rate":
            bucket.set_rate(value)
        else:
            bucket.burst = value

    for index, (instant, kind, value, follow) in enumerate(ops):
        sim.loop.schedule_at(
            instant,
            lambda _ev, args=(index, kind, value, follow): fire(*args))
    states = [state()]
    while sim.loop.step():
        states.append(state())
    return grants, states


# Few distinct instants and sizes force same-instant collisions, exact
# grants and exact idle caps.
_INSTANT = st.one_of(st.sampled_from([0.0, 0.0, 0.5, 1.0, 1.0, 2.5]),
                     st.floats(min_value=0.0, max_value=4.0))
_SIZE = st.one_of(st.sampled_from([0.0, 0.5, 1.0, 5.0, 40.0, 200.0]),
                  st.floats(min_value=0.0, max_value=500.0))
_RATE = st.one_of(st.sampled_from([None, 10.0, 100.0, 3.0]),
                  st.floats(min_value=0.5, max_value=1000.0))
_BURST = st.one_of(st.sampled_from([0.0, 1.0, 20.0, 100.0]),
                   st.floats(min_value=0.0, max_value=300.0))
_OP = st.one_of(
    st.tuples(_INSTANT, st.sampled_from(["consume", "take"]), _SIZE,
              st.sampled_from([None, None, "soon", "inside"])),
    st.tuples(_INSTANT, st.just("rate"), _RATE, st.none()),
    st.tuples(_INSTANT, st.just("burst"), _BURST, st.none()),
)


class TestTokenBucketMatchesReference:
    @settings(max_examples=400, deadline=None)
    @given(_RATE, _BURST, st.lists(_OP, min_size=1, max_size=14))
    def test_same_grants_and_state_after_every_event(self, rate, burst, ops):
        assert _drive(TokenBucket, rate, burst, ops) == _drive(
            _ReferenceTokenBucket, rate, burst, ops)

    def test_idle_cap_applies_when_the_clock_has_not_moved(self):
        # A burst lowered at the instant of a grant: the next request on
        # the idle bucket is capped although no time has passed since
        # the last refill, so it waits instead of spending banked credit.
        ops = [(0.0, "consume", 10.0, None), (0.0, "burst", 5.0, None),
               (0.0, "consume", 10.0, None)]
        grants, _ = _drive(TokenBucket, 100.0, 30.0, ops)
        assert grants == [(0, 0.0), (2, 0.05)]
        assert _drive(_ReferenceTokenBucket, 100.0, 30.0, ops)[0] == grants

    @pytest.mark.parametrize("rate", [float("nan"), float("inf"), 0.0, -1.0])
    def test_rejected_rate_changes_nothing(self, rate):
        sim = Simulator()
        bucket = TokenBucket(sim, 100.0, burst=10.0)
        sim.run(until=1.0)
        before = (bucket._tokens, bucket._last_refill, bucket.rate)
        with pytest.raises(SimulationError, match="rate="):
            bucket.set_rate(rate)
        assert (bucket._tokens, bucket._last_refill, bucket.rate) == before
