"""The FCFS server's ``try_acquire`` fast path against generator-only
acquisition.

:class:`_ReferenceFcfsServer` keeps the server as it was before the fast
path: every acquisition is ``yield from acquire()``.  The property drives
it and :class:`FcfsServer` through the same random schedule — acquires
at colliding instants (some after a timeout of their own, so they run
between a release and the wake of the waiter it granted), holders that
release after a timeout or on a later explicit release, and
``set_capacity`` in the middle of a queue —
where the real server's requesters take ``try_acquire()`` first (falling
back to ``yield from acquire()``) or go straight to ``acquire()``.  Both
must grant at the same instants and leave the same ``in_use``, queue
length, ``total_wait_time`` and ``total_acquisitions`` after every step,
compared with ``==``.
"""

from collections import deque

from hypothesis import given, settings, strategies as st

from repro.errors import SimulationError
from repro.sim.process import Simulator, Timeout
from repro.sim.resources import FcfsServer


class _ReferenceFcfsServer:
    """Reference: the server with generator-only acquisition."""

    def __init__(self, sim, capacity, name="fcfs"):
        if not capacity >= 1:
            raise SimulationError(f"{name}: capacity must be >= 1")
        self._sim = sim
        self.capacity = capacity
        self.name = name
        self._in_use = 0
        self._queue = deque()
        self.total_wait_time = 0.0
        self.total_acquisitions = 0

    @property
    def in_use(self):
        return self._in_use

    @property
    def queue_length(self):
        return len(self._queue)

    def set_capacity(self, capacity):
        if not capacity >= 1:
            raise SimulationError(f"{self.name}: capacity must be >= 1")
        self.capacity = capacity
        for _ in range(min(len(self._queue), max(0, self.capacity - self._in_use))):
            self._queue.popleft().trigger()

    def acquire(self):
        start = self._sim.now
        if self._in_use < self.capacity and not self._queue:
            self._in_use += 1
        else:
            gate = self._sim.event()
            self._queue.append(gate)
            yield gate
            self._in_use += 1
        self.total_wait_time += self._sim.now - start
        self.total_acquisitions += 1
        return None

    def release(self):
        if self._in_use <= 0:
            raise SimulationError(f"{self.name}: release without acquire")
        self._in_use -= 1
        if self._queue and self._in_use < self.capacity:
            self._queue.popleft().trigger()


def _drive(server_cls, capacity, ops):
    """Run *ops* ``(instant, kind, value, fast)`` on a fresh server and
    return the grant log and the server's state after every step.  An
    acquire's *value* is ``(delay, hold)``: it waits *delay* (if any),
    acquires, then releases after *hold* or, for ``None``, on the next
    "release" op.  A *fast* acquire tries ``try_acquire()`` first where
    the server has it."""
    sim = Simulator()
    server = server_cls(sim, capacity)
    try_acquire = getattr(server, "try_acquire", None)
    grants = []
    held = deque()  # holders waiting for an explicit "release" op

    def state():
        return (server.in_use, server.queue_length, server.total_wait_time,
                server.total_acquisitions, server.capacity, len(grants))

    def holder(tag, delay, hold, fast):
        if delay is not None:
            yield Timeout(delay)
        if not (fast and try_acquire is not None and try_acquire()):
            yield from server.acquire()
        grants.append((tag, sim.now))
        if hold is None:
            held.append(tag)
            return None
        if hold > 0:
            yield Timeout(hold)
        server.release()
        return None

    def fire(index, kind, value, fast):
        if kind == "acquire":
            sim.spawn(holder(index, *value, fast))
        elif kind == "release":
            if held:
                held.popleft()
                server.release()
        else:
            server.set_capacity(value)

    for index, (instant, kind, value, fast) in enumerate(ops):
        sim.loop.schedule_at(
            instant,
            lambda _ev, args=(index, kind, value, fast): fire(*args))
    states = [state()]
    while sim.loop.step():
        states.append(state())
    return grants, states


# Few distinct instants and hold times force same-instant arrivals,
# releases and grants.
_INSTANT = st.one_of(st.sampled_from([0.0, 0.0, 0.5, 1.0, 1.0, 2.0]),
                     st.floats(min_value=0.0, max_value=3.0))
_HOLD = st.one_of(st.sampled_from([None, 0.0, 0.5, 1.0]),
                  st.floats(min_value=0.0, max_value=2.0))
_DELAY = st.sampled_from([None, None, 0.5, 1.0])
_CAPACITY = st.integers(min_value=1, max_value=4)
_OP = st.one_of(
    st.tuples(_INSTANT, st.just("acquire"), st.tuples(_DELAY, _HOLD),
              st.booleans()),
    st.tuples(_INSTANT, st.just("release"), st.none(), st.just(False)),
    st.tuples(_INSTANT, st.just("capacity"), _CAPACITY, st.just(False)),
)


class TestFcfsFastPathMatchesReference:
    @settings(max_examples=400, deadline=None)
    @given(_CAPACITY, st.lists(_OP, min_size=1, max_size=16))
    def test_same_grants_and_state_after_every_step(self, capacity, ops):
        fast = _drive(FcfsServer, capacity, ops)
        reference = _drive(_ReferenceFcfsServer, capacity, ops)
        assert fast == reference

    def test_try_acquire_on_a_full_server_changes_nothing(self):
        sim = Simulator()
        server = FcfsServer(sim, 1)
        assert server.try_acquire()
        proc = sim.spawn(server.acquire())
        sim.run(until=1.0)
        before = (server.in_use, server.queue_length, server.total_wait_time,
                  server.total_acquisitions)
        assert before == (1, 1, 0.0, 1)
        assert not server.try_acquire()
        assert (server.in_use, server.queue_length, server.total_wait_time,
                server.total_acquisitions) == before
        server.release()
        sim.run()
        assert not proc.alive
        assert (server.in_use, server.total_wait_time,
                server.total_acquisitions) == (1, 1.0, 2)
