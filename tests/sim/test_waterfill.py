"""Tests for the water-filling capped-share server."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.errors import SimulationError
from repro.sim.process import Simulator, Timeout
from repro.sim.waterfill import WaterfillServer, _fill, waterfill


class TestWaterfillFunction:
    def test_empty(self):
        assert waterfill(10.0, []) == []

    def test_single_uncapped(self):
        assert waterfill(10.0, [100.0]) == [10.0]

    def test_single_capped(self):
        assert waterfill(10.0, [3.0]) == [3.0]

    def test_redistribution_unweighted(self):
        rates = waterfill(10.0, [1.0, 100.0, 100.0], weights=[1.0, 1.0, 1.0])
        assert rates == [1.0, 4.5, 4.5]

    def test_default_weights_are_caps(self):
        # A 32-worker job weighs 32x a single-worker job.
        rates = waterfill(10.0, [1.0, 32.0])
        assert rates[0] == pytest.approx(10.0 * 1 / 33)
        assert rates[1] == pytest.approx(10.0 * 32 / 33)

    def test_all_capped_under_capacity(self):
        rates = waterfill(10.0, [2.0, 3.0])
        assert rates == [2.0, 3.0]

    def test_equal_split_when_no_caps_bind(self):
        rates = waterfill(9.0, [100.0, 100.0, 100.0])
        assert rates == [3.0, 3.0, 3.0]

    @given(
        st.floats(min_value=0.1, max_value=1000.0),
        st.lists(st.floats(min_value=0.01, max_value=100.0), min_size=1, max_size=20),
    )
    def test_invariants(self, capacity, caps):
        rates = waterfill(capacity, caps)
        assert len(rates) == len(caps)
        assert sum(rates) <= capacity + 1e-6
        for rate, cap in zip(rates, caps):
            assert 0 <= rate <= cap + 1e-9
        # Work conservation: either capacity is exhausted or every job is
        # at its cap.
        if sum(caps) >= capacity:
            assert sum(rates) == pytest.approx(capacity, rel=1e-6)
        else:
            assert rates == pytest.approx(caps)


    @pytest.mark.parametrize("caps, weights", [
        ([math.inf, 1.0], None),
        ([math.nan, 1.0], None),
        ([-1.0, 1.0], [1.0, 1.0]),
        ([1.0, 1.0], [math.inf, 1.0]),
        ([1.0, 1.0], [math.nan, 1.0]),
        ([1.0, 1.0], [0.0, 1.0]),
    ])
    def test_non_finite_or_non_positive_inputs_rejected(self, caps, weights):
        with pytest.raises(SimulationError):
            waterfill(4.0, caps, weights)

    @pytest.mark.parametrize("capacity", [-1.0, math.nan])
    def test_bad_capacity_rejected(self, capacity):
        with pytest.raises(SimulationError, match="capacity="):
            waterfill(capacity, [1.0])


def _dict_waterfill(capacity, caps, weights=None):
    """Reference: :func:`waterfill`'s fill as it was, on a dict of shares
    and generator expressions."""
    n = len(caps)
    if n == 0:
        return []
    if weights is None:
        weights = list(caps)
    rates = [0.0] * n
    remaining = capacity
    active = list(range(n))
    while active and remaining > 1e-15:
        total_weight = sum(weights[i] for i in active)
        shares = {i: remaining * weights[i] / total_weight for i in active}
        saturated = [i for i in active if caps[i] - rates[i] <= shares[i]]
        if not saturated:
            for i in active:
                rates[i] += shares[i]
            break
        for i in saturated:
            remaining -= caps[i] - rates[i]
            rates[i] = caps[i]
        saturated_set = set(saturated)
        active = [i for i in active if i not in saturated_set]
    return rates


class TestListFillMatchesDictFill:
    """The list-based fill is hex-equal to the dict-based one."""

    # Few distinct values force ties, equal shares and exact saturation.
    _VALUES = st.one_of(st.sampled_from([0.5, 1.0, 2.0, 4.0, 32.0]),
                        st.floats(min_value=0.01, max_value=64.0))

    @given(st.one_of(st.sampled_from([1.0, 6.0, 32.0]),
                     st.floats(min_value=0.0, max_value=256.0)),
           st.lists(st.tuples(_VALUES, _VALUES), max_size=60),
           st.booleans())
    def test_hex_equal(self, capacity, jobs, weighted):
        caps = [cap for cap, _ in jobs]
        weights = [weight for _, weight in jobs] if weighted else caps
        expected = _dict_waterfill(capacity, caps, weights)
        assert [r.hex() for r in _fill(capacity, caps, weights)] == [
            r.hex() for r in expected]
        assert [r.hex() for r in waterfill(capacity, caps, weights)] == [
            r.hex() for r in expected]

    _WEIGHTS = st.lists(_VALUES, min_size=1, max_size=60)

    @given(st.floats(min_value=1e-6, max_value=256.0), _WEIGHTS,
           st.floats(min_value=1.001, max_value=8.0))
    def test_hex_equal_when_no_job_saturates(self, capacity, weights, slack):
        # Every cap exceeds the whole capacity, so the first round's
        # shares are the rates (the fused round's early return).
        caps = [capacity * slack] * len(weights)
        expected = _dict_waterfill(capacity, caps, weights)
        assert all(rate < cap for rate, cap in zip(expected, caps))
        assert [r.hex() for r in _fill(capacity, caps, weights)] == [
            r.hex() for r in expected]

    @given(st.floats(min_value=1.0, max_value=256.0), _WEIGHTS, _VALUES,
           _WEIGHTS)
    def test_hex_equal_when_a_job_saturates_in_a_later_round(
            self, capacity, small, middle, large):
        # The small jobs take a quarter of their first-round shares, so
        # the middle job's share grows in the second round past a cap
        # set between its two shares; the large jobs never saturate.
        weights = small + [middle] + large
        total = sum(weights)
        small_caps = [capacity * w / total / 4 for w in small]
        first = capacity * middle / total
        second = (capacity - sum(small_caps)) * middle / (total - sum(small))
        middle_cap = (first + second) / 2
        caps = small_caps + [middle_cap] + [capacity * 10] * len(large)
        expected = _dict_waterfill(capacity, caps, weights)
        assert expected[len(small)] == middle_cap
        assert [r.hex() for r in _fill(capacity, caps, weights)] == [
            r.hex() for r in expected]
        assert [r.hex() for r in waterfill(capacity, caps, weights)] == [
            r.hex() for r in expected]


class TestWaterfillServer:
    def test_cap_limits_single_job(self):
        sim = Simulator()
        server = WaterfillServer(sim, capacity=32.0)
        def worker():
            yield from server.submit(8.0, cap=4.0)
            return sim.now
        proc = sim.spawn(worker())
        sim.run()
        assert proc.result == pytest.approx(2.0)

    def test_two_jobs_share_with_caps(self):
        sim = Simulator()
        server = WaterfillServer(sim, capacity=4.0)
        results = {}
        def worker(name, work, cap):
            yield from server.submit(work, cap=cap)
            results[name] = sim.now
        # Weighted shares: caps 1 and 3 exactly consume the capacity, so
        # each runs at its cap.
        sim.spawn(worker("capped", 2.0, 1.0))
        sim.spawn(worker("wide", 6.0, 3.0))
        sim.run()
        assert results["capped"] == pytest.approx(2.0)
        assert results["wide"] == pytest.approx(2.0)

    def test_set_capacity_midflight(self):
        sim = Simulator()
        server = WaterfillServer(sim, capacity=2.0)
        finish = []
        def worker():
            yield from server.submit(4.0, cap=100.0)
            finish.append(sim.now)
        def shrink():
            yield Timeout(1.0)
            server.set_capacity(1.0)
        sim.spawn(worker())
        sim.spawn(shrink())
        sim.run()
        # 2 units done in first second, remaining 2 at rate 1 -> t=3.
        assert finish == [pytest.approx(3.0)]

    def test_utilization_accounting(self):
        sim = Simulator()
        server = WaterfillServer(sim, capacity=2.0)
        def worker():
            yield from server.submit(2.0, cap=1.0)
        sim.spawn(worker())
        sim.run()
        # 2 units of work on capacity 2 over 2 seconds -> 50% utilization.
        assert server.utilization(end_time=2.0) == pytest.approx(0.5)

    def test_work_conservation_many_jobs(self):
        sim = Simulator()
        server = WaterfillServer(sim, capacity=3.0)
        amounts = [0.5, 1.0, 2.0, 4.0, 0.25]
        def worker(amount):
            yield from server.submit(amount, cap=2.0)
        for amount in amounts:
            sim.spawn(worker(amount))
        sim.run()
        assert server.total_work_done == pytest.approx(sum(amounts))


class TestWaterfillServerProperties:
    """Property-based checks on the shared core pool."""

    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0.01, max_value=5.0),   # work
                st.floats(min_value=0.5, max_value=32.0),   # cap
                st.floats(min_value=0.0, max_value=2.0),    # arrival delay
            ),
            min_size=1,
            max_size=12,
        ),
        st.floats(min_value=1.0, max_value=32.0),
    )
    def test_work_conservation_and_completion(self, jobs, capacity):
        from repro.sim.process import Simulator, Timeout
        sim = Simulator()
        server = WaterfillServer(sim, capacity=capacity)
        done = []
        def worker(delay, work, cap):
            yield Timeout(delay)
            yield from server.submit(work, cap=cap)
            done.append(sim.now)
        for work, cap, delay in jobs:
            sim.spawn(worker(delay, work, cap))
        sim.run()
        assert len(done) == len(jobs)
        total_work = sum(w for w, _, _ in jobs)
        assert server.total_work_done == pytest.approx(total_work, rel=1e-6)
        # No job finishes faster than running alone at its cap allows.
        makespan = max(done)
        lower_bound = max(
            delay + work / min(cap, capacity) for work, cap, delay in jobs
        )
        assert makespan >= lower_bound - 1e-6

    @given(st.floats(min_value=0.1, max_value=8.0))
    def test_single_job_rate_is_min_of_cap_and_capacity(self, cap):
        from repro.sim.process import Simulator
        sim = Simulator()
        server = WaterfillServer(sim, capacity=4.0)
        def worker():
            yield from server.submit(8.0, cap=cap)
            return sim.now
        proc = sim.spawn(worker())
        sim.run()
        assert proc.result == pytest.approx(8.0 / min(cap, 4.0), rel=1e-6)


class _PerJobEventServer:
    """Reference model: the waterfill server as it was before the single
    completion timer.  Every change cancels and re-posts one completion
    event per active job and recomputes the rates in ``_advance``.  The
    oracle test below requires :class:`WaterfillServer` to match it
    bit for bit."""

    class _Job:
        __slots__ = ("remaining", "cap", "gate", "event")

        def __init__(self, remaining, cap, gate):
            self.remaining = remaining
            self.cap = cap
            self.gate = gate
            self.event = None

    def __init__(self, sim, capacity):
        self._sim = sim
        self._capacity = capacity
        self._jobs = {}
        self._next_id = 0
        self._last_update = 0.0
        self.total_work_done = 0.0
        self._busy_time_area = 0.0

    def set_capacity(self, capacity):
        self._advance()
        self._capacity = capacity
        self._reschedule()

    def utilization(self, end_time):
        self._advance()
        if end_time <= 0:
            return 0.0
        return self._busy_time_area / (self._capacity * end_time)

    def _rates(self):
        ids = list(self._jobs.keys())
        caps = [self._jobs[i].cap for i in ids]
        return dict(zip(ids, waterfill(self._capacity, caps)))

    def _advance(self):
        now = self._sim.now
        elapsed = now - self._last_update
        if elapsed > 0 and self._jobs:
            for job_id, rate in self._rates().items():
                job = self._jobs[job_id]
                done = rate * elapsed
                job.remaining = max(0.0, job.remaining - done)
                self.total_work_done += done
                self._busy_time_area += done
        self._last_update = now

    def _reschedule(self):
        rates = self._rates()
        for job_id, job in list(self._jobs.items()):
            if job.event is not None:
                job.event.cancel()
            rate = rates.get(job_id, 0.0)
            delay = job.remaining / rate if rate > 0 else float("inf")
            job.event = self._sim.loop.schedule_after(
                delay, lambda ev, jid=job_id: self._complete(jid)
            )

    def _complete(self, job_id):
        self._advance()
        job = self._jobs.pop(job_id, None)
        if job is None:
            return
        self._reschedule()
        job.gate.trigger()

    def submit(self, work, cap):
        if work == 0:
            return None
        self._advance()
        gate = self._sim.event()
        self._jobs[self._next_id] = self._Job(work, cap, gate)
        self._next_id += 1
        self._reschedule()
        yield gate
        return None


def _drive(server_cls, capacity, jobs, resize):
    """Run *jobs* ``(delay, work, cap)`` through a fresh server, resizing
    it to ``resize[1]`` at time ``resize[0]``; return the completion
    sequence, the work done and the utilization."""
    sim = Simulator()
    server = server_cls(sim, capacity)
    completions = []

    def worker(index, delay, work, cap):
        yield Timeout(delay)
        yield from server.submit(work, cap=cap)
        completions.append((sim.now, index))

    def resizer():
        yield Timeout(resize[0])
        server.set_capacity(resize[1])

    for index, (delay, work, cap) in enumerate(jobs):
        sim.spawn(worker(index, delay, work, cap))
    sim.spawn(resizer())
    sim.run()
    return completions, server.total_work_done, server.utilization(sim.now)


class TestSingleTimerMatchesPerJobEvents:
    """The one-timer server is bit-identical to the per-job-event model."""

    @given(
        st.lists(
            st.tuples(
                # Repeated delays and works force simultaneous submits
                # and completions; the floats spread the rest.
                st.one_of(st.sampled_from([0.0, 0.5, 1.0]),
                          st.floats(min_value=0.0, max_value=3.0)),
                st.one_of(st.sampled_from([0.25, 1.0, 2.0]),
                          st.floats(min_value=0.01, max_value=5.0)),
                st.sampled_from([1.0, 2.0, 4.0, 32.0]),
            ),
            min_size=1,
            max_size=16,
        ),
        st.floats(min_value=1.0, max_value=16.0),
        st.tuples(st.floats(min_value=0.0, max_value=4.0),
                  st.floats(min_value=0.5, max_value=16.0)),
    )
    def test_same_completions_work_and_utilization(self, jobs, capacity, resize):
        expected = _drive(_PerJobEventServer, capacity, jobs, resize)
        assert _drive(WaterfillServer, capacity, jobs, resize) == expected

    def test_equal_jobs_complete_together_in_submit_order(self):
        jobs = [(0.0, 1.0, 1.0)] * 4 + [(0.5, 1.0, 1.0)] * 2
        expected = _drive(_PerJobEventServer, 3.0, jobs, (0.75, 2.0))
        actual = _drive(WaterfillServer, 3.0, jobs, (0.75, 2.0))
        assert actual == expected
        assert [index for _, index in actual[0]] == [0, 1, 2, 3, 4, 5]


class TestSingleTimer:
    def test_one_live_event_and_one_post_per_change(self):
        sim = Simulator()
        server = WaterfillServer(sim, capacity=16.0)
        posted = []
        schedule_at = sim.loop.schedule_at

        def recording(time, callback, payload=None):
            event = schedule_at(time, callback, payload)
            if getattr(callback, "__self__", None) is server:
                posted.append(event)
            return event

        sim.loop.schedule_at = recording
        finished = []

        def worker(index):
            yield from server.submit(1.0 + index / 8.0, cap=1.0 + index % 4)
            finished.append(index)

        for index in range(50):
            sim.spawn(worker(index))
        changes = 0
        while True:
            before = (len(posted), server.active_jobs)
            if not sim.loop.step():
                break
            live = [ev for ev in posted if not ev.cancelled and not ev.fired]
            assert len(live) <= 1
            assert len(live) == (1 if server.active_jobs else 0)
            new_posts = len(posted) - before[0]
            if server.active_jobs != before[1]:
                # One submit or one completion per step here.
                assert abs(server.active_jobs - before[1]) == 1
                changes += 1
                assert new_posts == (1 if server.active_jobs else 0)
            else:
                assert new_posts == 0
        assert sorted(finished) == list(range(50))
        assert changes == 100
        assert len(posted) == 99


def _loop_pick(jobs, now):
    """Reference: the earliest-finisher loop as it was (first submitted
    job on ties)."""
    first, first_time = None, math.inf
    for job in jobs:
        rate = job.rate
        finish = now + job.remaining / rate if rate > 0 else math.inf
        if first is None or finish < first_time:
            first, first_time = job, finish
    return first, first_time


class TestEarliestFinisherPick:
    @given(
        st.lists(
            st.tuples(
                st.sampled_from([0.0, 0.5, 1.0]),                # arrival
                st.one_of(st.sampled_from([0.25, 1.0, 2.0]),
                          st.floats(min_value=0.01, max_value=4.0)),  # work
                st.sampled_from([1.0, 2.0, 4.0, 32.0]),          # cap
            ),
            min_size=1,
            max_size=16,
        ),
        st.sampled_from([1.0, 3.0, 8.0]),
    )
    def test_timer_targets_the_loop_pick(self, jobs, capacity):
        sim = Simulator()
        server = WaterfillServer(sim, capacity)
        reschedule = server._reschedule
        checked = []

        def checking():
            reschedule()
            if server._jobs:
                job, time = _loop_pick(server._jobs, sim.now)
                assert server._timer.payload is job
                assert server._timer.time == time
                checked.append(time)

        server._reschedule = checking

        def worker(delay, work, cap):
            yield Timeout(delay)
            yield from server.submit(work, cap=cap)

        for delay, work, cap in jobs:
            sim.spawn(worker(delay, work, cap))
        sim.run()
        assert checked and not server._jobs


class TestSubmitRejectsBadInputs:
    @pytest.mark.parametrize("work, cap, match", [
        (math.nan, 1.0, "work=nan"),
        (-1.0, 1.0, "work=-1.0"),
        (1.0, math.nan, "cap=nan"),
        (1.0, 0.0, "cap=0.0"),
        (1.0, math.inf, "cap=inf"),
    ])
    def test_submit(self, work, cap, match):
        sim = Simulator()
        server = WaterfillServer(sim, capacity=4.0)

        def worker():
            yield from server.submit(work, cap=cap)

        sim.spawn(worker())
        with pytest.raises(SimulationError, match=match):
            sim.run()
        assert sim.now == 0.0 and not server._jobs

    @pytest.mark.parametrize("capacity", [0.0, math.nan, math.inf])
    def test_capacity(self, capacity):
        sim = Simulator()
        with pytest.raises(SimulationError, match="capacity="):
            WaterfillServer(sim, capacity)
        with pytest.raises(SimulationError, match="capacity="):
            WaterfillServer(sim, 1.0).set_capacity(capacity)
