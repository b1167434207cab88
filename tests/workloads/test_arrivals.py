"""Tests for the open-loop arrival driver."""

import pytest

from repro.core.knobs import ResourceAllocation
from repro.engine.engine import SqlEngine
from repro.engine.resource_governor import ResourceGovernor
from repro.errors import WorkloadError
from repro.hardware.machine import Machine
from repro.workloads.arrivals import OpenLoopDriver
from repro.workloads.asdb import AsdbWorkload


def make_pair(seed=0):
    workload = AsdbWorkload(2000, clients=1)  # clients unused open-loop
    machine = Machine(seed=seed)
    ResourceAllocation().apply_to(machine)
    engine = SqlEngine(
        machine, workload.database, workload.execution_characteristics(),
        governor=ResourceGovernor(), **workload.engine_parameters(),
    )
    return workload, engine


class TestOpenLoopDriver:
    def test_low_load_completes_offered_rate(self):
        workload, engine = make_pair()
        driver = OpenLoopDriver(workload, engine, offered_tps=100.0)
        result = driver.run(duration=10.0)
        assert result.completed_tps == pytest.approx(100.0, rel=0.2)
        assert result.dropped == 0

    def test_overload_saturates_below_offered(self):
        workload, engine = make_pair()
        driver = OpenLoopDriver(workload, engine, offered_tps=50_000.0,
                                max_in_flight=500)
        result = driver.run(duration=5.0)
        assert result.completed_tps < 0.5 * result.offered_tps
        assert result.dropped > 0

    def test_latency_grows_with_utilization(self):
        """The queueing knee: p99 latency at high load >> at low load."""
        tails = {}
        for rate in (100.0, 1700.0):
            workload, engine = make_pair()
            driver = OpenLoopDriver(workload, engine, offered_tps=rate)
            result = driver.run(duration=10.0)
            tails[rate] = result.latencies.percentile_ms(99)
        assert tails[1700.0] > 2.0 * tails[100.0]

    def test_deterministic_arrivals(self):
        workload, engine = make_pair()
        driver = OpenLoopDriver(workload, engine, offered_tps=50.0,
                                deterministic=True)
        result = driver.run(duration=4.0)
        # Deterministic gaps: exactly rate*duration arrivals (minus edge).
        assert abs(result.completed - 200) <= 2

    def test_invalid_parameters(self):
        workload, engine = make_pair()
        with pytest.raises(WorkloadError):
            OpenLoopDriver(workload, engine, offered_tps=0.0)
        with pytest.raises(WorkloadError):
            OpenLoopDriver(workload, engine, offered_tps=1.0, max_in_flight=0)


class TestRateTraces:
    def _trace(self, kind, **overrides):
        from repro.workloads.arrivals import ArrivalSpec

        spec = ArrivalSpec(offered_tps=100.0, trace=kind, **overrides)
        machine = Machine(seed=0)
        return spec.build_trace(10.0, machine.streams.get("trace-test"))

    def test_poisson_and_deterministic_have_no_trace(self):
        """The historical kinds draw the exact pre-trace RNG sequence."""
        assert self._trace("poisson") is None
        assert self._trace("deterministic") is None

    def test_diurnal_starts_at_trough_and_peaks_mid_period(self):
        trace = self._trace("diurnal", period_s=10.0, amplitude=0.5)
        assert trace.rate_at(0.0) == pytest.approx(50.0)
        assert trace.rate_at(5.0) == pytest.approx(150.0)
        assert trace.peak_rate() == pytest.approx(150.0)

    def test_burst_alternates_between_two_rates(self):
        trace = self._trace("burst", burst_multiplier=8.0)
        rates = {round(trace.rate_at(t * 0.05), 6) for t in range(200)}
        assert len(rates) == 2
        assert max(rates) == pytest.approx(8.0 * min(rates))

    def test_flash_crowd_is_a_step_window(self):
        trace = self._trace("flash-crowd", flash_at=0.5, flash_magnitude=10.0,
                            flash_width=0.1)
        assert trace.rate_at(1.0) == pytest.approx(100.0)
        assert trace.rate_at(5.5) == pytest.approx(1000.0)
        assert trace.rate_at(9.0) == pytest.approx(100.0)

    def test_invalid_trace_kind_rejected(self):
        from repro.errors import WorkloadError
        from repro.workloads.arrivals import ArrivalSpec

        with pytest.raises(WorkloadError):
            ArrivalSpec(offered_tps=1.0, trace="lunar")


class TestTenantAttribution:
    def test_sheds_are_counted_per_tenant(self):
        from repro.workloads.arrivals import OpenLoopDriver, TenantTraffic

        workload, engine = make_pair()
        tenants = (TenantTraffic(name="a", weight=3.0),
                   TenantTraffic(name="b", weight=1.0))
        driver = OpenLoopDriver(workload, engine, offered_tps=30_000.0,
                                max_in_flight=50, tenants=tenants)
        result = driver.run(duration=2.0)
        assert result.dropped > 0
        assert sum(result.dropped_by_tenant.values()) == result.dropped
        assert sum(result.completed_by_tenant.values()) == result.completed
        # 3:1 weights: tenant a carries (and sheds) the bulk.
        assert result.dropped_by_tenant["a"] > result.dropped_by_tenant["b"]


class TestOpenLoopSweep:
    def test_sweep_routes_through_the_result_cache(self, tmp_path):
        from repro.core.resultcache import ResultCache
        from repro.workloads.arrivals import run_open_loop_sweep

        cache = ResultCache(tmp_path)
        rates = [50.0, 150.0]
        first = run_open_loop_sweep("asdb", 2000, rates, duration=2.0,
                                    cache=cache)
        assert [m.offered_tps for m in first] == rates
        assert all(m.tracker.counts.get("txn", 0) > 0 for m in first)
        second = run_open_loop_sweep("asdb", 2000, rates, duration=2.0,
                                     cache=cache)
        assert cache.hits >= len(rates)
        assert [m.primary_metric for m in second] == \
               [m.primary_metric for m in first]

    def test_sweep_carries_shed_counts_per_tenant(self):
        from repro.workloads.arrivals import (
            ArrivalSpec,
            TenantTraffic,
            run_open_loop_sweep,
        )

        arrival = ArrivalSpec(
            offered_tps=1.0, max_in_flight=20,
            tenants=(TenantTraffic(name="gold", priority=0),
                     TenantTraffic(name="scrap", priority=2)),
        )
        [m] = run_open_loop_sweep("asdb", 2000, [20_000.0], arrival=arrival,
                                  duration=1.5)
        assert m.arrival_sheds > 0
        assert set(m.sheds_by_tenant) <= {"gold", "scrap"}
        assert sum(m.sheds_by_tenant.values()) == m.arrival_sheds


class TestArrivalTimes:
    """The shared arrival-time generator against the original
    one-event-per-candidate thinning loop."""

    UNTIL = 6.0

    @staticmethod
    def _spec(kind):
        from repro.workloads.arrivals import ArrivalSpec

        return ArrivalSpec(offered_tps=300.0, trace=kind, period_s=2.0)

    @staticmethod
    def _streams(seed):
        from repro.sim.randomness import RandomStreams

        streams = RandomStreams(seed).fork("fleet")
        return streams.get("arrivals"), streams.get("arrivals.trace")

    def _reference(self, kind, seed):
        """Every candidate is a Timeout event; thinning draws uniform()."""
        from repro.sim.process import Simulator, Timeout
        from repro.sim.randomness import draw_index, weight_cdf

        spec = self._spec(kind)
        rng, trace_rng = self._streams(seed)
        trace = spec.build_trace(self.UNTIL, trace_rng)
        deterministic = kind == "deterministic"
        peak = trace.peak_rate() if trace is not None else spec.offered_tps
        cdf = weight_cdf([3.0, 1.0])
        sim = Simulator()
        accepted = []

        def loop():
            while sim.now < self.UNTIL:
                gap = (1.0 / spec.offered_tps if deterministic
                       else float(rng.exponential(1.0 / peak)))
                yield Timeout(gap)
                if sim.now >= self.UNTIL:
                    break
                if trace is not None:
                    if float(rng.uniform()) * peak > trace.rate_at(sim.now):
                        continue
                accepted.append(sim.now)
                draw_index(rng, cdf)    # the caller's per-arrival draw

        sim.spawn(loop())
        sim.run(until=self.UNTIL)
        return accepted, rng, trace_rng

    def _generated(self, kind, seed):
        from repro.sim.process import At, Simulator
        from repro.sim.randomness import draw_index, weight_cdf
        from repro.workloads.arrivals import arrival_times

        spec = self._spec(kind)
        rng, trace_rng = self._streams(seed)
        trace = spec.build_trace(self.UNTIL, trace_rng)
        cdf = weight_cdf([3.0, 1.0])
        sim = Simulator()
        accepted = []

        def loop():
            for t in arrival_times(rng, trace, spec.offered_tps,
                                   kind == "deterministic", sim.now,
                                   self.UNTIL):
                yield At(t)
                assert sim.now == t
                accepted.append(sim.now)
                draw_index(rng, cdf)

        sim.spawn(loop())
        sim.run(until=self.UNTIL)
        return accepted, rng, trace_rng

    @pytest.mark.parametrize("seed", [0, 7])
    @pytest.mark.parametrize("kind", ["poisson", "deterministic", "diurnal",
                                      "burst", "flash-crowd"])
    def test_accepted_times_and_streams_match_the_event_loop(self, kind,
                                                             seed):
        ref, ref_rng, ref_trace_rng = self._reference(kind, seed)
        new, rng, trace_rng = self._generated(kind, seed)
        assert len(ref) > 100
        assert new == ref
        assert rng.bit_generator.state == ref_rng.bit_generator.state
        assert (trace_rng.bit_generator.state
                == ref_trace_rng.bit_generator.state)

    def test_empty_window_yields_nothing(self):
        from repro.workloads.arrivals import arrival_times

        rng, _ = self._streams(0)
        assert list(arrival_times(rng, None, 100.0, False, 2.0, 2.0)) == []


class TestArrivalSpecShapes:
    """Trace-shape fields are checked when the spec is built, for the
    selected trace kind only, and the error names the field."""

    @pytest.mark.parametrize("kind,field,value", [
        ("diurnal", "period_s", 0.0),
        ("diurnal", "amplitude", 1.5),
        ("burst", "burst_multiplier", 0.5),
        ("burst", "burst_fraction", 1.0),
        ("burst", "burst_dwell_s", -1.0),
        ("flash-crowd", "flash_at", 1.2),
        ("flash-crowd", "flash_magnitude", 0.9),
        ("flash-crowd", "flash_width", 0.0),
        ("poisson", "offered_tps", 0.0),
        ("poisson", "offered_tps", float("nan")),
        ("diurnal", "offered_tps", float("inf")),
    ])
    def test_rejects_bad_shape_at_construction(self, kind, field, value):
        from repro.workloads.arrivals import ArrivalSpec

        with pytest.raises(WorkloadError, match=f"ArrivalSpec.{field}"):
            ArrivalSpec(**{"offered_tps": 100.0, "trace": kind, field: value})

    @pytest.mark.parametrize("weight", [0.0, float("nan"), float("inf")])
    def test_tenant_weight_must_be_finite_and_positive(self, weight):
        from repro.workloads.arrivals import TenantTraffic

        with pytest.raises(WorkloadError, match="TenantTraffic.weight"):
            TenantTraffic(name="a", weight=weight)

    def test_rejects_nan_amplitude(self):
        from repro.workloads.arrivals import ArrivalSpec

        with pytest.raises(WorkloadError, match="ArrivalSpec.amplitude"):
            ArrivalSpec(offered_tps=100.0, trace="diurnal",
                        amplitude=float("nan"))

    def test_other_kinds_shapes_are_not_checked(self):
        from repro.workloads.arrivals import ArrivalSpec

        ArrivalSpec(offered_tps=100.0, trace="poisson", amplitude=1.5,
                    flash_width=0.0, burst_fraction=2.0)
        ArrivalSpec(offered_tps=100.0, trace="burst", amplitude=1.5)
