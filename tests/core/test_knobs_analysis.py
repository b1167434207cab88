"""Tests for resource knobs and the analysis helpers."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.analysis import (
    diminishing_returns,
    find_knee,
    linear_response_comparison,
    relative_performance,
    speedup_series,
    sufficient_allocation,
    wait_ratio_table,
)
from repro.core.knobs import CORE_SWEEP, LLC_SWEEP_MB, ResourceAllocation
from repro.engine.locks import WaitType
from repro.errors import ConfigurationError
from repro.hardware.machine import Machine
from repro.units import MIB, mb_per_s


class TestResourceAllocation:
    def test_defaults_are_full_machine(self):
        alloc = ResourceAllocation()
        assert alloc.logical_cores == 32
        assert alloc.llc_mb == 40
        assert alloc.effective_max_dop == 32

    def test_maxdop_follows_cores_by_default(self):
        """§4: MAXDOP is limited to the allocated core count."""
        assert ResourceAllocation(logical_cores=8).effective_max_dop == 8

    def test_explicit_maxdop_capped_by_cores(self):
        alloc = ResourceAllocation(logical_cores=4, max_dop=16)
        assert alloc.effective_max_dop == 4

    def test_apply_to_machine(self):
        machine = Machine()
        alloc = ResourceAllocation(
            logical_cores=8, llc_mb=10, read_bw_limit=mb_per_s(500)
        )
        alloc.apply_to(machine)
        assert len(machine.cpuset) == 8
        assert machine.llc.allocated_bytes() == 10 * MIB
        assert machine.ssd.effective_read_bw == mb_per_s(500)

    def test_invalid_values_rejected(self):
        with pytest.raises(ConfigurationError):
            ResourceAllocation(logical_cores=0)
        with pytest.raises(ConfigurationError):
            ResourceAllocation(llc_mb=1)
        with pytest.raises(ConfigurationError):
            ResourceAllocation(grant_percent=0.0)

    def test_sweep_constants_shape(self):
        assert CORE_SWEEP == (1, 2, 4, 8, 16, 32)
        assert all(mb % 2 == 0 for mb in LLC_SWEEP_MB)


class TestSpeedupHelpers:
    def test_speedup_series(self):
        assert speedup_series([2.0, 1.0, 0.5], baseline=1.0) == [0.5, 1.0, 2.0]

    def test_relative_performance_normalizes_to_last(self):
        assert relative_performance([1.0, 2.0, 4.0]) == [0.25, 0.5, 1.0]

    def test_sufficient_allocation_finds_first_crossing(self):
        sizes = [2, 4, 6, 8, 40]
        perf = [0.2, 0.7, 0.92, 0.97, 1.0]
        assert sufficient_allocation(sizes, perf, 0.90) == 6
        assert sufficient_allocation(sizes, perf, 0.95) == 8

    def test_sufficient_allocation_none_if_never_met(self):
        assert sufficient_allocation([2, 4], [0.5, 1.0], 0.99) == 4
        assert sufficient_allocation([2], [1.0], 1.0) == 2

    @given(st.lists(st.floats(min_value=0.01, max_value=1.0), min_size=2,
                    max_size=20))
    @settings(max_examples=50)
    def test_sufficient_allocation_monotone_in_threshold(self, raw):
        perf = sorted(raw)
        sizes = list(range(len(perf)))
        lo = sufficient_allocation(sizes, perf, 0.5)
        hi = sufficient_allocation(sizes, perf, 0.9)
        if lo is not None and hi is not None:
            assert lo <= hi


class TestKnee:
    def test_knee_of_saturating_curve(self):
        xs = [2, 4, 6, 8, 10, 20, 30, 40]
        ys = [0.1, 0.5, 0.8, 0.9, 0.94, 0.97, 0.99, 1.0]
        knee = find_knee(xs, ys)
        assert 4 <= knee.x <= 10

    def test_knee_of_falling_curve(self):
        xs = [2, 4, 6, 8, 10, 20, 30, 40]
        ys = [100, 40, 15, 8, 6, 4, 3.5, 3.0]  # MPKI-style
        knee = find_knee(xs, ys)
        assert 4 <= knee.x <= 10

    def test_flat_curve_has_zero_curvature(self):
        knee = find_knee([1, 2, 3], [5, 5, 5])
        assert knee.curvature == 0.0

    def test_too_few_points_rejected(self):
        with pytest.raises(ConfigurationError):
            find_knee([1, 2], [1, 2])


class TestLinearResponse:
    def test_concave_curve_saves_bandwidth(self):
        limits = [200, 400, 800, 1600, 2500]
        qps = [0.03, 0.055, 0.08, 0.09, 0.092]  # diminishing returns
        cmp = linear_response_comparison(limits, qps)
        assert cmp.actual_bandwidth < cmp.linear_bandwidth
        assert 0 < cmp.savings_fraction < 1

    def test_linear_curve_saves_nothing(self):
        limits = [100.0, 200.0, 400.0]
        qps = [1.0, 2.0, 4.0]
        cmp = linear_response_comparison(limits, qps)
        assert cmp.savings_fraction == pytest.approx(0.0, abs=0.01)

    def test_unsorted_limits_rejected(self):
        with pytest.raises(ConfigurationError):
            linear_response_comparison([2, 1], [1, 2])

    def test_diminishing_returns_detector(self):
        assert diminishing_returns([1, 2, 3, 4], [1, 1.8, 2.2, 2.3])
        assert not diminishing_returns([1, 2, 3, 4], [1, 1.1, 2, 4])


class TestWaitRatios:
    def test_ratio_table(self):
        small = {WaitType.LOCK: 2.0, WaitType.PAGEIOLATCH: 0.1}
        large = {WaitType.LOCK: 0.3, WaitType.PAGEIOLATCH: 7.5}
        ratios = wait_ratio_table(small, large)
        assert ratios["LOCK"] == pytest.approx(0.15)
        assert ratios["PAGEIOLATCH"] == pytest.approx(75.0)

    def test_zero_baseline_gives_inf(self):
        ratios = wait_ratio_table({WaitType.LOCK: 0.0}, {WaitType.LOCK: 1.0})
        assert ratios["LOCK"] == float("inf")
