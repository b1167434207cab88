"""Tests for statistics accumulators, including property-based checks."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.errors import SimulationError
from repro.sim.stats import Cdf, Histogram, TimeWeightedStat, WelfordStat

finite_floats = st.floats(
    min_value=-1e9, max_value=1e9, allow_nan=False, allow_infinity=False
)


class TestWelford:
    def test_empty(self):
        stat = WelfordStat()
        assert stat.mean == 0.0
        assert stat.variance == 0.0

    def test_known_values(self):
        stat = WelfordStat()
        stat.extend([1.0, 2.0, 3.0, 4.0])
        assert stat.mean == pytest.approx(2.5)
        assert stat.variance == pytest.approx(np.var([1, 2, 3, 4], ddof=1))
        assert stat.minimum == 1.0
        assert stat.maximum == 4.0

    @given(st.lists(finite_floats, min_size=2, max_size=100))
    def test_matches_numpy(self, values):
        stat = WelfordStat()
        stat.extend(values)
        assert stat.mean == pytest.approx(np.mean(values), rel=1e-6, abs=1e-6)
        assert stat.variance == pytest.approx(
            np.var(values, ddof=1), rel=1e-4, abs=1e-4
        )


class TestTimeWeighted:
    def test_constant_signal(self):
        stat = TimeWeightedStat(initial=5.0)
        stat.update(10.0, 5.0)
        assert stat.mean() == pytest.approx(5.0)

    def test_step_signal(self):
        stat = TimeWeightedStat(initial=0.0)
        stat.update(1.0, 10.0)   # level 0 for [0,1)
        stat.update(3.0, 0.0)    # level 10 for [1,3)
        assert stat.mean() == pytest.approx(20.0 / 3.0)

    def test_mean_with_end_time_extension(self):
        stat = TimeWeightedStat(initial=2.0)
        stat.update(1.0, 4.0)
        assert stat.mean(end_time=3.0) == pytest.approx((2.0 + 8.0) / 3.0)

    def test_backwards_time_raises(self):
        stat = TimeWeightedStat()
        stat.update(5.0, 1.0)
        with pytest.raises(SimulationError):
            stat.update(4.0, 2.0)

    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0.001, max_value=10.0),
                st.floats(min_value=0.0, max_value=100.0),
            ),
            min_size=1,
            max_size=50,
        )
    )
    def test_mean_within_min_max(self, steps):
        stat = TimeWeightedStat(initial=steps[0][1])
        t = 0.0
        for dt, level in steps:
            t += dt
            stat.update(t, level)
        mean = stat.mean()
        assert stat.minimum - 1e-9 <= mean <= stat.maximum + 1e-9


class TestHistogram:
    def test_binning(self):
        hist = Histogram(bin_width=1.0, num_bins=10)
        for value in [0.5, 1.5, 1.6, 9.9]:
            hist.add(value)
        assert hist.counts[0] == 1
        assert hist.counts[1] == 2
        assert hist.counts[9] == 1

    def test_overflow(self):
        hist = Histogram(bin_width=1.0, num_bins=2)
        hist.add(100.0)
        assert hist.overflow == 1

    def test_fraction_below(self):
        hist = Histogram(bin_width=1.0, num_bins=10)
        for value in range(10):
            hist.add(value + 0.5)
        assert hist.fraction_below(5.0) == pytest.approx(0.5)


class TestCdf:
    def test_percentiles(self):
        cdf = Cdf(list(range(101)))
        assert cdf.percentile(0) == 0
        assert cdf.percentile(50) == 50
        assert cdf.percentile(100) == 100

    def test_incremental_adds(self):
        cdf = Cdf()
        for value in [3.0, 1.0, 2.0]:
            cdf.add(value)
        assert cdf.percentile(100) == 3.0
        assert cdf.fraction_below(1.5) == pytest.approx(1 / 3)

    def test_empty_percentile_raises(self):
        with pytest.raises(SimulationError):
            Cdf().percentile(50)

    def test_percentile_ms_scales_seconds_and_is_nan_when_empty(self):
        cdf = Cdf([0.010, 0.020, 0.030])
        assert cdf.percentile_ms(50) == cdf.percentile(50) * 1000.0 == 20.0
        assert math.isnan(Cdf().percentile_ms(99))

    def test_series_monotone(self):
        cdf = Cdf(np.random.default_rng(0).normal(size=500).tolist())
        points = cdf.series(num_points=50)
        values = [v for v, _ in points]
        fractions = [f for _, f in points]
        assert values == sorted(values)
        assert fractions == sorted(fractions)
        assert fractions[-1] == pytest.approx(1.0)

    @given(st.lists(finite_floats, min_size=1, max_size=200))
    def test_fraction_below_is_monotone(self, samples):
        cdf = Cdf(samples)
        lo, hi = min(samples), max(samples)
        mid = (lo + hi) / 2
        assert cdf.fraction_below(lo - 1) <= cdf.fraction_below(mid)
        assert cdf.fraction_below(mid) <= cdf.fraction_below(hi + 1)
        assert cdf.fraction_below(hi) == pytest.approx(1.0)

    @given(st.lists(finite_floats, min_size=2, max_size=200))
    def test_percentile_monotone_in_p(self, samples):
        cdf = Cdf(samples)
        previous = cdf.percentile(0)
        for p in (10, 25, 50, 75, 90, 100):
            current = cdf.percentile(p)
            assert current >= previous - 1e-9
            previous = current
