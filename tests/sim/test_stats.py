"""Tests for the empirical CDF, including property-based checks."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.errors import SimulationError
from repro.sim.stats import Cdf

finite_floats = st.floats(
    min_value=-1e9, max_value=1e9, allow_nan=False, allow_infinity=False
)


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
