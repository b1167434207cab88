"""Oracle for :class:`Cdf` float64 blobs: a pickled Cdf stores its sorted
samples as raw float64 bytes and loads them into an ``array("d")``.
Every observable must read the same after a round trip as before it."""

import math
import pickle
from array import array

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import SimulationError
from repro.sim.stats import Cdf

# inf and NaN samples make numpy's interpolation warn; the values it
# returns are what the comparisons check.
pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")

PERCENTILES = (0, 1, 25, 50, 90, 99, 99.9, 100)
PROBES = (-math.inf, -1.0, -0.0, 0.0, 0.5, 2.0, 1e9, math.inf, math.nan)


def filled(samples):
    """A live Cdf fed one sample at a time, as a workload client does."""
    cdf = Cdf()
    for value in samples:
        cdf.add(value)
    return cdf


def same(a, b):
    """Equal, NaN equal to NaN, and -0.0 distinct from 0.0."""
    if isinstance(a, float) and isinstance(b, float):
        if math.isnan(a) or math.isnan(b):
            return math.isnan(a) and math.isnan(b)
        return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)
    if isinstance(a, (list, tuple)):
        return (isinstance(b, (list, tuple)) and len(a) == len(b)
                and all(same(x, y) for x, y in zip(a, b)))
    return a == b


def observables(cdf):
    out = {"len": len(cdf), "mean": cdf.mean(), "series": cdf.series(),
           "series7": cdf.series(7),
           "below": [cdf.fraction_below(v) for v in PROBES],
           "ms": [cdf.percentile_ms(p) for p in PERCENTILES]}
    if len(cdf):
        out["pct"] = [cdf.percentile(p) for p in PERCENTILES]
    return out


def assert_same_observables(a, b):
    left, right = observables(a), observables(b)
    assert left.keys() == right.keys()
    for key in left:
        assert same(left[key], right[key]), key


SAMPLE_SETS = [
    [],
    [0.25],
    [3.0, 1.0, 2.0, 2.0, 2.0, 0.5],
    [-0.0, 0.0, -0.0, 1.0],
    [1.0, math.inf, -math.inf, 2.5],
    [0.3, math.nan, 0.1, math.nan, 0.2],
    [5e-324, 1.7976931348623157e308, -1e-300, 0.1 + 0.2],
]


@pytest.mark.parametrize("samples", SAMPLE_SETS)
def test_round_trip_keeps_every_observable(samples):
    original = filled(samples)
    loaded = pickle.loads(pickle.dumps(original))
    assert_same_observables(original, loaded)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.one_of(st.floats(allow_nan=True, allow_infinity=True),
                          st.sampled_from([0.0, -0.0, 1.0])), max_size=60))
def test_round_trip_property(samples):
    original = filled(samples)
    loaded = pickle.loads(pickle.dumps(original))
    assert_same_observables(original, loaded)


def test_empty_round_trip_still_raises_on_percentile():
    loaded = pickle.loads(pickle.dumps(Cdf()))
    assert len(loaded) == 0
    assert math.isnan(loaded.percentile_ms(99))
    with pytest.raises(SimulationError):
        loaded.percentile(50)


def test_loaded_cdf_holds_an_array_not_float_objects():
    loaded = pickle.loads(pickle.dumps(filled([2.0, 1.0])))
    assert type(vars(loaded)["_samples"]) is array
    assert loaded.percentile(100) == 2.0


def test_add_after_load_stays_sorted():
    loaded = pickle.loads(pickle.dumps(filled([5.0, 1.0, 3.0])))
    for value in (4.0, 0.0, 6.0, 3.0):
        loaded.add(value)
    assert len(loaded) == 7
    assert loaded.series(7) == [(v, (i + 1) / 7) for i, v in
                                enumerate([0.0, 1.0, 3.0, 3.0, 4.0, 5.0, 6.0])]
    assert loaded.percentile(0) == 0.0 and loaded.percentile(100) == 6.0
    again = pickle.loads(pickle.dumps(loaded))
    assert_same_observables(loaded, again)


@pytest.mark.parametrize("samples", SAMPLE_SETS)
def test_repickling_a_loaded_cdf_writes_the_same_bytes(samples):
    payload = pickle.dumps(filled(samples), protocol=pickle.HIGHEST_PROTOCOL)
    loaded = pickle.loads(payload)
    assert pickle.dumps(loaded, protocol=pickle.HIGHEST_PROTOCOL) == payload


def test_pickle_is_independent_of_arrival_order():
    assert pickle.dumps(filled([3.0, 1.0, 2.0])) == pickle.dumps(
        filled([1.0, 2.0, 3.0]))
    loaded = pickle.loads(pickle.dumps(filled([3.0, 1.0, 2.0])))
    assert loaded.percentile(50) == 2.0
    assert pickle.dumps(loaded) == pickle.dumps(filled([2.0, 3.0, 1.0]))
