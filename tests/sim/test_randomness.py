"""Tests for deterministic random streams and weighted draws."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.randomness import RandomStreams, draw_index, weight_cdf


def test_same_name_same_stream_object():
    streams = RandomStreams(seed=1)
    assert streams.get("a") is streams.get("a")


def test_streams_are_independent_by_name():
    streams = RandomStreams(seed=1)
    a = streams.get("a").random(5).tolist()
    b = streams.get("b").random(5).tolist()
    assert a != b


def test_reproducible_across_instances():
    a = RandomStreams(seed=9).get("x").random(3).tolist()
    b = RandomStreams(seed=9).get("x").random(3).tolist()
    assert a == b


def test_seed_changes_draws():
    a = RandomStreams(seed=1).get("x").random(3).tolist()
    b = RandomStreams(seed=2).get("x").random(3).tolist()
    assert a != b


def test_adding_consumers_does_not_perturb_existing():
    """Common-random-numbers property: draws from stream 'a' are the same
    whether or not stream 'b' was ever created."""
    lone = RandomStreams(seed=5)
    lone_draws = lone.get("a").random(4).tolist()
    crowded = RandomStreams(seed=5)
    crowded.get("b").random(100)
    crowded_draws = crowded.get("a").random(4).tolist()
    assert lone_draws == crowded_draws


def test_fork_creates_independent_family():
    base = RandomStreams(seed=3)
    fork1 = base.fork("experiment-1")
    fork2 = base.fork("experiment-2")
    same_fork = RandomStreams(seed=3).fork("experiment-1")
    assert fork1.get("x").random(3).tolist() == same_fork.get("x").random(3).tolist()
    assert fork1.get("x").random(3).tolist() != fork2.get("x").random(3).tolist()


# -- weighted draws -----------------------------------------------------------

_weight = st.one_of(
    st.just(0.0),
    st.floats(min_value=1e-6, max_value=1e6, allow_nan=False,
              allow_infinity=False),
)


@settings(max_examples=200, deadline=None)
@given(
    weights=st.lists(_weight, min_size=1, max_size=12).filter(any),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_draw_index_matches_generator_choice(weights, seed):
    """Same indices and the same stream state afterwards as numpy's
    ``choice(n, p=w / w.sum())``, the call the draws replace."""
    w = np.array(weights, dtype=float)
    r1 = np.random.default_rng(seed)
    r2 = np.random.default_rng(seed)
    cdf = weight_cdf(weights)
    ours = [draw_index(r1, cdf) for _ in range(200)]
    theirs = [int(r2.choice(len(w), p=w / w.sum())) for _ in range(200)]
    assert ours == theirs
    assert r1.bit_generator.state == r2.bit_generator.state


def test_draw_on_a_cdf_boundary_goes_right():
    """A draw exactly equal to a cdf entry picks the next index, as
    ``choice``'s ``searchsorted(side="right")`` does."""
    u = np.random.default_rng(1).random()
    weights = [u, 1.0 - u]
    cdf = weight_cdf(weights)
    assert cdf[0] == u
    assert draw_index(np.random.default_rng(1), cdf) == 1
    assert int(np.random.default_rng(1).choice(2, p=weights)) == 1


def test_draw_index_never_picks_a_zero_weight():
    cdf = weight_cdf([0.0, 2.0, 0.0, 1.0, 0.0])
    rng = np.random.default_rng(0)
    assert {draw_index(rng, cdf) for _ in range(2000)} == {1, 3}


@pytest.mark.parametrize("weights, match", [
    ([1.0, -0.5], "non-negative"),
    ([1.0, math.nan], "finite"),
    ([1.0, math.inf], "finite"),
    ([], "non-empty"),
    ([[1.0, 2.0]], "1-D"),
    ([0.0, 0.0, 0.0], "all be zero"),
    pytest.param([1e308, 1e308], "normalise",
                 marks=pytest.mark.filterwarnings("ignore:overflow")),
])
def test_weight_cdf_rejects_bad_weights(weights, match):
    with pytest.raises(ValueError, match=match):
        weight_cdf(weights)
