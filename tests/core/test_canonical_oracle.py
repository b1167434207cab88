"""Oracle for the result-cache config key.

``_reference_canonical`` is the plain ``isinstance``-chain reduction the
cache key was first built with, kept verbatim.  The fast reduction in
:mod:`repro.core.resultcache` (exact-type dispatch, per-class field-name
tuples) must render every value to the same bytes, and a handful of
digests from the ``sweep_cached`` benchmark grid are pinned so a cache
written before the change stays addressable.
"""

import dataclasses
import enum
import json
from dataclasses import dataclass, field, replace
from typing import Any, ClassVar, Tuple

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.resultcache import canonical_json, config_digest
from repro.core.sweeps import core_sweep, llc_sweep, maxdop_sweep
from repro.errors import ConfigurationError


def _reference_canonical(value: Any) -> Any:
    """Reduce *value* to JSON-serializable primitives, deterministically.

    Dataclasses become ``[class name, {field: value}]`` so that two
    different config types can never collide; enums carry their class and
    member name; floats go through ``repr`` (shortest round-trip form, so
    equal floats always render identically).
    """
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        fields = {
            f.name: _reference_canonical(getattr(value, f.name))
            for f in dataclasses.fields(value)
        }
        return [type(value).__name__, fields]
    if isinstance(value, enum.Enum):
        return [type(value).__name__, value.name]
    if isinstance(value, dict):
        return {str(k): _reference_canonical(v) for k, v in sorted(value.items(), key=lambda kv: str(kv[0]))}
    if isinstance(value, (list, tuple, set, frozenset)):
        items = [_reference_canonical(v) for v in value]
        if isinstance(value, (set, frozenset)):
            items = sorted(items, key=repr)
        return items
    if isinstance(value, float):
        return repr(value)
    if value is None or isinstance(value, (bool, int, str)):
        return value
    raise ConfigurationError(
        f"cannot build a stable cache key from {type(value).__name__!r}"
    )


def reference_json(value: Any) -> str:
    return json.dumps(_reference_canonical(value), sort_keys=True,
                      separators=(",", ":"))


class Color(enum.Enum):
    RED = 1
    GREEN = "g"


class Level(enum.IntEnum):
    LOW = 1
    HIGH = 2


class Mode(str, enum.Enum):
    FAST = "fast"


@dataclass(frozen=True)
class Leaf:
    x: float
    tag: str = "a"
    kind: ClassVar[str] = "leaf"        # pseudo-field: not part of the key


@dataclass(frozen=True)
class Node:
    name: str
    child: Any = None
    items: Tuple[Any, ...] = ()
    meta: Any = field(default_factory=dict)


@dataclass(frozen=True)
class Derived(Leaf):
    extra: Any = None


floats = st.floats(allow_nan=True, allow_infinity=True)
hashable_scalars = st.one_of(
    st.none(), st.booleans(), st.integers(), floats, st.text(max_size=6),
    st.sampled_from(list(Color)), st.sampled_from(list(Level)),
    st.sampled_from(list(Mode)),
)
scalars = st.one_of(hashable_scalars, floats.map(np.float64))
dict_keys = st.one_of(st.none(), st.booleans(), st.integers(-3, 3),
                      st.floats(-2, 2), st.text(max_size=3),
                      st.sampled_from(list(Color)))

values = st.recursive(
    scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(dict_keys, children, max_size=4),
        st.frozensets(hashable_scalars, max_size=4),
        st.sets(hashable_scalars, max_size=4),
        st.builds(Leaf, x=floats, tag=st.text(max_size=3)),
        st.builds(Derived, x=floats, extra=children),
        st.builds(Node, name=st.text(max_size=4), child=children,
                  items=st.lists(children, max_size=3).map(tuple),
                  meta=st.dictionaries(dict_keys, children, max_size=3)),
    ),
    max_leaves=20,
)


@settings(max_examples=400, deadline=None)
@given(values)
def test_canonical_json_matches_the_reference(value):
    assert canonical_json(value) == reference_json(value)


@pytest.mark.parametrize("value", [
    -0.0, 0.0, float("nan"), float("inf"), float("-inf"), 1, 1.0, True,
    False, None, np.float64(1.5), np.float64("nan"), np.float64(-0.0),
    {1: "a", "1": "b"}, {True: 1, 1.0: 2}, {None: 0, "None": 1},
    {Color.RED: 1, "Color.RED": 2}, frozenset({1.0, -0.0, 2}),
    [Level.HIGH, Mode.FAST, Color.GREEN], (), [], {},
    Node("n", child=Leaf(-0.0), items=(Derived(1.0, extra={2: np.float64(3)}),)),
])
def test_edge_values_match_the_reference(value):
    assert canonical_json(value) == reference_json(value)


def test_numeric_lookalikes_stay_distinct():
    rendered = {canonical_json(v) for v in (1, 1.0, True, np.float64(1.0))}
    assert len(rendered) == 4
    assert canonical_json(-0.0) != canonical_json(0.0)


@pytest.mark.parametrize("value, name", [
    (object(), "object"),
    ({"k": [1, b"bytes"]}, "bytes"),
    (Node("n", child=complex(1, 2)), "complex"),
    (Leaf, "type"),
])
def test_unsupported_type_names_the_type(value, name):
    with pytest.raises(ConfigurationError, match=f"'{name}'"):
        canonical_json(value)
    with pytest.raises(ConfigurationError, match=f"'{name}'"):
        reference_json(value)


def _sweep_cached_grid():
    """The ``sweep_cached`` benchmark grid at seed 0 (114 points)."""
    scale = 0.05
    base = (llc_sweep("asdb", 6000, duration_scale=scale)
            + core_sweep("tpce", 15000, duration_scale=scale)
            + maxdop_sweep(100, duration_scale=scale)
            + core_sweep("tpch", 30, duration_scale=scale)
            + core_sweep("htap", 5000, duration_scale=scale))
    return [replace(config, seed=s) for s in (0, 1, 2) for config in base]


#: config_digest(grid[i], "t"), recorded before the fast reduction landed.
PINNED_DIGESTS = {
    0: "7e503f7419e216583edfcbaf40809fbb785b516f8a6ed3fe5216d6d8179413c1",
    13: "1ae15358cf1016cf9d0140022772beff9ae78eb749a4358d54f84e6081892091",
    20: "c14bbb6e7d6478be3c7dfec5dd08112e4558312cab83898aac05ce9d61f0cef8",
    27: "ce67aa3a89d9f80b9a2a4b02bca15c31df728eef7977412b0f8e3aa1d6379f4a",
    33: "ef19a6e446f2cac2398439fd248bd83c2bda1ae484e09770f33684c56c9913d8",
    100: "1ce2c927bbf7d9df49de7302272639c1a143bfad4e31c06222761c1c2abf5577",
}


def test_sweep_cached_grid_digests_are_pinned():
    grid = _sweep_cached_grid()
    assert len(grid) == 114
    for index, expected in PINNED_DIGESTS.items():
        assert config_digest(grid[index], "t") == expected, index


def test_sweep_cached_grid_matches_the_reference():
    for config in _sweep_cached_grid():
        assert canonical_json(config) == reference_json(config)
