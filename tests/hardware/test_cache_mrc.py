"""Tests for LLC/CAT semantics and miss-ratio curves."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import AllocationError, ConfigurationError
from repro.hardware.cache import CosBitmask, LastLevelCache
from repro.hardware.mrc import MissRatioCurve, WorkingSetComponent
from repro.units import MIB


class TestCosBitmask:
    def test_lowest_ways(self):
        mask = CosBitmask.lowest_ways(3, 20)
        assert mask.mask == 0b111
        assert mask.num_ways == 3

    def test_contiguous_masks_accepted(self):
        CosBitmask(mask=0b1110, num_ways_total=20)

    def test_noncontiguous_rejected(self):
        with pytest.raises(AllocationError):
            CosBitmask(mask=0b1011, num_ways_total=20)

    def test_zero_rejected(self):
        with pytest.raises(AllocationError):
            CosBitmask(mask=0, num_ways_total=20)

    def test_too_wide_rejected(self):
        with pytest.raises(AllocationError):
            CosBitmask(mask=(1 << 21) - 1, num_ways_total=20)


class TestLastLevelCache:
    def test_paper_geometry(self):
        llc = LastLevelCache()
        assert llc.total_size == 40 * MIB
        assert llc.way_size_per_socket == 1 * MIB
        assert llc.allocation_granularity == 2 * MIB

    def test_allocation_in_2mb_steps(self):
        llc = LastLevelCache()
        llc.set_allocation_mb_total(10)
        assert llc.allocated_bytes() == 10 * MIB

    def test_full_allocation_default(self):
        llc = LastLevelCache()
        assert llc.allocated_bytes() == 40 * MIB

    def test_odd_allocation_rejected(self):
        llc = LastLevelCache()
        with pytest.raises(AllocationError):
            llc.set_allocation_mb_total(3)

    def test_superset_growth_masks(self):
        llc = LastLevelCache()
        masks = []
        for mb in (2, 4, 6, 8):
            llc.set_allocation_mb_total(mb)
            masks.append(llc.cat.mask(0).mask)
        assert masks == [0b1, 0b11, 0b111, 0b1111]
        # Each mask is a superset of the previous one (paper methodology).
        for smaller, larger in zip(masks, masks[1:]):
            assert smaller & larger == smaller

    def test_residual_warm_space_counts_toward_effective(self):
        llc = LastLevelCache()
        llc.set_allocation_mb_total(2)
        llc.warm_outside_mask(0.5)
        assert llc.effective_bytes() == 2 * MIB + (38 * MIB) // 2
        llc.reboot()
        assert llc.effective_bytes() == 2 * MIB


def simple_mrc():
    return MissRatioCurve(
        [
            WorkingSetComponent("hot", footprint_bytes=4 * MIB, accesses_per_ki=30.0),
            WorkingSetComponent("warm", footprint_bytes=16 * MIB, accesses_per_ki=10.0),
            WorkingSetComponent(
                "stream", footprint_bytes=float("inf"), accesses_per_ki=2.0
            ),
        ]
    )


class TestMissRatioCurve:
    def test_zero_allocation_misses_everything(self):
        mrc = simple_mrc()
        assert mrc.mpki(0) == pytest.approx(42.0)

    def test_full_allocation_only_streaming_misses(self):
        mrc = simple_mrc()
        assert mrc.mpki(100 * MIB) == pytest.approx(2.0)

    def test_knee_when_hot_set_fits(self):
        mrc = simple_mrc()
        # Slope below the 4 MiB knee is much steeper than above it.
        steep = mrc.mpki(0) - mrc.mpki(4 * MIB)
        shallow = mrc.mpki(4 * MIB) - mrc.mpki(8 * MIB)
        assert steep > 4 * shallow

    def test_knees_reported(self):
        assert simple_mrc().knee_bytes() == (4 * MIB, 20 * MIB)

    def test_footprint_scale_increases_misses(self):
        mrc = simple_mrc()
        assert mrc.mpki(8 * MIB, footprint_scale=2.0) > mrc.mpki(8 * MIB)

    def test_hit_ratio_complements_mpki(self):
        mrc = simple_mrc()
        alloc = 10 * MIB
        assert mrc.hit_ratio(alloc) == pytest.approx(
            1 - mrc.mpki(alloc) / mrc.total_accesses_per_ki()
        )

    def test_reuse_efficiency_caps_hits(self):
        mrc = MissRatioCurve(
            [WorkingSetComponent("x", footprint_bytes=MIB, accesses_per_ki=10.0,
                                 reuse_efficiency=0.9)]
        )
        assert mrc.mpki(10 * MIB) == pytest.approx(1.0)

    def test_empty_components_rejected(self):
        with pytest.raises(ConfigurationError):
            MissRatioCurve([])

    def test_bad_component_rejected(self):
        with pytest.raises(ConfigurationError):
            WorkingSetComponent("bad", footprint_bytes=-1, accesses_per_ki=1.0)

    @given(st.integers(min_value=0, max_value=64 * MIB))
    def test_mpki_monotone_nonincreasing(self, alloc):
        mrc = simple_mrc()
        assert mrc.mpki(alloc + MIB) <= mrc.mpki(alloc) + 1e-9

    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=1024, max_value=float(64 * MIB)),
                st.floats(min_value=0.0, max_value=100.0),
            ),
            min_size=1,
            max_size=8,
        ),
        st.integers(min_value=0, max_value=128 * MIB),
    )
    def test_mpki_bounded_by_total_accesses(self, comps, alloc):
        mrc = MissRatioCurve(
            [
                WorkingSetComponent(f"c{i}", footprint_bytes=fp, accesses_per_ki=acc)
                for i, (fp, acc) in enumerate(comps)
            ]
        )
        assert 0.0 <= mrc.mpki(alloc) <= mrc.total_accesses_per_ki() + 1e-9


class TestPrecomputedMrc:
    """What the curve and its components precompute at construction."""

    def test_knee_bytes_is_cached_tuple(self):
        mrc = simple_mrc()
        knees = mrc.knee_bytes()
        assert isinstance(knees, tuple)
        assert mrc.knee_bytes() is knees

    def test_component_pickle_round_trip(self):
        """Old pickles (without the memoized density) must still load."""
        import pickle
        component = WorkingSetComponent("hot", 4 * MIB, 30.0)
        clone = pickle.loads(pickle.dumps(component))
        assert clone == component
        assert clone.access_density() == component.access_density()
