"""cgroup blkio caps are checked before anything is written.

A rejected limit must raise a :class:`ConfigurationError` naming the
limit and leave the cgroup bucket exactly as it was: same burst, same
rate, same effective bandwidth.
"""

import math

import pytest

from repro.errors import AllocationError, ConfigurationError
from repro.hardware.cgroups import BlkioLimits
from repro.hardware.storage import NvmeDevice
from repro.sim.process import Simulator
from repro.units import mb_per_s

BAD_LIMITS = [math.nan, math.inf, 0.0, -1.0]


@pytest.mark.parametrize("value", BAD_LIMITS)
@pytest.mark.parametrize("kind", ["read", "write"])
def test_rejected_limit_leaves_the_bucket_untouched(kind, value):
    dev = NvmeDevice(Simulator())
    set_limit = getattr(dev, f"set_{kind}_limit")
    set_limit(mb_per_s(800))
    bucket = getattr(dev, f"_cgroup_{kind}")
    before = (bucket.burst, bucket.rate, dev.effective_read_bw,
              dev.effective_write_bw)
    with pytest.raises(ConfigurationError, match=rf"limit={value!r}$"):
        set_limit(value)
    assert (bucket.burst, bucket.rate, dev.effective_read_bw,
            dev.effective_write_bw) == before


@pytest.mark.parametrize("kind", ["read", "write"])
def test_valid_limits_still_apply_and_clear(kind):
    dev = NvmeDevice(Simulator())
    set_limit = getattr(dev, f"set_{kind}_limit")
    bucket = getattr(dev, f"_cgroup_{kind}")
    set_limit(mb_per_s(200))
    assert (bucket.rate, bucket.burst) == (mb_per_s(200), mb_per_s(200) * 0.01)
    set_limit(None)
    assert (bucket.rate, bucket.burst) == (None, 0.0)


@pytest.mark.parametrize("value", BAD_LIMITS)
@pytest.mark.parametrize("field", ["read_bps", "write_bps"])
def test_blkio_limits_reject_by_name(field, value):
    with pytest.raises(AllocationError, match=rf": {field}={value!r}$"):
        BlkioLimits(**{field: value})
