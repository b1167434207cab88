"""Tests for unit helpers and the calibration constants."""

import pytest

from repro import units
from repro.calibration import (
    ASDB_CLIENT_THREADS,
    ENGINE_MEMORY_FRACTION,
    HTAP_DSS_USERS,
    HTAP_OLTP_USERS,
    QUERY_MEMORY_POOL_FRACTION,
    TPCE_USERS,
    TPCH_QUERY_STREAMS,
)


class TestUnits:
    def test_binary_sizes(self):
        assert units.KIB == 1024
        assert units.MIB == 1024 ** 2
        assert units.GIB == 1024 ** 3
        assert units.gib(1.5) == int(1.5 * 1024 ** 3)

    def test_decimal_rates(self):
        assert units.mb_per_s(100) == 100e6
        assert units.gb_per_s(2.5) == 2.5e9
        assert units.to_mb_per_s(100e6) == pytest.approx(100.0)

    def test_pages(self):
        assert units.PAGE_SIZE == 8192
        assert units.pages(8192) == 1
        assert units.pages(8192 * 2.4) == 2
        assert units.pages(1) == 1  # never zero

    def test_cache_line(self):
        assert units.CACHE_LINE == 64

    def test_time_units(self):
        assert units.HOUR == 3600.0
        assert units.MILLISECOND == pytest.approx(1e-3)


class TestSection3Constants:
    """§3's experimental populations, pinned."""

    def test_client_populations(self):
        assert ASDB_CLIENT_THREADS == 128
        assert TPCE_USERS == 100
        assert HTAP_OLTP_USERS + HTAP_DSS_USERS == 100
        assert TPCH_QUERY_STREAMS == 3

    def test_memory_policy_produces_9_2_gb_default_grant(self):
        """§8: default 25% grant ~ 9.2 GB on the 64 GB testbed."""
        grant = 64 * units.GIB * ENGINE_MEMORY_FRACTION \
            * QUERY_MEMORY_POOL_FRACTION * 0.25
        assert grant / units.GIB == pytest.approx(9.2, abs=0.05)
