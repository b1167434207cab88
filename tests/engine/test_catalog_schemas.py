"""Tests for the catalog and the Table 2 schema builders."""

import warnings

import pytest

from repro.calibration import TABLE2_SIZES_GB, interpolate_table2
from repro.engine.catalog import Database, Index, Table
from repro.engine.schemas import build, build_asdb, build_htap, build_tpce, build_tpch, tpch_rows
from repro.engine.types import IndexKind, StorageFormat, WorkloadClass
from repro.errors import ConfigurationError
from repro.units import GIB


class TestTable:
    def test_row_store_size(self):
        table = Table(name="t", rows=1000, row_bytes=100.0)
        assert table.data_bytes == 100_000

    def test_columnstore_compression(self):
        table = Table(
            name="t", rows=1000, row_bytes=100.0,
            storage=StorageFormat.COLUMN, compression_ratio=4.0,
        )
        assert table.data_bytes == pytest.approx(25_000)
        assert table.uncompressed_bytes == 100_000

    def test_index_bytes(self):
        table = Table(
            name="t", rows=1000, row_bytes=100.0,
            indexes=[Index("ix", IndexKind.BTREE_NONCLUSTERED, bytes_per_row=10.0)],
        )
        assert table.index_bytes == 10_000
        assert table.index("ix").kind is IndexKind.BTREE_NONCLUSTERED

    def test_missing_index_raises(self):
        table = Table(name="t", rows=1, row_bytes=1.0)
        with pytest.raises(ConfigurationError):
            table.index("nope")

    def test_bad_shapes_rejected(self):
        with pytest.raises(ConfigurationError):
            Table(name="t", rows=1, row_bytes=0.0)
        with pytest.raises(ConfigurationError):
            Table(name="t", rows=1, row_bytes=1.0, hot_fraction=0.0)
        with pytest.raises(ConfigurationError):
            Table(name="t", rows=1, row_bytes=1.0, compression_ratio=0.5)


class TestDatabase:
    def _db(self, workload_class=WorkloadClass.OLTP):
        return Database(name="db", scale_factor=1, workload_class=workload_class)

    def test_duplicate_table_rejected(self):
        db = self._db()
        db.add_table(Table(name="t", rows=1, row_bytes=1.0))
        with pytest.raises(ConfigurationError):
            db.add_table(Table(name="t", rows=1, row_bytes=1.0))

    def test_pitfall2_warning_rowstore_in_dss(self):
        db = self._db(WorkloadClass.DSS)
        with pytest.warns(UserWarning, match="pitfall"):
            db.add_table(Table(name="facts", rows=10, row_bytes=8.0))

    def test_pitfall2_warning_columnstore_in_oltp(self):
        db = self._db(WorkloadClass.OLTP)
        with pytest.warns(UserWarning, match="pitfall"):
            db.add_table(
                Table(name="t", rows=10, row_bytes=8.0, storage=StorageFormat.COLUMN)
            )


class TestInterpolation:
    def test_exact_points(self):
        data, index = interpolate_table2("tpch", 100)
        assert data == pytest.approx(41.95 * GIB)
        assert index == pytest.approx(0.75 * GIB)

    def test_between_points(self):
        data_lo, _ = interpolate_table2("tpch", 30)
        data_hi, _ = interpolate_table2("tpch", 100)
        data_mid, _ = interpolate_table2("tpch", 65)
        assert data_lo < data_mid < data_hi

    def test_extrapolation_beyond_largest(self):
        data_300, _ = interpolate_table2("tpch", 300)
        data_600, _ = interpolate_table2("tpch", 600)
        assert data_600 > data_300

    def test_below_smallest_scales_down(self):
        data_1, _ = interpolate_table2("tpch", 1)
        data_10, _ = interpolate_table2("tpch", 10)
        assert data_1 == pytest.approx(data_10 / 10)


class TestSchemaBuilders:
    @pytest.mark.parametrize("workload,sf", [
        (w, sf) for w, sizes in TABLE2_SIZES_GB.items() for sf in sizes
    ])
    def test_table2_sizes_reproduced(self, workload, sf):
        """Every (workload, SF) cell of Table 2 within 1%."""
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            db = build(workload, sf)
        expected_data, expected_index = TABLE2_SIZES_GB[workload][sf]
        assert db.data_bytes / GIB == pytest.approx(expected_data, rel=0.01)
        assert db.index_bytes / GIB == pytest.approx(expected_index, rel=0.01)

    def test_tpch_cardinalities(self):
        assert tpch_rows("lineitem", 10) == 60_000_000
        assert tpch_rows("orders", 100) == 150_000_000
        assert tpch_rows("nation", 300) == 25  # fixed table

    def test_tpch_is_columnar(self):
        db = build_tpch(10)
        assert all(
            t.storage is StorageFormat.COLUMN for t in db.tables.values()
        )
        assert db.workload_class is WorkloadClass.DSS

    def test_tpce_is_rowstore_with_btrees(self):
        db = build_tpce(5000)
        assert all(t.storage is StorageFormat.ROW for t in db.tables.values())
        assert all(
            t.has_index_kind(IndexKind.BTREE_CLUSTERED) for t in db.tables.values()
        )

    def test_htap_adds_columnstore_indexes_on_big_tables(self):
        db = build_htap(5000)
        for name in ("trade", "trade_history", "settlement"):
            assert db.table(name).has_index_kind(IndexKind.COLUMNSTORE_NONCLUSTERED)
        # but not on small dimension-ish tables
        assert not db.table("customer").has_index_kind(
            IndexKind.COLUMNSTORE_NONCLUSTERED
        )

    def test_htap_index_exceeds_tpce_index(self):
        """Table 2: the HTAP design adds index bytes over plain TPC-E."""
        assert build_htap(5000).index_bytes > build_tpce(5000).index_bytes

    def test_asdb_has_fixed_scaling_growing_tables(self):
        small = build_asdb(2000)
        large = build_asdb(6000)
        # Fixed tables keep cardinality; scaling tables grow.
        assert small.table("fixed_config").rows == large.table("fixed_config").rows
        assert large.table("scaling_ledger").rows > small.table("scaling_ledger").rows

    def test_unknown_workload_rejected(self):
        with pytest.raises(KeyError):
            build("mongodb", 1)

    def test_shading_rule_matches_paper(self):
        """Table 2 shades databases not fitting in 64 GB: ASDB 6000,
        TPC-E/HTAP 15000, TPC-H 300 do not fit."""
        memory = 64 * 1024**3
        assert build_asdb(2000).total_bytes < memory
        assert build_asdb(6000).total_bytes > memory
        assert build_tpce(15000).total_bytes > memory
        assert build_tpch(300).total_bytes > memory
        assert build_tpch(30).total_bytes < memory
