"""Tests for the figure regenerators (fast configurations) and report
formatting."""

from dataclasses import replace

import pytest

from repro.core import figures
from repro.core.figures import (
    TABLE4_PAPER,
    Table2Row,
    fig2_cores,
    fig2_llc,
    fig7_q20_plans,
    q20_memory_vs_dop,
    table2,
    table4,
)
from repro.core.report import format_series, format_table, sparkline
from repro.core.runner import SupervisionPolicy
from repro.core.sweeps import core_sweep
from repro.errors import SweepExecutionError
from repro.faults.spec import WorkerCrash


class TestReport:
    def test_format_table_alignment(self):
        text = format_table(["a", "bb"], [[1, 2.5], [10, 0.001]])
        lines = text.splitlines()
        assert lines[0].startswith("a")
        assert "--" in lines[1]
        assert len(lines) == 4

    def test_format_table_title_and_specials(self):
        text = format_table(
            ["x"], [[None], [True], [float("nan")], [float("inf")]],
            title="T",
        )
        assert text.startswith("T")
        assert "-" in text and "yes" in text and "nan" in text and "inf" in text

    def test_format_series(self):
        text = format_series("x", [1.0, 2.0], {"y": [10.0, 20.0]})
        assert "x" in text and "y" in text
        assert "10.00" in text

    def test_sparkline_shape(self):
        line = sparkline([0, 1, 2, 3, 4])
        assert len(line) == 5
        assert line[0] == " " and line[-1] == "@"
        assert sparkline([]) == ""


class TestTable2:
    def test_rows_cover_study_matrix(self):
        rows = table2()
        assert len(rows) == 10
        assert all(isinstance(r, Table2Row) for r in rows)

    def test_values_match_paper(self):
        for row in table2():
            assert row.data_gb == pytest.approx(row.paper_data_gb, rel=0.02)

    def test_shading(self):
        shaded = {
            (r.workload, r.scale_factor) for r in table2() if not r.fits_in_memory
        }
        assert ("tpch", 300) in shaded
        assert ("asdb", 6000) in shaded
        assert ("tpch", 10) not in shaded


class TestSweepFigures:
    def test_fig2_cores_small(self):
        series = fig2_cores("asdb", 2000, cores=(4, 16), duration_scale=0.2)
        assert series.xs == [4.0, 16.0]
        assert series.performance[1] > series.performance[0]

    def test_fig2_llc_small(self):
        series = fig2_llc("asdb", 2000, sizes_mb=(2, 40), duration_scale=0.2)
        assert series.mpki[0] > series.mpki[1]
        assert series.performance[1] > series.performance[0]

    @pytest.mark.usefixtures("fast_retries")
    def test_collect_drops_a_crashed_point_with_a_warning(self):
        configs = core_sweep("asdb", 2000, cores=(4, 8), duration_scale=0.05)
        configs[0] = replace(configs[0], faults=(WorkerCrash(attempts=99),))
        collect = SupervisionPolicy(retries=0, on_error="collect")
        with pytest.warns(UserWarning,
                          match=r"asdb sf=2000: dropping grid point x=4\.0"):
            series = figures._sweep_series("asdb", 2000, configs, [4.0, 8.0],
                                           1, None, collect)
        assert series.xs == [8.0]
        assert len(series.measurements) == 1
        # The default policy raises instead of leaving the hole.
        with pytest.raises(SweepExecutionError):
            figures._sweep_series("asdb", 2000, configs, [4.0, 8.0],
                                  1, None, None)


class TestTable4:
    def test_row_shape(self):
        # Shape only: the measured sizes move with fidelity work.
        matrix = (("asdb", 2000),)
        sizes = (2, 8, 40)
        rows = table4(matrix=matrix, sizes_mb=sizes, duration_scale=0.02)
        assert [(r.workload, r.scale_factor) for r in rows] == list(matrix)
        row = rows[0]
        assert (row.paper_mb_for_90, row.paper_mb_for_95) == TABLE4_PAPER[matrix[0]]
        assert row.mb_for_90 is None or row.mb_for_90 in sizes
        assert row.mb_for_95 is None or row.mb_for_95 in sizes


class TestFig7:
    def test_q20_plan_artifacts(self):
        result = fig7_q20_plans(300)
        assert "-->" in result.serial_plan_text
        assert "<=>" in result.parallel_plan_text
        assert result.serial_uses_hash_for_part
        assert result.parallel_uses_nlj_for_part
        assert "same shape: False" in result.diff_summary


class TestQ20Memory:
    def test_serial_less_than_parallel(self):
        serial, parallel = q20_memory_vs_dop(100)
        assert serial < parallel
