"""The perf-smoke regression gate covers both end-to-end anchors."""

import json

import pytest

from benchmarks.check_perf_smoke import check_regression


def _report(fig2, olap=None):
    report = {"fig2_mini": {"points_per_second": fig2}}
    if olap is not None:
        report["olap_mini"] = {"points_per_second": olap}
    return report


@pytest.fixture
def baseline(tmp_path):
    path = tmp_path / "BENCH_sim_kernel.json"
    path.write_text(json.dumps(_report(10.0, 4.0)))
    return path


def test_both_anchors_within_the_floor_pass(baseline, capsys):
    check_regression(_report(9.0, 3.5), baseline, 0.8)
    out = capsys.readouterr().out
    assert "fig2_mini 9.0 vs baseline 10.0" in out
    assert "olap_mini 3.5 vs baseline 4.0" in out


def test_a_slower_olap_path_fails(baseline):
    with pytest.raises(AssertionError, match="olap_mini regressed"):
        check_regression(_report(10.0, 3.0), baseline, 0.8)


def test_a_baseline_without_the_olap_anchor_skips_it(tmp_path, capsys):
    path = tmp_path / "BENCH_sim_kernel.json"
    path.write_text(json.dumps(_report(10.0)))
    check_regression(_report(10.0, 0.1), path, 0.8)
    assert "lacks olap_mini.points_per_second" in capsys.readouterr().out
