"""Smoke test of the end-to-end benchmark, at about a second of work per
pass::

    PYTHONPATH=src python -m pytest benchmarks/e2e
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(BENCH_DIR))
RUN = os.path.join(BENCH_DIR, "run.py")

with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    BENCHMARK = json.load(_handle)
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
END_TO_END = [m["name"] for m in BENCHMARK["end_to_end"]]
PER_LAYER = [m["name"] for m in BENCHMARK["per_layer"]]


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, *args], cwd=cwd,
                          capture_output=True, text=True, timeout=900)


@pytest.fixture(scope="module")
def report(tmp_path_factory):
    out = tmp_path_factory.mktemp("e2e") / "report.json"
    proc = _run(RUN, "--smoke", "--reps", "2", "--out", str(out))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return json.loads(out.read_text()), out


def test_every_workload_emits_every_metric(report):
    result, _ = report
    assert sorted(result["workloads"]) == sorted(WORKLOADS)
    for name, workload in result["workloads"].items():
        for metric in END_TO_END:
            summary = workload["end_to_end"][metric]
            assert summary["n"] == 2 and summary["value"] > 0, (name, metric)
        assert sorted(workload["per_layer"]) == sorted(PER_LAYER), name


def test_reps_and_traced_pass_give_equal_digests(report):
    result, _ = report
    for name, workload in result["workloads"].items():
        assert workload["end_to_end"]["digest_mismatches"]["value"] == 0, name
        assert workload["failed"] == 0, name


def test_layer_map_covers_every_imported_module(report):
    result, _ = report
    for name, workload in result["workloads"].items():
        assert workload["unmapped_modules"] == [], name


def test_compare_against_itself_is_clean(report):
    _, out = report
    proc = _run(RUN, "compare", str(out), str(out))
    assert proc.returncode == 0, proc.stdout
    assert "worse" not in proc.stdout


@pytest.mark.parametrize("trace,names", [("0", END_TO_END), ("1", PER_LAYER)])
def test_single_run_prints_the_result_line(trace, names):
    proc = _run(RUN, "--workload", "sweep_cached", "--seed", "3",
                "--seconds", "0", "--trace", trace, "--smoke")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(line) == ["attempted", "correct", "failed", "metrics"]
    assert line["correct"] is True and line["failed"] == 0
    assert line["attempted"] >= 1
    assert sorted(line["metrics"]) == sorted(names)


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = _run(os.path.join("benchmarks", "e2e", "run.py"), "--workload",
                "oltp_paper", "--seed", "0", "--seconds", "1", "--trace", "0",
                cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
