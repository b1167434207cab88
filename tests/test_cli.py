"""Tests for the command-line interface."""

import pytest

from repro.cli import main
from repro.core.sweeps import llc_sweep, on_backend
from repro.errors import (
    SimulatedWorkerCrash,
    SimulationError,
    SweepExecutionError,
    TransientIOError,
)


def test_list(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for workload in ("asdb", "tpce", "tpch", "htap"):
        assert workload in out


def test_run_basic(capsys):
    code = main(["run", "asdb", "2000", "--duration", "3", "--cores", "8"])
    assert code == 0
    out = capsys.readouterr().out
    assert "primary metric" in out
    assert "MPKI" in out


def test_run_with_limits(capsys):
    code = main([
        "run", "asdb", "2000", "--duration", "3",
        "--write-limit-mb", "50", "--grant-percent", "10",
    ])
    assert code == 0


def test_run_htap_shows_qph(capsys):
    code = main(["run", "htap", "5000", "--duration", "3"])
    assert code == 0
    assert "analytics QPH" in capsys.readouterr().out


def test_sweep_cores(capsys):
    code = main(["sweep", "cores", "asdb", "2000", "--duration-scale", "0.2"])
    assert code == 0
    out = capsys.readouterr().out
    assert "cores" in out and "perf" in out


def test_figure_table2(capsys):
    assert main(["figure", "table2"]) == 0
    assert "Table 2" in capsys.readouterr().out


def test_figure_fig7(capsys):
    assert main(["figure", "fig7"]) == 0
    out = capsys.readouterr().out
    assert "Fig 7a" in out and "Fig 7b" in out


def test_sweep_with_jobs_and_cache(capsys, tmp_path):
    argv = ["sweep", "cores", "asdb", "2000", "--duration-scale", "0.1",
            "--jobs", "2", "--cache-dir", str(tmp_path)]
    assert main(argv) == 0
    cold = capsys.readouterr().out
    assert "cache: 0 hits, 6 misses" in cold
    assert main(argv) == 0
    warm = capsys.readouterr().out
    assert "cache: 6 hits, 0 misses" in warm
    # identical numbers either way — the cache serves, never distorts
    assert warm.splitlines()[1:] == cold.splitlines()[1:]


def test_sweep_on_error_collect_prints_the_default_rows(capsys):
    argv = ["sweep", "cores", "asdb", "2000", "--duration-scale", "0.1"]
    assert main(argv) == 0
    default = capsys.readouterr().out
    assert main(argv + ["--on-error", "collect"]) == 0
    assert capsys.readouterr().out == default


def test_sweep_retargets_the_grid_with_on_backend(monkeypatch):
    seen = []

    def capture(configs, **kwargs):
        seen.extend(configs)
        raise SystemExit(0)

    monkeypatch.setattr("repro.cli.run_supervised", capture)
    with pytest.raises(SystemExit):
        main(["sweep", "llc", "tpch", "10", "--backend", "columnstore-dss"])
    assert seen == on_backend(llc_sweep("tpch", 10, duration_scale=0.5),
                              "columnstore-dss")


def test_sweep_no_cache_overrides_env(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    code = main(["sweep", "cores", "asdb", "2000",
                 "--duration-scale", "0.1", "--no-cache"])
    assert code == 0
    out = capsys.readouterr().out
    assert "cache:" not in out
    assert list(tmp_path.iterdir()) == []


def test_whatif_answers_from_the_cache_on_a_rerun(capsys, tmp_path):
    argv = ["whatif", "asdb", "2000", "--cores", "4,8", "--llc-mb", "12",
            "--duration", "1", "--cache-dir", str(tmp_path)]
    assert main(argv) == 0
    cold = capsys.readouterr().out.splitlines()
    assert cold[-1] == "whatif-complete: 0 cache, 2 simulated"
    assert main(argv) == 0
    warm = capsys.readouterr().out.splitlines()
    assert warm[-1] == "whatif-complete: 2 cache, 0 simulated"
    answers = [line for line in cold if line.startswith("whatif: ")]
    assert len(answers) == 2
    assert [line for line in warm if line.startswith("whatif: ")] == answers


def test_whatif_rejects_a_bad_duration(capsys):
    code = main(["whatif", "asdb", "2000", "--duration", "-1"])
    assert code == 2
    assert "duration" in capsys.readouterr().err


@pytest.mark.parametrize("argv,field", [
    ("fleet --tenants 0", "count=0"),
    ("fleet --shards 0", "FleetSpec.shards"),
    ("fleet --capacity 0", "FleetSpec.capacity_per_shard"),
    ("fleet --oversub 0", "ArrivalSpec.offered_tps"),
    ("fleet --oversub nan", "ArrivalSpec.offered_tps"),
    ("fleet --offered-tps nan", "ArrivalSpec.offered_tps"),
    ("fleet --slo-ms nan", "TenantSpec.slo_p99_ms"),
    ("fleet --autoscale --max-shards 1", "AutoscalePolicy.max_shards"),
    ("chaos --replicas 1", "ChaosConfig.replicas"),
    ("chaos --episodes -1", "ChaosConfig.episodes"),
    ("chaos --duration nan", "ChaosConfig.duration"),
    ("admission --oversub 0", "oversubscription="),
    ("admission --base-streams 0", "base_streams="),
    ("run asdb 2000 --cores 0", "logical_cores="),
    ("run asdb 2000 --llc-mb 1", "llc_mb="),
    ("run asdb 2000 --duration 0", "ExperimentConfig.duration"),
    ("run asdb 2000 --read-limit-mb 0", "read_bw_limit="),
    ("sweep cores asdb 2000 --retries -1", "retries="),
    ("sweep cores asdb 2000 --duration-scale nan", "ExperimentConfig.duration"),
    ("faults --duration 0", "StorageBrownout.duration"),
])
def test_spec_errors_exit_2_with_one_line_naming_the_field(argv, field, capsys):
    argv = argv.split()
    assert main(argv) == 2
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith(f"repro {argv[0]}: error: ")
    assert field in lines[0]
    assert captured.out == ""


@pytest.mark.parametrize("error", [
    SweepExecutionError("point 0 failed"),
    SimulationError("cannot schedule event in the past"),
    TransientIOError("injected write error"),
    SimulatedWorkerCrash("worker asked to die"),
], ids=lambda error: type(error).__name__)
def test_runtime_failures_are_not_swallowed(error, monkeypatch):
    def fail(configs, **kwargs):
        raise error

    monkeypatch.setattr("repro.cli.run_supervised", fail)
    with pytest.raises(type(error)):
        main(["sweep", "cores", "asdb", "2000", "--duration-scale", "0.1"])


def test_surrogate_commands_are_gone():
    with pytest.raises(SystemExit):
        main(["corpus", "train"])
    with pytest.raises(SystemExit):
        main(["sweep", "llc", "asdb", "2000", "--adaptive"])


def test_figure_table3_accepts_runner_flags(capsys, tmp_path):
    code = main(["figure", "table3", "--duration-scale", "0.1",
                 "--jobs", "2", "--cache-dir", str(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "Table 3" in out and "cache:" in out


def test_unknown_workload_rejected():
    with pytest.raises(SystemExit):
        main(["run", "oracle", "1"])


def test_unknown_command_rejected():
    with pytest.raises(SystemExit):
        main(["frobnicate"])


def test_report(capsys):
    code = main(["report", "--duration-scale", "0.1"])
    assert code == 0
    out = capsys.readouterr().out
    assert "Calibration report" in out
    assert "perf16/perf32" in out


def test_run_overload_flags_show_grant_counters(capsys):
    code = main(["run", "tpch", "100", "--duration", "300",
                 "--grant-timeout", "5"])
    assert code == 0
    out = capsys.readouterr().out
    assert "grant waits" in out
    assert "grant queue peak" in out


def test_run_without_protection_hides_grant_counters(capsys):
    code = main(["run", "tpch", "100", "--duration", "300"])
    assert code == 0
    assert "grant waits" not in capsys.readouterr().out


def test_run_rejects_bad_on_grant_timeout():
    with pytest.raises(SystemExit):
        main(["run", "tpch", "100", "--on-grant-timeout", "explode"])


def test_admission_sweep_reports_monotone_ok(capsys):
    code = main(["admission", "--oversub", "1,4", "--duration-scale", "0.2"])
    assert code == 0
    out = capsys.readouterr().out
    assert "admission-complete: 6 points" in out
    assert "monotone-degradation: ok" in out
    for policy in ("immediate", "serialized", "queued"):
        assert policy in out


def test_admission_single_policy(capsys):
    code = main(["admission", "--oversub", "1,4", "--duration-scale", "0.2",
                 "--admission-policy", "queued"])
    assert code == 0
    out = capsys.readouterr().out
    assert "admission-complete: 2 points" in out
    assert "immediate" not in out


def test_backends_lists_personalities(capsys):
    assert main(["backends"]) == 0
    out = capsys.readouterr().out
    for name in ("rowstore-oltp", "columnstore-dss", "elastic-serverless"):
        assert name in out


def test_run_on_columnstore_backend(capsys):
    code = main(["run", "tpch", "10", "--duration", "3",
                 "--backend", "columnstore-dss"])
    assert code == 0
    assert "on columnstore-dss" in capsys.readouterr().out


def test_run_rejects_unknown_backend():
    with pytest.raises(SystemExit):
        main(["run", "tpch", "10", "--backend", "hekaton"])


def test_chaos_quiescent_run_checks_determinism(capsys):
    code = main(["chaos", "--seed", "11", "--scenario", "none",
                 "--duration", "1"])
    assert code == 0
    out = capsys.readouterr().out
    assert "chaos-schedule: seed=11 scenario=none" in out
    assert "invariant durability: ok" in out
    assert "invariant determinism: ok" in out
    assert "chaos-complete: seed=11 ok=True" in out


def test_chaos_failover_scenario_passes_gates(capsys, tmp_path):
    journal = tmp_path / "chaos.jsonl"
    code = main(["chaos", "--seed", "1", "--scenario", "failover",
                 "--duration", "2", "--journal", str(journal)])
    assert code == 0
    out = capsys.readouterr().out
    assert "invariant durability: ok" in out
    assert "invariant availability: ok" in out
    assert "chaos-complete:" in out
    assert journal.exists()
    text = journal.read_text()
    assert '"chaos-schedule"' in text
    assert '"chaos-report"' in text


def test_chaos_rejects_unknown_scenario():
    with pytest.raises(SystemExit):
        main(["chaos", "--scenario", "meteor"])


@pytest.mark.parametrize("argv", [
    ["chaos", "--seeds", "1,x"],
    ["chaos", "--seeds", ","],
    ["chaos", "--seeds", "1,,2"],
    ["fleet", "--oversub", ","],
    ["fleet", "--oversub", "1,four"],
    ["admission", "--oversub", ","],
    ["whatif", "asdb", "2000", "--cores", ","],
    ["whatif", "asdb", "2000", "--llc-mb", "12,"],
    ["fleet", "--chaos", "meteor"],
], ids=" ".join)
def test_malformed_list_arguments_are_usage_errors(argv, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    assert "error: argument" in capsys.readouterr().err


def test_chaos_seed_and_seeds_are_one_option(capsys):
    assert main(["chaos", "--seed", "11,12", "--seeds", "13", "--scenario",
                 "none", "--duration", "0.5"]) == 0
    out = capsys.readouterr().out
    assert "chaos-complete: seed=13 ok=True" in out
    assert "seed=11" not in out


def test_seed_list_runs_every_seed(capsys):
    code = main(["chaos", "--seeds", "11, 12", "--scenario", "none",
                 "--duration", "0.5"])
    assert code == 0
    out = capsys.readouterr().out
    assert "chaos-complete: seed=11 ok=True" in out
    assert "chaos-complete: seed=12 ok=True" in out
