"""CLI surface tests: ``--version``, the shared JSON schema path,
``serve`` registration and ``python -m repro`` delegation."""

import json
import subprocess
import sys

import pytest

import repro
from repro import runtime
from repro.experiments import cli, platform
from repro.experiments.platform import measure_campaign
from repro.npb import EPBenchmark, ProblemClass
from repro.reporting import jsonify
from repro.runtime.metrics import MAX_RECORDS
from repro.service.protocol import parse_grid_key


@pytest.fixture(autouse=True)
def isolated_runtime(tmp_path):
    runtime.configure(jobs=None, disk_cache=None, cache_dir=tmp_path)
    platform._CACHE.clear()
    runtime.reset_campaign_metrics()
    yield
    runtime.configure(jobs=None, disk_cache=None, cache_dir=None)
    platform._CACHE.clear()
    runtime.reset_campaign_metrics()


class TestVersion:
    def test_version_flag_prints_and_exits(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["--version"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        assert repro.__version__ in out
        assert "repro-experiments" in out

    def test_module_entry_point_reports_version(self):
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "--version"],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 0
        assert repro.__version__ in proc.stdout


class TestList:
    def test_list_prints_experiments(self, capsys):
        assert cli.main(["list"]) == 0
        out = capsys.readouterr().out
        assert "table3" in out


class TestCampaignJson:
    def test_campaign_json_uses_shared_schema(self, tmp_path, capsys):
        out_path = tmp_path / "ep.json"
        status = cli.main(
            [
                "campaign",
                "ep",
                "--class",
                "S",
                "--counts",
                "1,2",
                "--frequencies",
                "600,800",
                "--json",
                str(out_path),
            ]
        )
        assert status == 0
        document = json.loads(out_path.read_text())
        assert document["benchmark"] == "ep"
        assert document["class"] == "S"
        campaign = measure_campaign(
            EPBenchmark(ProblemClass.S), (1, 2), (600e6, 800e6)
        )
        times = {
            parse_grid_key(k): v
            for k, v in document["data"]["times"].items()
        }
        assert times == campaign.times
        # Grid keys render as "N@fMHz" strings.
        assert "1@600MHz" in document["data"]["times"]
        # The command reports the runtime summary line.
        assert "[campaign runtime]" in capsys.readouterr().out

    def test_jsonify_helper_delegates_to_reporting(self):
        value = {"times": {(2, 600e6): 1.5}}
        assert cli._jsonify(value) == jsonify(value)

    def test_unknown_benchmark_fails(self, capsys):
        assert cli.main(["campaign", "nope"]) == 2
        assert "unknown benchmark" in capsys.readouterr().err


class TestServeRegistration:
    def test_serve_help_registered(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["serve", "--help"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        assert "--port" in out
        assert "--warmup" in out
        assert "--allow-faults" in out


class TestGovern:
    def test_table_rows_and_json(self, tmp_path, capsys):
        out_path = tmp_path / "trace.json"
        status = cli.main(
            [
                "govern",
                "ft",
                "--class",
                "S",
                "--ranks",
                "4",
                "--policy",
                "model_predictive",
                "--scenario",
                "cluster_cap",
                "--seed",
                "3",
                "--json",
                str(out_path),
            ]
        )
        assert status == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[:8] == [
            "FT class S at N=4, cap 'cluster_cap' (7 epochs)",
            "          policy  time [s]  energy [J]  EDP [J*s]  transitions",
            "----------------  --------  ----------  ---------  -----------",
            "          static     1.363       156.5      213.3            0",
            "model_predictive     1.543       123.4      190.4            4",
            "",
            "EDP vs static baseline: 0.892  (trace digest ffec3e97141c42b8)",
            f"[decision trace written to {out_path}]",
        ]
        document = json.loads(out_path.read_text())
        assert list(document) == ["baseline", "edp_ratio_vs_static", "trace"]
        assert list(document["baseline"]) == [
            "elapsed_s",
            "energy_j",
            "edp_j_s",
        ]
        trace = document["trace"]
        assert trace["policy"] == "model_predictive"
        assert trace["cap"]["label"] == "cluster_cap"
        assert trace["seed"] == 3
        assert f"{document['edp_ratio_vs_static']:.3f}" == "0.892"

    def test_custom_watt_budget(self, capsys):
        status = cli.main(
            [
                "govern",
                "ep",
                "--class",
                "S",
                "--ranks",
                "2",
                "--policy",
                "static",
                "--node-cap-w",
                "26",
            ]
        )
        assert status == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "EP class S at N=2, cap 'custom' (2 epochs)"
        assert lines[3] == "static     5.668       291.9     1654.5            0"

    def test_unknown_scenario_exits_2(self, capsys):
        assert cli.main(["govern", "ep", "--scenario", "brownout"]) == 2
        assert "unknown cap scenario 'brownout'" in capsys.readouterr().err


class TestOptimize:
    def test_table_rows_and_json(self, tmp_path, capsys):
        out_path = tmp_path / "winner.json"
        status = cli.main(
            [
                "optimize",
                "ep",
                "--class",
                "S",
                "--counts",
                "1,2,4",
                "--objective",
                "edp",
                "--scenario",
                "cluster_cap",
                "--no-confirm",
                "--top",
                "3",
                "--json",
                str(out_path),
            ]
        )
        assert status == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[:10] == [
            "EP class S: top 3 of 42 feasible configs by edp, "
            "cap 'cluster_cap'",
            "     platform  N  f [MHz]  time [s]  energy [J]  EDP [J*s]"
            "  mean [W]",
            "-------------  -  -------  --------  ----------  ---------"
            "  --------",
            "  hetero-2gen  4     1200     2.365       287.4      679.6"
            "     121.5",
            "        paper  4     1200     2.365       287.4      679.6"
            "     121.5",
            "paper-memwall  4     1200     2.365       287.5      679.9"
            "     121.5",
            "",
            "winner: hetero-2gen at N=4, f=1200 MHz (edp = 679.6)",
            "[3 candidates over cap, 0 cells skipped]",
            f"[optimizer result written to {out_path}]",
        ]
        document = json.loads(out_path.read_text())
        assert list(document) == [
            "benchmark",
            "class",
            "objective",
            "cap",
            "platforms",
            "counts",
            "winner",
            "candidates",
            "skipped",
            "confirmation",
        ]
        assert document["counts"] == [1, 2, 4]
        assert document["confirmation"] is None

    def test_custom_watt_budget(self, capsys):
        status = cli.main(
            [
                "optimize",
                "ep",
                "--class",
                "S",
                "--platforms",
                "paper",
                "--counts",
                "1,2",
                "--node-cap-w",
                "26",
                "--no-confirm",
                "--top",
                "2",
            ]
        )
        assert status == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == (
            "EP class S: top 2 of 6 feasible configs by energy, cap 'custom'"
        )
        assert lines[3] == (
            "   paper  1     1000    11.329       291.7     3305.2      25.8"
        )

    def test_unknown_scenario_exits_2(self, capsys):
        assert cli.main(["optimize", "ep", "--scenario", "brownout"]) == 2
        assert "unknown cap scenario 'brownout'" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["campaign", "optimize"])
def test_malformed_counts_exit_2(command, capsys):
    with pytest.raises(SystemExit) as excinfo:
        cli.main([command, "ep", "--counts", "1,x"])
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert "--counts" in err
    assert "Traceback" not in err


def test_failure_lines_survive_the_record_ring(capsys):
    failure = {"cell": [2, 600e6], "error": "InjectedFaultError: boom"}
    runtime.METRICS.record(
        runtime.CampaignRecord(
            label="ep.S",
            source="simulated",
            cells=2,
            wall_s=0.0,
            failed_cells=1,
            failures=(failure,),
        )
    )
    for _ in range(MAX_RECORDS + 1):
        runtime.METRICS.record(
            runtime.CampaignRecord(
                label="ft.S", source="memory", cells=2, wall_s=0.0
            )
        )
    cli._print_runtime_stats()
    out = capsys.readouterr().out
    assert f"{MAX_RECORDS + 2} campaigns" in out
    assert (
        "[campaign runtime] ep.S: FAILED cell (n=2, f=600 MHz): "
        "InjectedFaultError: boom"
    ) in out


def test_malformed_setting_exits_2_naming_the_variable(monkeypatch, capsys):
    monkeypatch.setenv("REPRO_JOBS", "abc")
    try:
        with pytest.raises(SystemExit) as excinfo:
            cli.main(
                ["run", "table3", "--backend", "analytic", "--no-disk-cache"]
            )
    finally:
        runtime.configure(backend=None, disk_cache=None)
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert "REPRO_JOBS" in err
    assert "Traceback" not in err
