"""The top-level command-line interface."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.__main__ import main

_SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture
def spec_file(tmp_path):
    path = tmp_path / "cluster.json"
    assert main(["make-spec", "central", "--rdisk-scv", "10", "-o", str(path)]) == 0
    return path


class TestMakeSpec:
    def test_writes_valid_json(self, spec_file):
        data = json.loads(spec_file.read_text())
        assert len(data["stations"]) == 4
        names = [s["name"] for s in data["stations"]]
        assert names == ["cpu", "disk", "comm", "rdisk"]

    def test_stdout_mode(self, capsys):
        assert main(["make-spec", "central"]) == 0
        out = capsys.readouterr().out
        assert json.loads(out)["format_version"] == 1

    def test_distributed(self, tmp_path, capsys):
        assert main(["make-spec", "distributed", "-K", "3"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert len(data["stations"]) == 5  # cpu + 3 disks + comm

    def test_cpu_scv_flag(self, capsys):
        assert main(["make-spec", "central", "--cpu-scv", "0.5"]) == 0
        data = json.loads(capsys.readouterr().out)
        cpu = data["stations"][0]
        assert len(cpu["dist"]["rates"]) == 2  # Erlang-2


class TestDescribe:
    def test_output(self, spec_file, capsys):
        assert main(["describe", str(spec_file)]) == 0
        out = capsys.readouterr().out
        assert "4 stations" in out
        assert "rdisk" in out


class TestReport:
    def test_fast_report(self, spec_file, capsys):
        assert main(
            ["report", str(spec_file), "-K", "4", "-N", "12", "--no-distribution"]
        ) == 0
        out = capsys.readouterr().out
        assert "mean makespan" in out
        assert "bottleneck" in out


class TestValidate:
    def test_pass_exit_code(self, spec_file, capsys):
        rc = main(
            ["validate", str(spec_file), "-K", "3", "-N", "8", "--reps", "400"]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "PASS" in out


class TestExperimentPassthrough:
    def test_runs_figure(self, capsys):
        assert main(["experiment", "fig12"]) == 0
        assert "fig12" in capsys.readouterr().out


class TestSweepWorker:
    def test_requires_shard_dir(self, capsys):
        assert main(["sweep-worker", "fig12"]) == 2
        assert "--shard-dir" in capsys.readouterr().err

    def test_joins_namespace_and_leaves_segments(self, tmp_path, capsys):
        ns = tmp_path / "ns"
        rc = main([
            "sweep-worker", "fig12", "--shard-dir", str(ns),
            "--worker-id", "cli-w0", "--lease-ttl", "30",
            "--report-json", str(tmp_path / "report.json"),
        ])
        assert rc == 0
        err = capsys.readouterr().err
        assert "sweep fig12" in err
        assert (ns / "shard.json").exists()
        segments = list((ns / "segments").glob("fig12.cli-w0.seg.jsonl"))
        assert len(segments) == 1
        doc = json.loads((tmp_path / "report.json").read_text())
        (report,) = doc["reports"]
        assert report["schema"] == "repro-sweep-report/3"
        assert report["complete"] and report["exit_code"] == 0
        assert all(p["owner"] == "cli-w0" for p in report["points"])
        # /2: per-point wall seconds plus aggregate latency percentiles.
        assert all(p["seconds"] > 0.0 for p in report["points"])
        lat = report["latency"]
        assert lat["count"] == report["total"]
        assert 0.0 < lat["p50"] <= lat["p95"] <= lat["p99"] <= lat["max"]

        # A second worker resumes everything from the merged segments.
        rc = main([
            "sweep-worker", "fig12", "--shard-dir", str(ns),
            "--worker-id", "cli-w1",
        ])
        assert rc == 0
        assert f"resumed={report['total']}" in capsys.readouterr().err

    def test_checkpoint_gc_merges_segments(self, tmp_path, capsys):
        ns = tmp_path / "ns"
        assert main([
            "sweep-worker", "fig12", "--shard-dir", str(ns),
            "--worker-id", "cli-w0",
        ]) == 0
        capsys.readouterr()
        assert main([
            "sweep-worker", "fig12", "--shard-dir", str(ns),
            "--checkpoint-gc",
        ]) == 0
        assert "shard gc fig12" in capsys.readouterr().err
        merged = list((ns / "segments").glob("*.seg.jsonl"))
        assert [p.name for p in merged] == ["fig12.merged.seg.jsonl"]


class TestExperimentReportJson:
    def test_report_json_for_plain_sweep(self, tmp_path, capsys):
        path = tmp_path / "report.json"
        assert main([
            "experiment", "fig12", "--report-json", str(path),
        ]) == 0
        doc = json.loads(path.read_text())
        (report,) = doc["reports"]
        assert report["exit_code"] == 0
        assert report["counts"]["ok"] == report["total"]


class TestSweepFlagValidation:
    def test_timeout_with_shard_dir_bounds_each_attempt(self, tmp_path,
                                                         capsys):
        rc = main(["sweep-worker", "fig12", "--shard-dir",
                   str(tmp_path / "ns"), "--timeout", "1",
                   "--drill", "hang@1"])
        assert rc == 1
        err = capsys.readouterr().err
        assert "retried=1" in err
        assert "attempt 1: timeout" in err

    def test_hang_drill_without_timeout_is_a_parser_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["experiment", "fig12", "--drill", "hang@1"])
        assert exc.value.code == 2
        assert "requires --timeout" in capsys.readouterr().err

    def test_claim_drill_without_shard_dir_is_a_parser_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["experiment", "fig12", "--drill", "die-after-claim@1"])
        assert exc.value.code == 2
        assert "requires --shard-dir" in capsys.readouterr().err

    def test_bad_drill_is_a_parser_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["experiment", "fig12", "--drill", "crash@x"])
        assert exc.value.code == 2
        assert "--drill" in capsys.readouterr().err

    def test_launcher_drills_its_first_child_only(self, tmp_path):
        # The drilled helper dies holding a lease; the launching process
        # must survive, steal the orphaned point and finish the sweep.
        # Run in a subprocess: a drilled launcher would SIGKILL the test
        # runner.
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "experiment", "fig12",
             "--shard-dir", str(tmp_path / "ns"), "--jobs", "2",
             "--lease-ttl", "1", "--drill", "die-after-claim@1"],
            capture_output=True, text=True, timeout=300,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(
                [str(_SRC), os.environ.get("PYTHONPATH", "")])},
        )
        assert proc.returncode == 1, proc.stderr
        assert "stolen=1" in proc.stderr
