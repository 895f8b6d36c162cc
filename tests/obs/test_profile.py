"""Profiling driver and BENCH_transient.json round-trip/validation."""

import json

import pytest

from repro.clusters import central_cluster
from repro.experiments.params import BASE_APP
from repro.obs.profile import (
    BENCH_SCHEMA,
    profile_spec,
    validate_bench,
    write_bench,
)


@pytest.fixture(scope="module")
def result():
    spec = central_cluster(BASE_APP)
    return profile_spec(spec, 3, 8, repeats=2, name="tiny", measure_rss=False)


class TestProfileSpec:
    def test_run_bookkeeping(self, result):
        assert result.repeats == 2
        assert len(result.run_walls) == 2
        assert result.makespan > 0
        assert result.level_dims[0] == 1 and len(result.level_dims) == 4

    def test_coverage_near_one(self, result):
        # The root span brackets the whole solve; only the perf_counter
        # bookkeeping itself is outside it.
        assert 0.9 <= result.coverage <= 1.0 + 1e-9

    def test_stage_rows_sorted_by_self_time(self, result):
        rows = result.stage_rows()
        assert [r["stage"] for r in rows]  # nonempty
        selfs = [r["self"] for r in rows]
        assert selfs == sorted(selfs, reverse=True)

    def test_format_table_mentions_totals(self, result):
        table = result.format_table()
        assert "span total" in table
        assert "end-to-end wall" in table
        assert "D(K)=" in table

    def test_repeats_validation(self):
        with pytest.raises(ValueError, match="repeats"):
            profile_spec(central_cluster(BASE_APP), 2, 4, repeats=0)

    def test_artifacts_written(self, result, tmp_path):
        paths = result.write_artifacts(
            trace_path=tmp_path / "t.jsonl",
            metrics_path=tmp_path / "m.prom",
            metrics_json_path=tmp_path / "m.json",
        )
        assert len(paths) == 3
        first = json.loads((tmp_path / "t.jsonl").read_text().splitlines()[0])
        assert first["name"] == "profile_run"
        assert "# TYPE repro_epochs_solved_total counter" in (
            tmp_path / "m.prom"
        ).read_text()
        json.loads((tmp_path / "m.json").read_text())


class TestBenchFile:
    def test_write_and_validate(self, result, tmp_path):
        path = write_bench(tmp_path / "BENCH_transient.json",
                           [result.bench_record()])
        doc = validate_bench(path)
        assert doc["schema"] == BENCH_SCHEMA
        (w,) = doc["workloads"]
        assert w["name"] == "tiny"
        assert w["wall_seconds"]["median"] > 0
        assert "epoch" in w["stages"]

    def test_merge_replaces_same_name(self, result, tmp_path):
        path = tmp_path / "b.json"
        write_bench(path, [result.bench_record()])
        rec = dict(result.bench_record(), makespan=1.0)
        doc = validate_bench(write_bench(path, [rec]))
        (w,) = doc["workloads"]
        assert w["makespan"] == 1.0

    def test_merge_preserves_other_names(self, result, tmp_path):
        path = tmp_path / "b.json"
        write_bench(path, [result.bench_record()])
        other = dict(result.bench_record(), name="other")
        doc = validate_bench(write_bench(path, [other]))
        assert {w["name"] for w in doc["workloads"]} == {"tiny", "other"}


class TestValidateBench:
    def test_missing_file(self, tmp_path):
        with pytest.raises(ValueError, match="missing"):
            validate_bench(tmp_path / "nope.json")

    def test_bad_json(self, tmp_path):
        p = tmp_path / "b.json"
        p.write_text("{not json")
        with pytest.raises(ValueError, match="not valid JSON"):
            validate_bench(p)

    def test_wrong_schema(self, tmp_path):
        p = tmp_path / "b.json"
        p.write_text(json.dumps({"schema": "other/9", "workloads": [{}]}))
        with pytest.raises(ValueError, match="schema"):
            validate_bench(p)

    def test_empty_workloads(self, tmp_path):
        p = tmp_path / "b.json"
        p.write_text(json.dumps({"schema": BENCH_SCHEMA, "workloads": []}))
        with pytest.raises(ValueError, match="no workloads"):
            validate_bench(p)

    def test_missing_key(self, tmp_path):
        p = tmp_path / "b.json"
        p.write_text(json.dumps({
            "schema": BENCH_SCHEMA,
            "workloads": [{"name": "x", "K": 1, "N": 1}],
        }))
        with pytest.raises(ValueError, match="missing 'repeats'"):
            validate_bench(p)

    def test_nonpositive_wall(self, tmp_path):
        p = tmp_path / "b.json"
        p.write_text(json.dumps({
            "schema": BENCH_SCHEMA,
            "workloads": [{
                "name": "x", "K": 1, "N": 1, "repeats": 1,
                "wall_seconds": {"median": 0.0}, "stages": {},
            }],
        }))
        with pytest.raises(ValueError, match="nonpositive"):
            validate_bench(p)


class TestReportArtifact:
    def test_report_json_written_even_without_sweeps(self, result, tmp_path):
        (path,) = result.write_artifacts(report_json_path=tmp_path / "r.json")
        doc = json.loads(path.read_text())
        assert doc == {"reports": []}

    def test_report_json_serializes_attached_reports(self, result, tmp_path):
        from repro.experiments.executor import PointOutcome, SweepReport

        report = SweepReport(label="probe", total=1)
        report.points.append(PointOutcome(index=0, status="ok", attempts=1))
        result.sweep_reports.append(report)
        try:
            result.write_artifacts(report_json_path=tmp_path / "r.json")
        finally:
            result.sweep_reports.clear()
        doc = json.loads((tmp_path / "r.json").read_text())
        (entry,) = doc["reports"]
        assert entry["schema"] == "repro-sweep-report/3"
        assert entry["label"] == "probe"
        assert entry["points"][0]["status"] == "ok"
