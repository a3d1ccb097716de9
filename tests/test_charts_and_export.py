"""ASCII charts, JSON export, and related CLI surfaces."""

import json

import pytest

from repro.analysis.charts import bar_chart, series_chart
from repro.experiments.base import ExperimentResult
from repro.experiments.runner import run_points
from repro.orchestrator.points import make_point


def _result():
    return ExperimentResult(
        experiment_id="demo", title="Demo",
        columns=["app", "slowdown"],
        rows=[["gcc", 1.02], ["rb", 1.10], ["lbm", 1.04]],
        summary={"gmean": 1.05}, notes="n")


class TestBarChart:
    def test_contains_every_row(self):
        text = bar_chart(_result())
        for label in ("gcc", "rb", "lbm"):
            assert label in text

    def test_longest_bar_is_the_largest_value(self):
        lines = bar_chart(_result()).splitlines()
        bars = {line.split()[0]: line.count("#") for line in lines
                if "|" in line}
        assert bars["rb"] == max(bars.values())
        assert bars["rb"] > bars["gcc"]

    def test_baseline_anchoring(self):
        anchored = bar_chart(_result(), baseline=1.0)
        raw = bar_chart(_result(), baseline=None)
        assert "value - 1" in anchored
        assert "value -" not in raw

    def test_non_numeric_rows_skipped(self):
        result = ExperimentResult("x", "t", ["a", "b"],
                                  rows=[["r", "yes"]])
        assert "no numeric rows" in bar_chart(result)

    def test_series_chart_alias(self):
        assert "demo" in series_chart(_result())


class TestJsonExport:
    def test_experiment_result_round_trips_through_json(self):
        result = _result()
        blob = json.dumps(result.to_dict())
        parsed = json.loads(blob)
        assert parsed["experiment_id"] == "demo"
        assert parsed["rows"][1] == ["rb", 1.10]
        assert parsed["summary"]["gmean"] == 1.05

    def test_core_stats_summary_is_json_serializable(self):
        stats = run_points([make_point("gcc", "ppa", length=2_000)])[0]
        digest = stats.to_summary_dict()
        blob = json.dumps(digest)
        parsed = json.loads(blob)
        assert parsed["scheme"] == "ppa"
        assert parsed["instructions"] == 2_000
        assert parsed["regions"] == len(stats.regions)
        assert parsed["ipc"] == pytest.approx(stats.ipc)

    def test_summary_excludes_bulk_logs(self):
        stats = run_points([make_point("gcc", "ppa", length=2_000)])[0]
        digest = stats.to_summary_dict()
        assert "commit_times" not in digest
        assert isinstance(digest["stores"], int)


class TestCliChartFlag:
    def test_chart_flag_renders_bars(self, capsys, monkeypatch, tmp_path):
        from repro.experiments.__main__ import main
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        assert main(["fig13", "--length", "1200", "--apps", "gcc",
                     "--chart"]) == 0
        out = capsys.readouterr().out
        assert "|" in out and "#" in out
