"""Trajectory diffing: compare flags exactly what changed, gate exits
nonzero on it."""

import json

import pytest

from repro.bench.compare import (
    DEFAULT_THRESHOLD,
    best_artifact,
    compare_reports,
)
from repro.bench.fingerprint import EnvFingerprint
from repro.bench.harness import BenchReport, BenchResult


def _fingerprint() -> EnvFingerprint:
    return EnvFingerprint(
        python="3.11.7", implementation="cpython", platform="linux",
        machine="x86_64", processor="", cpu_count=1,
        source_hash="0123456789abcdef", git_sha="abc1234")


def _result(name: str, wall: float, cycles: float = 1000.0,
            instructions: int = 500,
            deterministic: bool = True) -> BenchResult:
    return BenchResult(name=name, group="simulate", description="",
                       wall_clocks=[wall, wall * 1.05], cycles=cycles,
                       instructions=instructions,
                       deterministic=deterministic)


def _report(results: list[BenchResult],
            suite: str = "quick") -> BenchReport:
    return BenchReport(suite=suite, repetitions=2, warmup=1,
                       fingerprint=_fingerprint(), results=results,
                       created="2026-08-05T00:00:00Z")


class TestCompare:
    def test_identical_reports_are_ok(self):
        base = _report([_result("a", 1.0), _result("b", 2.0)])
        new = _report([_result("a", 1.0), _result("b", 2.0)])
        report = compare_reports(base, new)
        assert report.ok
        assert not report.regressions and not report.drifted
        assert [d.ratio for d in report.deltas] == [1.0, 1.0]

    def test_synthetic_2x_slowdown_flags_exactly_that_benchmark(self):
        """The ISSUE acceptance check: double one benchmark's wall-clock
        and only that one is flagged."""
        names = ["a", "b", "c", "d"]
        base = _report([_result(n, 1.0) for n in names])
        new = _report([_result(n, 2.0 if n == "c" else 1.0)
                       for n in names])
        report = compare_reports(base, new, threshold=DEFAULT_THRESHOLD)
        assert [d.name for d in report.regressions] == ["c"]
        assert not report.ok
        assert not report.drifted
        assert "REGRESSION" in report.to_text()

    def test_improvement_flagged_but_passes_gate(self):
        base = _report([_result("a", 2.0)])
        new = _report([_result("a", 0.5)])
        report = compare_reports(base, new)
        assert report.ok
        assert [d.name for d in report.improvements] == ["a"]

    def test_noise_within_threshold_ignored(self):
        base = _report([_result("a", 1.0)])
        new = _report([_result("a", 1.2)])
        report = compare_reports(base, new, threshold=0.25)
        assert report.ok and not report.regressions

    def test_model_drift_fails_regardless_of_timing(self):
        """Changed simulated counts fail the gate even with identical
        wall-clock — timing noise can't explain them."""
        base = _report([_result("a", 1.0, cycles=1000.0)])
        new = _report([_result("a", 1.0, cycles=1001.0)])
        report = compare_reports(base, new)
        assert not report.ok
        assert [d.name for d in report.drifted] == ["a"]
        assert "MODEL-DRIFT" in report.to_text()

        base = _report([_result("a", 1.0, instructions=500)])
        new = _report([_result("a", 1.0, instructions=501)])
        assert not compare_reports(base, new).ok

    def test_nondeterministic_new_result_is_drift(self):
        base = _report([_result("a", 1.0)])
        new = _report([_result("a", 1.0, deterministic=False)])
        assert compare_reports(base, new).drifted

    def test_missing_benchmarks_reported(self):
        base = _report([_result("a", 1.0), _result("gone", 1.0)])
        new = _report([_result("a", 1.0), _result("added", 1.0)])
        report = compare_reports(base, new)
        assert report.only_in_base == ["gone"]
        assert report.only_in_new == ["added"]
        assert report.ok  # membership changes inform, they don't gate

    def test_to_dict_round_trips_through_json(self):
        base = _report([_result("a", 1.0)])
        new = _report([_result("a", 3.0)])
        data = json.loads(json.dumps(compare_reports(base, new).to_dict()))
        assert data["ok"] is False
        assert data["deltas"][0]["ratio"] == 3.0


class TestBestArtifact:
    def test_other_suite_never_picked(self, tmp_path):
        """A faster artifact of another suite measures other benchmarks;
        the base must be the best artifact of the new report's suite."""
        _report([_result("a", 2.0)]).write(tmp_path / "BENCH_1_slow.json")
        _report([_result("a", 1.0)]).write(tmp_path / "BENCH_2_fast.json")
        _report([_result("x", 0.01, instructions=10**6)],
                suite="batched").write(tmp_path / "BENCH_3_other.json")
        assert best_artifact(tmp_path, "quick").name == "BENCH_2_fast.json"
        assert best_artifact(tmp_path, "batched").name == \
            "BENCH_3_other.json"

    def test_new_report_in_directory_never_its_own_base(self, tmp_path):
        _report([_result("a", 2.0)]).write(tmp_path / "BENCH_1_old.json")
        new = tmp_path / "BENCH_2_new.json"
        _report([_result("a", 1.0)]).write(new)
        assert best_artifact(tmp_path, "quick", exclude=new).name == \
            "BENCH_1_old.json"

    def test_no_same_suite_artifact_raises(self, tmp_path):
        _report([_result("a", 1.0)]).write(tmp_path / "BENCH_1.json")
        with pytest.raises(FileNotFoundError, match="suite 'smoke'"):
            best_artifact(tmp_path, "smoke")


class TestGateCli:
    def _write(self, tmp_path, name, results, suite="quick"):
        path = tmp_path / name
        _report(results, suite=suite).write(path)
        return str(path)

    @pytest.fixture
    def pair(self, tmp_path):
        base = self._write(tmp_path, "base.json",
                           [_result("a", 1.0), _result("b", 1.0)])
        new = self._write(tmp_path, "new.json",
                          [_result("a", 1.0), _result("b", 2.0)])
        return base, new

    def test_gate_fails_on_regression(self, pair, capsys):
        from repro.bench.__main__ import main

        assert main(["gate", *pair]) == 1
        assert "REGRESSION" in capsys.readouterr().out

    def test_gate_warn_only_passes(self, pair, capsys):
        from repro.bench.__main__ import main

        assert main(["gate", *pair, "--warn-only"]) == 0
        assert "downgraded to warning" in capsys.readouterr().out

    def test_gate_passes_with_loose_threshold(self, pair):
        from repro.bench.__main__ import main

        assert main(["gate", *pair, "--threshold", "1.5"]) == 0

    def test_compare_json_output(self, pair, capsys):
        from repro.bench.__main__ import main

        assert main(["compare", *pair, "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["ok"] is False
        assert [d["name"] for d in data["deltas"]
                if d["regressed"]] == ["b"]

    def test_gate_fails_when_nothing_compared(self, tmp_path, capsys):
        from repro.bench.__main__ import main

        base = self._write(tmp_path, "base.json", [_result("a", 1.0)])
        new = self._write(tmp_path, "new.json", [_result("b", 1.0)])
        assert main(["gate", base, new, "--threshold", "1.0"]) == 2
        assert "share no benchmark" in capsys.readouterr().err

    def test_gate_fails_without_same_suite_base(self, tmp_path, capsys):
        from repro.bench.__main__ import main

        self._write(tmp_path, "BENCH_1.json", [_result("a", 1.0)],
                    suite="batched")
        new = self._write(tmp_path, "new.json", [_result("a", 1.0)])
        assert main(["gate", str(tmp_path), new]) == 2
        err = capsys.readouterr().err
        assert "no BENCH_*.json artifact of suite 'quick'" in err
        assert "Traceback" not in err

    def test_gate_against_directory_uses_same_suite(self, tmp_path,
                                                     capsys):
        from repro.bench.__main__ import main

        self._write(tmp_path, "BENCH_1.json", [_result("a", 1.0)])
        self._write(tmp_path, "BENCH_2.json",
                    [_result("x", 0.01, instructions=10**6)],
                    suite="batched")
        new = self._write(tmp_path, "new.json", [_result("a", 1.0)])
        assert main(["gate", str(tmp_path), new]) == 0
        assert "BENCH_1.json" in capsys.readouterr().out
