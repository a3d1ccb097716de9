"""The reproduction digest and the command-line entry points."""

import pytest

from repro.analysis.report import (
    PAPER_EXPECTATIONS,
    grade,
    render_digest,
)
from repro.experiments.base import ExperimentResult


def _result(experiment_id, summary):
    return ExperimentResult(experiment_id=experiment_id, title="t",
                            columns=["c"], rows=[], summary=summary)


class TestDigest:
    def test_expectations_reference_real_experiments(self):
        from repro.experiments.registry import all_experiments
        known = set(all_experiments())
        for expectation in PAPER_EXPECTATIONS:
            assert expectation.experiment_id in known

    def test_grade_passes_good_summary(self):
        results = {"fig8": _result("fig8", {"ppa_gmean": 1.03,
                                            "capri_gmean": 1.25})}
        lines = grade(results)
        assert len(lines) == 2
        assert all(line.holds for line in lines)

    def test_grade_fails_bad_summary(self):
        results = {"fig8": _result("fig8", {"ppa_gmean": 1.50,
                                            "capri_gmean": 1.51})}
        lines = grade(results)
        assert not lines[0].holds

    def test_missing_summary_key_is_a_failure(self):
        results = {"fig8": _result("fig8", {})}
        assert not any(line.holds for line in grade(results))

    def test_missing_results_are_skipped(self):
        assert grade({}) == []

    def test_render_counts(self):
        results = {"fig14": _result("fig14", {"gmean": 1.02})}
        text = render_digest(grade(results))
        assert "1/1 claims hold" in text
        assert "[OK " in text

    def test_digest_against_recorded_bench_results(self):
        """If the benchmark suite has produced results, they must satisfy
        the paper expectations (same checks the benches assert)."""
        import pathlib
        results_dir = pathlib.Path(__file__).parent.parent / \
            "benchmarks" / "results"
        if not (results_dir / "fig8.txt").exists():
            pytest.skip("benchmark results not generated yet")
        text = (results_dir / "fig8.txt").read_text()
        assert "ppa" in text


class TestExperimentsCli:
    @pytest.fixture(autouse=True)
    def _private_cache(self, monkeypatch, tmp_path):
        """The CLI caches under $REPRO_CACHE_DIR; keep it off ~/.cache."""
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))

    def test_list(self, capsys):
        from repro.experiments.__main__ import main
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig8" in out and "tab5" in out

    def test_run_table(self, capsys):
        from repro.experiments.__main__ import main
        assert main(["tab4"]) == 0
        assert "LCPC" in capsys.readouterr().out

    def test_run_figure_with_args(self, capsys):
        from repro.experiments.__main__ import main
        assert main(["fig13", "--length", "1500", "--apps", "gcc"]) == 0
        assert "gcc" in capsys.readouterr().out

    def test_unknown_experiment_raises(self, capsys):
        from repro.experiments.__main__ import main
        assert main(["fig99"]) == 2
        err = capsys.readouterr().err
        assert "unknown experiment 'fig99'" in err
        assert len(err.strip().splitlines()) == 1

    def test_unknown_app_exits_cleanly(self, capsys):
        from repro.experiments.__main__ import main
        assert main(["fig16", "--apps", "nosuchapp"]) == 2
        err = capsys.readouterr().err
        assert err.strip() == "unknown workload 'nosuchapp'"

    @pytest.mark.parametrize("argv,message", [
        (["fig16", "--length", "0", "--apps", "rb"],
         "--length must be at least 1 instruction (got 0)"),
        (["fig19", "--length", "-5"],
         "--length must be at least 1 instruction (got -5)"),
    ])
    def test_bad_length_exits_cleanly(self, argv, message, capsys):
        from repro.experiments.__main__ import main
        assert main(argv) == 2
        assert capsys.readouterr().err.strip() == message

    def test_figure_reports_its_campaign_points(self, capsys):
        from repro.experiments.__main__ import main
        argv = ["fig15", "--length", "1000", "--apps", "rb"]
        assert main(argv) == 0
        assert "L2 0 hit / 6 miss, 6 simulated" in capsys.readouterr().out
        assert main(argv) == 0
        assert "L2 6 hit / 0 miss, 0 simulated" in capsys.readouterr().out


class TestWorkloadsCli:
    def test_inventory(self, capsys):
        from repro.workloads.__main__ import main
        assert main([]) == 0
        out = capsys.readouterr().out
        assert "41 applications" in out

    def test_suite_filter(self, capsys):
        from repro.workloads.__main__ import main
        assert main(["--suite", "WHISPER"]) == 0
        out = capsys.readouterr().out
        assert "7 applications in WHISPER" in out

    def test_detail(self, capsys):
        from repro.workloads.__main__ import main
        assert main(["lbm"]) == 0
        out = capsys.readouterr().out
        assert "memory regions" in out and "stream" in out


class TestActualCheckpointCost:
    def test_actual_under_worst_case(self):
        from repro.core.processor import PersistentProcessor
        from repro.workloads.profiles import profile_by_name
        from repro.workloads.synthetic import generate_trace

        processor = PersistentProcessor()
        trace = generate_trace(profile_by_name("gcc"), length=2_000)
        stats = processor.run(trace)
        crash = processor.crash_at(stats.cycles * 0.5)
        cost = processor.controller.actual_cost(crash.checkpoint)
        assert cost.bytes_total <= cost.worst_case_bytes
        assert 0.0 < cost.utilization <= 1.0
        assert cost.energy_uj < 22.0
