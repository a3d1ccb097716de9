"""The bench harness: fingerprint, determinism, artifacts, CLI, and the
zero-overhead import guard."""

import json
import subprocess
import sys

import pytest

from repro.bench.fingerprint import EnvFingerprint, collect_fingerprint
from repro.bench.harness import (
    BENCH_SCHEMA,
    BenchReport,
    BenchResult,
    artifact_name,
    load_report,
    run_benchmark,
    run_suite,
)
from repro.bench.suite import SUITES, Benchmark, suite_benchmarks


class TestFingerprint:
    def test_collect_and_round_trip(self):
        fingerprint = collect_fingerprint()
        assert fingerprint.python.count(".") == 2
        assert fingerprint.cpu_count >= 1
        assert len(fingerprint.source_hash) == 16
        restored = EnvFingerprint.from_dict(
            json.loads(json.dumps(fingerprint.to_dict())))
        assert restored == fingerprint

    def test_source_hash_is_the_cache_salt(self):
        from repro.orchestrator.cache import code_salt

        assert collect_fingerprint().source_hash == code_salt()

    def test_short_sha_falls_back_to_source_hash(self):
        fingerprint = EnvFingerprint(
            python="3.12.0", implementation="cpython", platform="linux",
            machine="x86_64", processor="", cpu_count=1,
            source_hash="abcdef0123456789", git_sha=None)
        assert fingerprint.short_sha == "abcdef01"
        assert EnvFingerprint.from_dict(
            dict(fingerprint.to_dict(), git_sha="cafe123")
        ).short_sha == "cafe123"


class TestSuites:
    def test_known_suites(self):
        assert set(SUITES) == {"smoke", "quick", "full", "batched"}

    def test_unknown_suite_rejected(self):
        with pytest.raises(ValueError, match="unknown suite"):
            suite_benchmarks("nope")

    def test_quick_suite_spans_cores_policies_and_campaign(self):
        names = [b.name for b in suite_benchmarks("quick")]
        assert len(set(names)) == len(names)
        joined = " ".join(names)
        for needle in ("ooo", "inorder", "multicore", "ppa", "capri",
                       "psp-undolog", "baseline", "campaign"):
            assert needle in joined, f"quick suite misses {needle}"

    def test_full_suite_contains_quick(self):
        quick = {b.name for b in suite_benchmarks("quick")}
        full = {b.name for b in suite_benchmarks("full")}
        assert quick < full


class TestHarness:
    def test_same_seed_identical_counts_across_repetitions(self):
        """The determinism contract: pinned seeds mean bit-identical
        simulated volume on every repetition."""
        benchmark = suite_benchmarks("smoke")[0]
        result = run_benchmark(benchmark, repetitions=3, warmup=0)
        assert result.deterministic
        assert result.cycles > 0 and result.instructions > 0
        assert len(result.wall_clocks) == 3
        assert result.wall_clock == min(result.wall_clocks)

    def test_campaign_benchmark_deterministic(self):
        benchmark = suite_benchmarks("smoke")[-1]
        assert benchmark.group == "campaign"
        first = benchmark.run()
        second = benchmark.run()
        assert first == second
        assert first[0] > 0 and first[1] > 0

    def test_drift_detected(self):
        ticker = iter(range(10))

        def drifting():
            return (1000.0 + next(ticker), 500)

        benchmark = Benchmark(name="x", group="simulate",
                              description="", run=drifting)
        result = run_benchmark(benchmark, repetitions=2, warmup=0)
        assert not result.deterministic

    def test_throughput_properties(self):
        result = BenchResult(name="x", group="simulate", description="",
                             wall_clocks=[0.5, 0.25], cycles=1000.0,
                             instructions=500, deterministic=True)
        assert result.wall_clock == 0.25
        assert result.cycles_per_sec == 4000.0
        assert result.instrs_per_sec == 2000.0


class TestReportArtifacts:
    def test_run_suite_and_artifact_round_trip(self, tmp_path):
        report = run_suite("smoke", repetitions=1, warmup=0)
        assert report.schema == BENCH_SCHEMA
        assert report.deterministic
        assert len(report.results) == len(suite_benchmarks("smoke"))
        path = report.write(tmp_path / report.artifact_name())
        assert path.name.startswith("BENCH_")
        restored = load_report(path)
        assert restored.to_dict() == report.to_dict()
        assert restored.result("sim:ooo:ppa:rb").cycles \
            == report.result("sim:ooo:ppa:rb").cycles

    def test_artifact_name_format(self):
        assert artifact_name("2026-08-05T12:00:00Z", "abc1234") \
            == "BENCH_20260805_abc1234.json"

    def test_unknown_schema_rejected(self):
        with pytest.raises(ValueError, match="unsupported BENCH"):
            BenchReport.from_dict({"schema": 99})

    def test_unknown_benchmark_lookup(self):
        report = BenchReport(suite="smoke", repetitions=1, warmup=0,
                             fingerprint=collect_fingerprint())
        with pytest.raises(KeyError):
            report.result("nope")

    def test_to_text_mentions_every_benchmark(self):
        report = run_suite("smoke", repetitions=1, warmup=0)
        text = report.to_text()
        for result in report.results:
            assert result.name in text


class TestProfileAttribution:
    def test_components_cover_hot_subsystems(self):
        from repro.bench.profile import profile_by_name

        report = profile_by_name("sim:ooo:ppa:rb", suite="smoke",
                                 with_metrics=False)
        assert report.total_time > 0
        names = {c.component for c in report.components}
        # The OoO+PPA run must attribute time to the memory system and
        # the core at minimum.
        assert {"CacheModel", "OoOCore"} <= names
        assert report.top_functions
        shares = sum(c.self_time for c in report.components)
        assert abs(shares - report.total_time) < 1e-9

    def test_traced_metrics_attached(self):
        from repro.bench.profile import profile_by_name

        report = profile_by_name("sim:ooo:ppa:rb", suite="smoke",
                                 with_metrics=True)
        assert any(name.startswith(("wb.", "store.", "region."))
                   for name in report.metrics)
        assert "telemetry attribution" in report.to_text()

    def test_unknown_benchmark_rejected(self):
        from repro.bench.profile import profile_by_name

        with pytest.raises(ValueError, match="no benchmark"):
            profile_by_name("sim:missing", suite="smoke")

    def test_component_mapping(self):
        from repro.bench.profile import component_for

        assert component_for("/x/repro/memory/writebuffer.py") \
            == "WriteBuffer"
        assert component_for("/x/repro/memory/nvm.py") == "NvmModel"
        assert component_for("/x/repro/pipeline/regfile.py") \
            == "Rename/PRF"
        assert component_for("/x/repro/core/checkpoint.py") \
            == "Checkpoint"
        assert component_for("/usr/lib/python3/json/decoder.py") \
            == "stdlib/other"


class TestBenchCli:
    def test_run_writes_artifact(self, tmp_path, capsys):
        from repro.bench.__main__ import main

        out = tmp_path / "bench.json"
        assert main(["run", "--suite", "smoke", "--reps", "1",
                     "--warmup", "0", "--out", str(out)]) == 0
        report = load_report(out)
        assert report.suite == "smoke"
        assert "sim:ooo:ppa:rb" in capsys.readouterr().out

    def test_run_json_mode(self, capsys):
        from repro.bench.__main__ import main

        assert main(["run", "--suite", "smoke", "--reps", "1",
                     "--warmup", "0", "--no-artifact", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["schema"] == BENCH_SCHEMA
        assert data["artifact"] is None
        assert {b["name"] for b in data["benchmarks"]} \
            == {b.name for b in suite_benchmarks("smoke")}

    def test_profile_cli(self, capsys):
        from repro.bench.__main__ import main

        assert main(["profile", "sim:inorder:ppa:rb", "--suite", "smoke",
                     "--no-metrics", "--top", "3"]) == 0
        out = capsys.readouterr().out
        assert "InOrderCore" in out and "% run" in out


class TestZeroOverheadImportGuard:
    def test_untraced_simulate_never_imports_bench(self):
        """`import repro` + an untraced simulate() must not pull in any
        repro.bench module (CI-enforced, like the tracer guard)."""
        code = (
            "import sys\n"
            "import repro\n"
            "repro.simulate('rb', length=500)\n"
            "bad = sorted(m for m in sys.modules"
            " if m.startswith('repro.bench'))\n"
            "assert not bad, f'bench modules leaked: {bad}'\n"
        )
        proc = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr

    def test_simulator_sources_never_import_bench(self):
        """No simulator module outside repro/bench imports repro.bench:
        static version of the guard, so a stray import can't hide behind
        an uncovered code path."""
        import pathlib

        import repro

        package_root = pathlib.Path(repro.__file__).parent
        offenders = []
        for path in package_root.rglob("*.py"):
            if path.is_relative_to(package_root / "bench"):
                continue
            if "repro.bench" in path.read_text(encoding="utf-8"):
                offenders.append(str(path))
        assert not offenders, offenders
