"""The profiler (spec parsing, per-component attribution, CLI) and the
zero-overhead import guard."""

import subprocess
import sys

import pytest

from repro.bench.__main__ import main
from repro.bench.profile import component_for, parse_spec, profile_spec


@pytest.fixture
def production_path(untraced_unsanitized, monkeypatch):
    """The default engine with no memory script cached, so a profiled
    kernel run builds its script and both buckets show."""
    from repro.engine import ENGINE_ENV_VAR
    from repro.engine.memscript import clear_scripts

    monkeypatch.delenv(ENGINE_ENV_VAR, raising=False)
    clear_scripts()


BAD_SPECS = [
    ("sim:ooo:ppa", "malformed profile spec"),
    ("run:ooo:ppa:gcc", "malformed profile spec"),
    ("sim:gpu:ppa:gcc", "unknown core 'gpu'"),
    ("sim:ooo:nope:gcc", "unknown scheme 'nope'"),
    ("sim:inorder:capri:rb", "the in-order core supports"),
    ("sim:ooo:ppa:nosuch", "unknown workload 'nosuch'"),
]


class TestProfileSpec:
    def test_single_core_spec(self):
        assert parse_spec("sim:ooo:ppa:gcc") == {
            "trace_or_profile": "gcc", "scheme": "ppa", "core": "ooo",
            "seed": 0, "length": 12_000}

    def test_multicore_spec_runs_four_threads(self):
        kwargs = parse_spec("sim:multicore:ppa:water-ns")
        assert (kwargs["threads"], kwargs["length"]) == (4, 3_000)

    @pytest.mark.parametrize("spec,message", BAD_SPECS,
                             ids=[spec for spec, _ in BAD_SPECS])
    def test_bad_spec_rejected(self, spec, message):
        with pytest.raises(ValueError, match=message):
            parse_spec(spec)


@pytest.mark.usefixtures("production_path")
class TestProfileAttribution:
    def test_components_cover_hot_subsystems(self):
        report = profile_spec("sim:ooo:ppa:rb", with_metrics=False)
        assert report.total_time > 0
        names = {c.component for c in report.components}
        # A default OoO+PPA call runs on the kernel over a memory script.
        assert {"Kernel", "MemScript"} <= names
        assert report.top_functions
        shares = sum(c.self_time for c in report.components)
        assert abs(shares - report.total_time) < 1e-9

    def test_traced_metrics_attached(self):
        report = profile_spec("sim:ooo:ppa:rb", with_metrics=True)
        assert any(name.startswith(("wb.", "store.", "region."))
                   for name in report.metrics)
        assert "telemetry attribution" in report.to_text()

    def test_component_mapping(self):
        assert component_for("/x/repro/memory/writebuffer.py") \
            == "WriteBuffer"
        assert component_for("/x/repro/memory/nvm.py") == "NvmModel"
        assert component_for("/x/repro/pipeline/regfile.py") \
            == "Rename/PRF"
        assert component_for("/x/repro/core/checkpoint.py") \
            == "Checkpoint"
        assert component_for("/x/repro/engine/memscript.py") \
            == "MemScript"
        assert component_for("/x/repro/engine/batched.py") == "Kernel"
        assert component_for("/x/repro/engine/inorder_lanes.py") \
            == "Kernel"
        assert component_for("/x/repro/service/scheduler.py") == "Service"
        assert component_for("/x/repro/observe/slog.py") \
            == "Observability"
        assert component_for("/usr/lib/python3/json/decoder.py") \
            == "stdlib/other"


class TestBenchCli:
    @pytest.mark.usefixtures("production_path")
    def test_profile_cli(self, capsys):
        assert main(["profile", "sim:inorder:ppa:rb", "--no-metrics",
                     "--top", "3"]) == 0
        out = capsys.readouterr().out
        assert "% run" in out
        assert "Kernel" in out and "MemScript" in out

    @pytest.mark.parametrize("spec", [
        "sim:ooo:ppa", "sim:inorder:capri:rb", "sim:ooo:ppa:nosuch"])
    def test_cli_bad_spec_exits_2_in_one_line(self, spec, capsys):
        assert main(["profile", spec]) == 2
        captured = capsys.readouterr()
        assert len(captured.err.strip().splitlines()) == 1
        assert "Traceback" not in captured.err
        assert captured.out == ""


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
