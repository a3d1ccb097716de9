"""Edge-path coverage across modules: deep hierarchies, overflow paths,
CLI fallbacks, and configuration corners."""

import dataclasses

from repro.config import skylake_default
from repro.experiments.runner import run_points
from repro.inorder.core import InOrderCore
from repro.memory.hierarchy import MemorySystem
from repro.orchestrator.points import make_point
from repro.workloads.profiles import profile_by_name
from repro.workloads.synthetic import TraceGenerator, generate_trace


def _stats(app, scheme, **kwargs):
    """Stats of one point, run through the experiments' campaign path."""
    return run_points([make_point(app, scheme, **kwargs)])[0]


class TestDeepHierarchyPaths:
    def test_l3_config_runs_end_to_end(self):
        config = skylake_default().with_l3()
        stats = _stats("gcc", "ppa", config=config, length=2_000)
        assert stats.cycles > 0

    def test_l3_eviction_cascade(self):
        from repro.memory.cache import Eviction
        config = skylake_default().with_l3()
        mem = MemorySystem(config.memory)
        # A dirty L1 victim lands in L2; a dirty L2 victim lands in L3.
        mem._handle_eviction(0, Eviction(0x1000, dirty=True), 0.0)
        assert mem.l2.lookup(0x1000)
        mem._handle_eviction(1, Eviction(0x2000, dirty=True), 0.0)
        assert mem.l3.lookup(0x2000)

    def test_prewarm_with_l3_fills_it(self):
        config = skylake_default().with_l3()
        mem = MemorySystem(config.memory)
        mem.prewarm_extents([("warm", 0, 4 << 20)])
        assert mem.l3.resident_lines() > 0

    def test_l3_slowdown_vs_l2_only_is_mild_for_ppa(self):
        deep = skylake_default().with_l3()
        ppa, base = run_points([
            make_point("gcc", scheme, config=deep, length=2_000)
            for scheme in ("ppa", "baseline")])
        assert ppa.cycles / base.cycles < 1.15


class TestInOrderCsqOverflow:
    def test_tiny_csq_forces_boundaries(self):
        config = skylake_default().with_csq(4)
        core = InOrderCore(config)
        trace = generate_trace(profile_by_name("water-ns"), length=1_500)
        stats = core.run(trace)
        csq_regions = [r for r in stats.regions if r.cause == "csq"]
        assert csq_regions
        assert all(r.store_count <= 4 for r in stats.regions)

    def test_sync_boundaries_on_inorder(self):
        core = InOrderCore(skylake_default())
        trace = generate_trace(profile_by_name("rb"), length=2_000)
        stats = core.run(trace)
        assert any(r.cause == "sync" for r in stats.regions)


class TestAnalysisCliFallbacks:
    def test_missing_directory_reports_error(self, tmp_path, capsys):
        from repro.analysis.__main__ import main
        missing = tmp_path / "nope"
        assert main([str(missing)]) == 1

    def test_empty_directory_reports_error(self, tmp_path, capsys):
        from repro.analysis.__main__ import main
        empty = tmp_path / "results"
        empty.mkdir()
        assert main([str(empty)]) == 1

    def test_digest_from_synthetic_results(self, tmp_path):
        from repro.analysis.__main__ import load_recorded_results, main
        (tmp_path / "fig14.txt").write_text(
            "== fig14: x ==\nsummary: gmean=1.0200\nnotes: n\n")
        results = load_recorded_results(tmp_path)
        assert results["fig14"].summary == {"gmean": 1.02}
        assert main([str(tmp_path)]) == 0


class TestConfigCorners:
    def test_chained_variants_compose(self):
        config = (skylake_default()
                  .with_prf(120, 120)
                  .with_csq(20)
                  .with_wpq(8)
                  .with_write_bandwidth(1.0)
                  .with_l3())
        assert config.core.int_prf_size == 120
        assert config.ppa.csq_entries == 20
        assert config.memory.nvm.wpq_entries == 8
        assert config.memory.nvm.write_bandwidth_gbs == 1.0
        assert config.memory.l3 is not None

    def test_exotic_config_still_simulates_and_recovers(self):
        from repro.core.processor import PersistentProcessor
        from repro.failure.consistency import verify_recovery

        config = (skylake_default().with_prf(100, 100).with_csq(12)
                  .with_wpq(8).with_write_bandwidth(1.0))
        processor = PersistentProcessor(config=config)
        trace = generate_trace(profile_by_name("water-sp"), length=1_500)
        stats = processor.run(trace)
        crash = processor.crash_at(stats.cycles * 0.6)
        result = processor.recover(crash)
        assert verify_recovery(stats, result.nvm_image,
                               crash.last_committed_seq)


class TestGeneratorCorners:
    def test_addr_base_offsets_whole_space(self):
        low = TraceGenerator(profile_by_name("gcc"), seed=0,
                             addr_base=0x10_0000)
        high = TraceGenerator(profile_by_name("gcc"), seed=0,
                              addr_base=0x10_0000 + (1 << 40))
        for __, base, __ in high.region_extents():
            assert base >= (1 << 40)
        for __, base, __ in low.region_extents():
            assert base < (1 << 40)

    def test_sync_interval_zero_means_no_syncs(self):
        generator = TraceGenerator(profile_by_name("gcc"), seed=0)
        trace = generator.generate(1_000, sync_interval=0)
        from repro.isa.instructions import Opcode
        assert not any(i.opcode is Opcode.SYNC for i in trace)

    def test_trace_name_override(self):
        generator = TraceGenerator(profile_by_name("gcc"), seed=0)
        assert generator.generate(10, name="custom").name == "custom"


class TestRunnerCorners:
    def test_warmup_zero_skips_prewarm(self):
        cold = _stats("gcc", "baseline", length=1_500, warmup=0)
        warm = _stats("gcc", "baseline", length=1_500)
        assert cold.cycles > warm.cycles  # cold caches cost real time

    def test_profile_object_and_name_equivalent(self):
        by_name = _stats("gcc", "baseline", length=1_000)
        by_profile = _stats(profile_by_name("gcc"), "baseline",
                            length=1_000)
        assert by_name.cycles == by_profile.cycles

    def test_different_baselines_for_slowdown(self):
        deep = skylake_default().with_l3()
        ppa, deep_base, flat_base = run_points([
            make_point("gcc", "ppa", config=deep, length=1_500),
            make_point("gcc", "baseline", config=deep, length=1_500),
            make_point("gcc", "baseline", length=1_500)])
        # The baseline's configuration is part of its point: the L3
        # changes the baseline's cycles, so the two ratios differ.
        assert deep_base.cycles != flat_base.cycles
        assert ppa.cycles / deep_base.cycles != ppa.cycles / flat_base.cycles


class TestMultiControllerConfigPath:
    def test_sweep_helpers_preserve_controllers(self):
        base = skylake_default()
        multi = dataclasses.replace(base, memory=dataclasses.replace(
            base.memory, nvm=dataclasses.replace(
                base.memory.nvm, num_controllers=2)))
        swept = multi.with_write_bandwidth(4.0)
        assert swept.memory.nvm.num_controllers == 2
