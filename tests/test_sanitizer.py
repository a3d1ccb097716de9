"""The persistency sanitizer: probes, violation detection, the crash-sweep
oracle, and orchestrator wiring."""

import pytest

from repro import sanitizer
from repro.config import (
    MemoryConfig,
    NvmConfig,
    PpaConfig,
    SystemConfig,
    sanitize_requested,
)
from repro.core.csq import CommittedStoreQueue
from repro.core.processor import PersistentProcessor
from repro.failure.consistency import reference_image
from repro.memory.nvm import NvmModel
from repro.memory.writebuffer import WriteBuffer
from repro.orchestrator.campaign import Campaign
from repro.orchestrator.points import make_point
from repro.pipeline.stats import StoreRecord
from repro.sanitizer.oracle import crash_sweep
from repro.sanitizer.probes import SanitizerError
from repro.workloads.profiles import profile_by_name
from repro.workloads.synthetic import generate_trace


@pytest.fixture(autouse=True)
def _restore_probes():
    """Start from unpatched classes (REPRO_SANITIZE=1 installs at import)
    and never leak patched classes into the rest of the suite."""
    sanitizer.uninstall()
    yield
    sanitizer.uninstall()


def _store(seq, addr=0, commit=1.0, region=0):
    return StoreRecord(seq=seq, pc=seq * 4, addr=addr, line_addr=addr & ~63,
                       value=seq, data_preg=1, data_cls=0,
                       commit_time=commit, region_id=region)


class TestEnvFlag:
    def test_truthy_values(self):
        for value in ("1", "true", "YES", " on "):
            assert sanitize_requested({"REPRO_SANITIZE": value})

    def test_falsy_values(self):
        assert not sanitize_requested({})
        for value in ("", "0", "false", "off", "banana"):
            assert not sanitize_requested({"REPRO_SANITIZE": value})


class TestInstallLifecycle:
    def test_install_patches_and_uninstall_restores(self):
        original = WriteBuffer.__dict__["persist_store"]
        assert not sanitizer.installed()
        sanitizer.install()
        assert sanitizer.installed()
        assert WriteBuffer.__dict__["persist_store"] is not original
        sanitizer.uninstall()
        assert not sanitizer.installed()
        assert WriteBuffer.__dict__["persist_store"] is original

    def test_install_is_idempotent(self):
        sanitizer.install()
        patched = WriteBuffer.__dict__["persist_store"]
        sanitizer.install()          # second install must not double-wrap
        assert WriteBuffer.__dict__["persist_store"] is patched
        sanitizer.uninstall()

    def test_uninstall_without_install_is_noop(self):
        sanitizer.uninstall()
        assert not sanitizer.installed()

    def test_sanitized_context_restores(self):
        with sanitizer.sanitized() as probe_state:
            assert sanitizer.installed()
            assert probe_state is sanitizer.state()
        assert not sanitizer.installed()

    def test_sanitized_context_keeps_outer_install(self):
        sanitizer.install()
        with sanitizer.sanitized():
            pass
        assert sanitizer.installed()


class TestProbeViolations:
    def test_premature_region_clear_detected(self):
        """Clearing a region before its persist counter reaches zero is
        exactly the protocol bug the sanitizer exists to catch."""
        wb = WriteBuffer(16, NvmModel(NvmConfig()))
        with sanitizer.sanitized():
            op = wb.persist_store(0, 0.0, addr=0, value=1)
            with pytest.raises(SanitizerError,
                               match="persist counter not zero"):
                wb.reset_region(op.durable_at - 1.0)

    def test_reintroduced_capacity_bug_caught(self):
        """The pre-fix write buffer admitted every op immediately; a
        subclass reverting to that behaviour must trip the occupancy
        probe on the first over-capacity admission."""

        class BuggyWriteBuffer(WriteBuffer):
            def _admit_time(self, time):
                return time          # ignore occupied slots (the old bug)

        wb = BuggyWriteBuffer(2, NvmModel(NvmConfig()))
        with sanitizer.sanitized():
            with pytest.raises(SanitizerError,
                               match="occupancy exceeds capacity"):
                for index in range(3):
                    wb.persist_store(index * 64, 0.0)

    def test_correct_buffer_survives_the_same_burst(self):
        wb = WriteBuffer(2, NvmModel(NvmConfig()))
        with sanitizer.sanitized():
            for index in range(3):
                wb.persist_store(index * 64, 0.0)
        assert wb.wb_full_stall_cycles > 0

    def test_csq_program_order_violation_detected(self):
        csq = CommittedStoreQueue(8)
        with sanitizer.sanitized():
            csq.push(_store(5))
            with pytest.raises(SanitizerError,
                               match="out of program order"):
                csq.push(_store(3))

    def test_csq_commit_order_violation_detected(self):
        csq = CommittedStoreQueue(8)
        with sanitizer.sanitized():
            csq.push(_store(1, commit=10.0))
            with pytest.raises(SanitizerError,
                               match="out of commit order"):
                csq.push(_store(2, commit=9.0))

    def test_floor_contract_violation_detected(self):
        wb = WriteBuffer(16, NvmModel(NvmConfig()))
        with sanitizer.sanitized():
            wb.advance_floor(100.0)
            with pytest.raises(SanitizerError,
                               match="below the promised eviction floor"):
                wb.persist_store(0, 50.0)


class TestCleanRuns:
    def test_full_ppa_run_is_violation_free(self):
        trace = generate_trace(profile_by_name("rb"), length=1_500, seed=11)
        with sanitizer.sanitized() as probe_state:
            PersistentProcessor().run(trace)
        checks = probe_state.checks
        # Every probe family on the PPA path must actually have fired.
        for probe in ("nvm.write_line", "wb.persist_store", "wb.capacity",
                      "wb.reset_region", "csq.push", "rf.mask",
                      "rf.allocate", "rf.commit_def", "rf.end_region",
                      "region.close", "ppa.close_region"):
            assert checks[probe] > 0, probe
        assert probe_state.total_checks > 1_000

    def test_tiny_write_buffer_run_is_violation_free(self):
        """Heavy WB-full backpressure must not break any invariant: a
        single-slot buffer over a slow single-entry WPQ holds each slot
        for hundreds of cycles, so admissions queue up behind it."""
        config = SystemConfig(
            ppa=PpaConfig(writebuffer_entries=1),
            memory=MemoryConfig(nvm=NvmConfig(wpq_entries=1,
                                              write_bandwidth_gbs=0.2)))
        trace = generate_trace(profile_by_name("sps"), length=1_500, seed=3)
        with sanitizer.sanitized():
            stats = PersistentProcessor(config).run(trace)
        assert stats.wb_full_stall_cycles > 0


class TestOracle:
    @staticmethod
    def _simulate(length=1_500, seed=5):
        processor = PersistentProcessor()
        trace = generate_trace(profile_by_name("rb"), length=length,
                               seed=seed)
        stats = processor.run(trace)
        return stats, processor.core.wb.log

    def test_sweep_is_consistent_on_real_run(self):
        stats, log = self._simulate()
        report = crash_sweep(stats, log, samples=48, seed=1)
        assert report.consistent
        assert bool(report)
        # Random samples plus 3 targeted points per region close.
        assert report.points_checked >= 48 + 3 * len(stats.regions)
        assert report.max_replayed_stores > 0

    def test_sweep_detects_tampered_persist_log(self):
        """Corrupt the durable payload of the stores backing one address:
        after that address's region closes, no CSQ replay covers it, so
        recovery at later failure points must mismatch."""
        stats, log = self._simulate()
        victim = next(iter(reference_image(stats.stores)))
        tampered = 0
        for op in log:
            op.writes = [
                (t, a, v + 1 if a == victim else v)
                for t, a, v in op.writes
            ]
            tampered += sum(1 for __, a, __ in op.writes if a == victim)
        assert tampered > 0
        report = crash_sweep(stats, log, samples=48, seed=1)
        assert not report.consistent

    def test_summary_mentions_verdict(self):
        stats, log = self._simulate()
        report = crash_sweep(stats, log, samples=16, seed=2)
        assert "consistent" in report.summary()


class TestOrchestratorWiring:
    def test_serial_campaign_runs_sanitized(self):
        campaign = Campaign(cache=None, jobs=1, sanitize=True)
        campaign.add(make_point("rb", "ppa", length=800, warmup=0))
        results = campaign.run()
        assert results[0].ok
        # The in-process path must not leave the probes patched.
        assert not sanitizer.installed()

    def test_campaign_surfaces_violation_as_point_failure(self):
        campaign = Campaign(cache=None, jobs=1, retries=0, sanitize=True)
        campaign.add(make_point("rb", "ppa", length=400, warmup=0))

        class AlwaysFullBuffer(WriteBuffer):
            def _admit_time(self, time):
                return time

        import repro.pipeline.core as pipeline_core

        original = pipeline_core.WriteBuffer
        pipeline_core.WriteBuffer = AlwaysFullBuffer
        try:
            # Tiny WB so the buggy admission actually overflows capacity.
            campaign.points[0] = make_point(
                "sps", "ppa", length=800, warmup=0,
                config=SystemConfig(ppa=PpaConfig(writebuffer_entries=1)))
            results = campaign.run()
        finally:
            pipeline_core.WriteBuffer = original
        assert not results[0].ok
        assert "SanitizerError" in results[0].error

    def test_campaign_defaults_to_environment(self, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        assert Campaign(cache=None).sanitize
        monkeypatch.delenv("REPRO_SANITIZE")
        assert not Campaign(cache=None).sanitize
        assert Campaign(cache=None, sanitize=True).sanitize


class TestCli:
    @pytest.mark.parametrize("argv,message", [
        (["--profiles", "nosuch"], "unknown workload 'nosuch'"),
        (["--length", "0"],
         "--length must be at least 1 instruction (got 0)"),
        (["--sweeps", "-1"], "--sweeps must be at least 0 (got -1)"),
    ])
    def test_bad_arguments_exit_2_in_one_line(self, argv, message, capsys):
        from repro.sanitizer.__main__ import main

        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.strip() == message
        assert captured.out == ""
