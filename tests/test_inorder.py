"""The in-order core with the value-carrying CSQ (Section 6)."""

import pytest

from repro.config import skylake_default
from repro.inorder.core import InOrderCore
from repro.inorder.processor import InOrderPersistentProcessor
from repro.inorder.value_csq import ValueCsq, ValueCsqEntry
from repro.workloads.profiles import profile_by_name
from repro.workloads.synthetic import generate_trace


def entry(seq=0, addr=0x100, value=7) -> ValueCsqEntry:
    return ValueCsqEntry(seq=seq, addr=addr, value=value,
                         commit_time=float(seq))


class TestValueCsq:
    def test_push_and_clear_fifo(self):
        csq = ValueCsq(4)
        csq.push(entry(0))
        csq.push(entry(1))
        assert [e.seq for e in csq.clear()] == [0, 1]

    def test_overflow(self):
        csq = ValueCsq(1)
        csq.push(entry(0))
        assert csq.is_full
        with pytest.raises(OverflowError):
            csq.push(entry(1))

    def test_checkpoint_wider_than_index_csq(self):
        """Value entries are wider (16 B vs 8 B) — the trade-off the paper
        notes for in-order cores."""
        csq = ValueCsq(40)
        assert csq.checkpoint_bytes() == 640

    def test_zero_entries_rejected(self):
        with pytest.raises(ValueError):
            ValueCsq(0)


class TestInOrderCore:
    def _simulate(self, length=2_000, app="gcc", persistent=True):
        trace = generate_trace(profile_by_name(app), length=length)
        core = InOrderCore(skylake_default(), persistent=persistent)
        return core.run(trace), trace

    def test_runs_a_trace(self):
        stats, trace = self._simulate()
        assert stats.instructions == len(trace)
        assert stats.cycles > 0

    def test_in_order_ipc_below_width(self):
        stats, __ = self._simulate()
        assert stats.ipc <= skylake_default().core.width

    def test_slower_than_out_of_order(self):
        from repro.experiments.runner import run_points
        from repro.orchestrator.points import make_point

        inorder, __ = self._simulate(app="gcc")
        ooo, = run_points([make_point("gcc", "ppa", length=2_000,
                                      warmup=0)])
        assert inorder.ipc < ooo.ipc * 1.2  # no miss overlap in order

    def test_commit_times_monotone(self):
        stats, __ = self._simulate()
        assert all(b >= a for a, b in zip(stats.commit_times,
                                          stats.commit_times[1:]))

    def test_regions_formed(self):
        stats, __ = self._simulate()
        assert stats.regions
        assert stats.regions[-1].cause == "end"
        assert {r.cause for r in stats.regions} <= \
            {"csq", "sync", "end"}

    def test_region_store_counts(self):
        stats, trace = self._simulate()
        assert sum(r.store_count for r in stats.regions) == \
            len(trace.stores())

    def test_store_values_recorded(self):
        stats, __ = self._simulate()
        assert stats.entries
        assert all(isinstance(e.value, int) for e in stats.entries)

    def test_non_persistent_mode_forms_no_regions(self):
        stats, __ = self._simulate(persistent=False)
        assert stats.regions == []
        assert stats.entries == []

    def test_persistence_overhead_is_moderate(self):
        persistent, __ = self._simulate(persistent=True)
        plain, __ = self._simulate(persistent=False)
        assert persistent.cycles >= plain.cycles
        assert persistent.cycles < plain.cycles * 1.25


class TestInOrderRecovery:
    @pytest.fixture(scope="class")
    def run(self):
        processor = InOrderPersistentProcessor()
        trace = generate_trace(profile_by_name("tatp"), length=2_500)
        stats = processor.run(trace)
        return processor, stats, trace

    def _reference(self, trace, upto):
        image = {}
        values = {}
        # Reconstruct from the recorded entries instead: simpler and exact.
        return image

    @pytest.mark.parametrize("fraction", [0.1, 0.3, 0.5, 0.7, 0.9])
    def test_recovery_consistent(self, run, fraction):
        processor, stats, trace = run
        fail_time = stats.cycles * fraction
        crash = processor.crash_at(fail_time)
        result = processor.recover(crash)
        reference = {}
        for entry_ in stats.entries:
            if entry_.seq <= crash.last_committed_seq:
                reference[entry_.addr] = entry_.value
        for addr, expected in reference.items():
            assert result.nvm_image.get(addr) == expected, hex(addr)

    def test_resume_pc(self, run):
        processor, stats, trace = run
        crash = processor.crash_at(stats.cycles * 0.5)
        assert crash.resume_pc == trace[crash.last_committed_seq].pc + 1

    def test_crash_requires_run(self):
        with pytest.raises(RuntimeError):
            InOrderPersistentProcessor().crash_at(1.0)

    def test_replay_count_matches_csq(self, run):
        processor, stats, __ = run
        crash = processor.crash_at(stats.cycles * 0.5)
        result = processor.recover(crash)
        assert result.replayed == len(crash.csq)
