"""The StatsBase protocol: tagged envelopes, bit-exact round trips, and
merge semantics for every registered stats kind — plus the
``repro.simulate`` facade that produces them."""

from __future__ import annotations

import pytest

import repro
from repro.core.iobuffer import IoBufferStats
from repro.inorder.core import InOrderCore, InOrderStats
from repro.memory.nvm import NvmStats
from repro.multicore.system import MulticoreStats
from repro.pipeline.stats import CoreStats
from repro.statsbase import (
    StatsBase,
    stats_class,
    stats_from_dict,
    stats_to_dict,
)

ALL_KINDS = {
    "core": CoreStats,
    "inorder": InOrderStats,
    "multicore": MulticoreStats,
    "nvm": NvmStats,
    "iobuffer": IoBufferStats,
}


# ---------------------------------------------------------------------------
# Protocol + registry
# ---------------------------------------------------------------------------

class TestRegistry:
    @pytest.mark.parametrize("kind,cls", sorted(ALL_KINDS.items()))
    def test_kinds_resolve_and_conform(self, kind, cls):
        assert stats_class(kind) is cls
        assert cls.stats_kind == kind
        instance = cls() if kind != "multicore" \
            else cls(scheme="", threads=1, makespan=0.0)
        assert isinstance(instance, StatsBase)

    def test_unknown_kind_raises(self):
        with pytest.raises(KeyError, match="unknown stats kind"):
            stats_class("bogus")

    def test_envelope_rejects_unregistered_object(self):
        class Fake:
            stats_kind = "fake"

            def to_dict(self):
                return {}

        with pytest.raises(KeyError, match="not registered"):
            stats_to_dict(Fake())


# ---------------------------------------------------------------------------
# Round trips (bit-exact, via real simulations)
# ---------------------------------------------------------------------------

class TestRoundTrips:
    def test_core_stats_round_trip(self, small_trace, config):
        from repro.core.processor import PersistentProcessor

        stats = PersistentProcessor(config).run(small_trace)
        envelope = stats_to_dict(stats)
        assert envelope["kind"] == "core"
        restored = stats_from_dict(envelope)
        assert isinstance(restored, CoreStats)
        assert restored.to_dict() == stats.to_dict()

    def test_inorder_stats_round_trip(self, small_trace, config):
        stats = InOrderCore(config).run(small_trace)
        restored = stats_from_dict(stats_to_dict(stats))
        assert isinstance(restored, InOrderStats)
        assert restored.to_dict() == stats.to_dict()
        assert [e.commit_time for e in restored.entries] \
            == [e.commit_time for e in stats.entries]

    def test_multicore_stats_round_trip(self, gcc_profile, config):
        stats = repro.simulate(gcc_profile, core="multicore", scheme="ppa",
                               config=config, threads=2,
                               length=1_000).stats
        restored = stats_from_dict(stats_to_dict(stats))
        assert isinstance(restored, MulticoreStats)
        assert restored.to_dict() == stats.to_dict()
        assert restored.makespan == stats.makespan
        assert len(restored.per_thread) == 2

    def test_nvm_stats_round_trip(self):
        stats = NvmStats(line_writes=7, reads=3,
                         write_backpressure_cycles=1.25,
                         read_contention_cycles=0.5, busy_cycles=99.75)
        restored = stats_from_dict(stats_to_dict(stats))
        assert restored.to_dict() == stats.to_dict()

    def test_iobuffer_stats_round_trip(self):
        stats = IoBufferStats(writes=5, backpressure_cycles=12.5,
                              max_occupancy=3)
        restored = stats_from_dict(stats_to_dict(stats))
        assert restored.to_dict() == stats.to_dict()


# ---------------------------------------------------------------------------
# Merge semantics
# ---------------------------------------------------------------------------

class TestMerge:
    def test_core_merge_sums_counts_maxes_end_times(self, small_trace,
                                                    config):
        from repro.core.processor import PersistentProcessor

        a = PersistentProcessor(config).run(small_trace)
        b = PersistentProcessor(config).run(small_trace)
        instructions = a.instructions
        stores = len(a.stores)
        cycles = max(a.cycles, b.cycles)
        a += b
        assert a.instructions == 2 * instructions
        assert len(a.stores) == 2 * stores
        assert a.cycles == cycles

    def test_inorder_merge(self, small_trace, config):
        a = InOrderCore(config).run(small_trace)
        b = InOrderCore(config).run(small_trace)
        regions = len(a.regions)
        a.merge(b)
        assert len(a.regions) == 2 * regions
        assert a.name == small_trace.name

    def test_nvm_merge_accumulates(self):
        a = NvmStats(line_writes=1, busy_cycles=2.0)
        a += NvmStats(line_writes=2, busy_cycles=3.5)
        assert a.line_writes == 3
        assert a.busy_cycles == 5.5

    def test_iobuffer_merge(self):
        a = IoBufferStats(writes=1, backpressure_cycles=1.0,
                          max_occupancy=2)
        a += IoBufferStats(writes=4, backpressure_cycles=0.5,
                           max_occupancy=5)
        assert a.writes == 5
        assert a.backpressure_cycles == 1.5
        assert a.max_occupancy == 5

    def test_multicore_merge_concatenates_threads(self):
        a = MulticoreStats(scheme="ppa", threads=2, makespan=10.0,
                           per_thread=[CoreStats(name="t0")],
                           barrier_segments=3, imbalance_cycles=1.0)
        b = MulticoreStats(scheme="ppa", threads=2, makespan=12.0,
                           per_thread=[CoreStats(name="t1")],
                           barrier_segments=2, imbalance_cycles=0.5)
        a.merge(b)
        assert a.makespan == 12.0
        assert [s.name for s in a.per_thread] == ["t0", "t1"]
        assert a.barrier_segments == 5
        assert a.imbalance_cycles == 1.5


# ---------------------------------------------------------------------------
# The simulate() facade
# ---------------------------------------------------------------------------

class TestSimulateFacade:
    def test_profile_name_and_object_agree(self, gcc_profile):
        by_name = repro.simulate("gcc", scheme="ppa", length=1_000)
        by_obj = repro.simulate(gcc_profile, scheme="ppa", length=1_000)
        assert by_name.stats.to_dict() == by_obj.stats.to_dict()

    def test_matches_legacy_processor_run(self, small_trace, config):
        from repro.core.processor import PersistentProcessor

        legacy = PersistentProcessor(config).run(small_trace)
        result = repro.simulate(small_trace, scheme="ppa", config=config)
        assert result.stats.to_dict() == legacy.to_dict()
        assert result.crash_api is not None

    def test_non_ppa_scheme_has_no_crash_api(self):
        result = repro.simulate("rb", scheme="psp-undolog", length=1_000)
        assert result.crash_api is None
        assert result.stats.scheme == "psp-undolog"

    def test_inorder_baseline_and_ppa(self, small_trace, config):
        persistent = repro.simulate(small_trace, core="inorder",
                                    scheme="ppa", config=config)
        assert isinstance(persistent.stats, InOrderStats)
        assert persistent.crash_api is not None
        volatile = repro.simulate(small_trace, core="inorder",
                                  scheme="baseline", config=config)
        assert not volatile.stats.entries
        with pytest.raises(ValueError, match="in-order core supports"):
            repro.simulate(small_trace, core="inorder", scheme="capri",
                           config=config)

    def test_multicore_requires_profile(self, small_trace):
        with pytest.raises(ValueError, match="pass a profile"):
            repro.simulate(small_trace, core="multicore")

    def test_unknown_core_rejected(self):
        with pytest.raises(ValueError, match="unknown core"):
            repro.simulate("gcc", core="gpu")

    def test_bad_input_type_rejected(self):
        with pytest.raises(TypeError, match="expected a Trace"):
            repro.simulate(42)

    def test_trace_flag_does_not_perturb_stats(self, monkeypatch):
        # REPRO_TRACE=1 deliberately forces tracing even without the
        # flag; neutralize it so the untraced half is actually untraced.
        monkeypatch.delenv("REPRO_TRACE", raising=False)
        plain = repro.simulate("rb", scheme="capri", length=1_000)
        traced = repro.simulate("rb", scheme="capri", length=1_000,
                                trace=True)
        assert plain.telemetry is None
        assert traced.telemetry is not None
        assert traced.stats.to_dict() == plain.stats.to_dict()
