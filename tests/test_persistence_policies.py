"""Behaviour of each persistence policy on the core."""

import dataclasses

import pytest

from repro.config import skylake_default
from repro.persistence.base import PersistencePolicy, SchemeTraits
from repro.persistence.baseline import NoPersistencePolicy
from repro.persistence.capri import CapriPolicy
from repro.persistence.catalog import (
    SCHEME_TRAITS,
    make_policy,
    scheme_backend,
    scheme_names,
)
from repro.persistence.ppa import PpaPolicy
from repro.persistence.replaycache import ReplayCachePolicy
from repro.pipeline.core import OoOCore
from repro.workloads.profiles import profile_by_name
from repro.workloads.synthetic import generate_trace


def run_with(policy, trace=None, config=None, length=3_000):
    if trace is None:
        trace = generate_trace(profile_by_name("gcc"), length=length)
    core = OoOCore(config or skylake_default(), policy, track_values=False)
    return core.run(trace)


class TestCatalog:
    def test_all_schemes_instantiate(self):
        for name in scheme_names():
            assert isinstance(make_policy(name), PersistencePolicy)

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ValueError):
            make_policy("write-behind-cache")
        with pytest.raises(ValueError):
            scheme_backend("write-behind-cache")

    def test_backends(self):
        assert scheme_backend("ppa") == "pmem-memory-mode"
        assert scheme_backend("eadr") == "pmem-app-direct"
        assert scheme_backend("dram-only") == "dram-only"

    def test_traits_cover_tables(self):
        for key in ("ppa", "clwb", "capri", "replaycache", "wsp-ups"):
            assert isinstance(SCHEME_TRAITS[key], SchemeTraits)

    def test_ppa_traits_match_paper(self):
        traits = SCHEME_TRAITS["ppa"]
        assert not traits.occupies_store_queue
        assert not traits.needs_recompilation
        assert traits.enables_dram_cache
        assert traits.enables_multi_mc
        assert traits.reaches_nvm


class TestBaselinePolicy:
    def test_forms_no_regions(self):
        stats = run_with(NoPersistencePolicy())
        assert stats.regions == []

    def test_stores_never_marked_durable(self):
        stats = run_with(NoPersistencePolicy())
        assert all(s.durable_at == float("inf") for s in stats.stores)


class TestPpaPolicy:
    def test_forms_regions_with_causes(self):
        stats = run_with(PpaPolicy(), length=6_000)
        assert stats.regions
        causes = {r.cause for r in stats.regions}
        assert causes <= {"prf", "csq", "sync", "end"}
        assert stats.regions[-1].cause == "end"

    def test_regions_partition_the_trace(self):
        stats = run_with(PpaPolicy(), length=6_000)
        assert stats.regions[0].start_seq == 0
        for prev, nxt in zip(stats.regions, stats.regions[1:]):
            assert nxt.start_seq == prev.end_seq
        assert stats.regions[-1].end_seq == stats.instructions

    def test_store_counts_match_trace(self):
        stats = run_with(PpaPolicy(), length=6_000)
        assert sum(r.store_count for r in stats.regions) == \
            len(stats.stores)

    def test_csq_never_overflows_its_capacity(self):
        config = skylake_default().with_csq(8)
        stats = run_with(PpaPolicy(), config=config, length=6_000)
        for record in stats.regions:
            assert record.store_count <= 8

    def test_small_csq_forms_more_regions(self):
        small = run_with(PpaPolicy(), config=skylake_default().with_csq(10),
                         length=6_000)
        large = run_with(PpaPolicy(), config=skylake_default().with_csq(50),
                         length=6_000)
        assert len(small.regions) > len(large.regions)

    def test_stores_become_durable(self):
        stats = run_with(PpaPolicy())
        assert all(s.durable_at < float("inf") for s in stats.stores)
        assert all(s.durable_at >= s.commit_time for s in stats.stores)

    def test_every_store_assigned_a_region(self):
        stats = run_with(PpaPolicy())
        assert all(s.region_id >= 0 for s in stats.stores)

    def test_sync_closes_region(self):
        trace = generate_trace(profile_by_name("water-ns"), length=3_000)
        stats = run_with(PpaPolicy(), trace=trace)
        assert any(r.cause == "sync" for r in stats.regions)

    def test_small_prf_forms_prf_regions(self):
        config = skylake_default().with_prf(80, 80)
        stats = run_with(PpaPolicy(), config=config, length=6_000)
        assert any(r.cause == "prf" for r in stats.regions)

    def test_small_prf_slower_than_default(self):
        small = run_with(PpaPolicy(),
                         config=skylake_default().with_prf(80, 80),
                         length=6_000)
        default = run_with(PpaPolicy(), length=6_000)
        assert small.cycles > default.cycles

    def test_synchronous_writeback_slower(self):
        base = skylake_default()
        sync_cfg = dataclasses.replace(
            base, ppa=dataclasses.replace(base.ppa, async_writeback=False))
        sync_stats = run_with(PpaPolicy(), config=sync_cfg)
        async_stats = run_with(PpaPolicy(), config=base)
        assert sync_stats.cycles > async_stats.cycles


class TestReplayCachePolicy:
    def test_short_compiler_regions(self):
        stats = run_with(ReplayCachePolicy(), length=4_000)
        assert stats.regions
        mean = sum(r.instr_count for r in stats.regions) / len(stats.regions)
        assert 6 <= mean <= 20  # around the configured mean of 12

    def test_deterministic_region_placement(self):
        a = run_with(ReplayCachePolicy(seed=1), length=2_000)
        b = run_with(ReplayCachePolicy(seed=1), length=2_000)
        assert [r.end_seq for r in a.regions] == \
            [r.end_seq for r in b.regions]

    def test_slower_than_ppa(self):
        rc = run_with(ReplayCachePolicy(), length=4_000)
        ppa = run_with(PpaPolicy(), length=4_000)
        assert rc.cycles > ppa.cycles * 2

    def test_writes_one_nvm_line_per_store(self):
        stats = run_with(ReplayCachePolicy(), length=4_000)
        assert stats.nvm_line_writes >= len(stats.stores)

    def test_rejects_tiny_regions(self):
        with pytest.raises(ValueError):
            ReplayCachePolicy(mean_region_length=1)


class TestCapriPolicy:
    def test_region_length_around_29(self):
        stats = run_with(CapriPolicy(), length=4_000)
        mean = sum(r.instr_count for r in stats.regions) / len(stats.regions)
        assert 18 <= mean <= 45

    def test_faster_than_replaycache_slower_than_ppa(self):
        # Ordering holds on warmed caches (the paper's steady state); the
        # shared runner prewarms the hierarchy.
        from repro.experiments.runner import run_points
        from repro.orchestrator.points import make_point

        capri, rc, ppa = run_points([
            make_point("gcc", scheme, length=4_000)
            for scheme in ("capri", "replaycache", "ppa")])
        assert ppa.cycles < capri.cycles < rc.cycles

    def test_stores_durable_at_commit(self):
        stats = run_with(CapriPolicy(), length=4_000)
        assert all(s.durable_at == s.commit_time for s in stats.stores)

    def test_path_write_traffic_recorded(self):
        stats = run_with(CapriPolicy(), length=4_000)
        assert stats.extra["capri_path_writes"] > 0


class TestBasePolicy:
    def test_base_rename_blocked_requires_pending_reclaim(self):
        policy = NoPersistencePolicy()
        core = OoOCore(skylake_default(), policy, track_values=False)
        from repro.isa.instructions import RegClass
        with pytest.raises(RuntimeError):
            policy.rename_blocked(RegClass.INT, 0.0, 0)
