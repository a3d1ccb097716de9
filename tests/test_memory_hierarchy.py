"""The memory system: load paths per backend, stores, prewarming."""

import dataclasses

import pytest

from repro.config import CacheConfig, skylake_default
from repro.memory.hierarchy import MemorySystem


def make_system(backend="pmem-memory-mode", l3=False) -> MemorySystem:
    config = skylake_default()
    if l3:
        config = config.with_l3()
    mem_cfg = dataclasses.replace(config.memory, backend=backend)
    return MemorySystem(mem_cfg)


class TestLoadPath:
    def test_l1_hit_latency(self):
        mem = make_system()
        mem.l1d.fill(0)
        result = mem.load(0, 0.0)
        assert result.level == "l1"
        assert result.latency == 4

    def test_l2_hit_latency(self):
        mem = make_system()
        mem.l2.fill(0)
        result = mem.load(0, 0.0)
        assert result.level == "l2"
        assert result.latency == 4 + 44

    def test_l2_hit_fills_l1(self):
        mem = make_system()
        mem.l2.fill(0)
        mem.load(0, 0.0)
        assert mem.load(0, 0.0).level == "l1"

    def test_dram_cache_hit(self):
        mem = make_system()
        mem.dram_cache.fill(0)
        result = mem.load(0, 0.0)
        assert result.level == "dram$"
        assert result.latency == 4 + 44 + 100

    def test_cold_miss_reaches_nvm(self):
        mem = make_system()
        result = mem.load(0, 0.0)
        assert result.level == "nvm"
        assert result.latency >= 4 + 44 + 100 + mem.nvm.read_latency

    def test_l3_in_the_path(self):
        mem = make_system(l3=True)
        mem.l3.fill(0)
        result = mem.load(0, 0.0)
        assert result.level == "l3"
        assert result.latency == 4 + 14 + 44

    def test_app_direct_skips_dram_cache(self):
        mem = make_system(backend="pmem-app-direct")
        assert mem.dram_cache is None
        result = mem.load(0, 0.0)
        assert result.level == "nvm"
        assert result.latency == pytest.approx(4 + 44 + mem.nvm.read_latency)

    def test_dram_only_flat_latency(self):
        mem = make_system(backend="dram-only")
        result = mem.load(0, 0.0)
        assert result.level == "dram"
        assert result.latency == 4 + 44 + 100

    def test_memory_mode_requires_dram_cache_config(self):
        config = skylake_default()
        bad = dataclasses.replace(config.memory, dram_cache=None)
        with pytest.raises(ValueError):
            MemorySystem(bad)


class TestEvictions:
    def test_dirty_l2_eviction_reaches_dram_cache(self):
        mem = make_system()
        # Make an L2 set overflow with dirty lines.
        assoc = mem.cfg.l2.assoc
        set_stride = mem.cfg.l2.num_sets * 64
        for index in range(assoc + 1):
            mem.l2.fill(index * set_stride, dirty=True)
        # One dirty victim was pushed below the SRAM levels via fill():
        # handled internally, but the public path is load-driven; just
        # check the victim is gone from L2.
        assert not mem.l2.lookup(0)

    def test_dram_cache_dirty_victim_writes_nvm(self):
        mem = make_system()
        mem.dram_cache.fill(0, dirty=True)
        alias = mem.cfg.dram_cache.size_bytes
        writes_before = mem.nvm.stats.line_writes
        mem._writeback_below_sram(alias, 0.0)
        # Filling the aliasing line evicted the dirty one to NVM.
        assert mem.nvm.stats.line_writes >= writes_before

    def test_dram_only_evictions_vanish(self):
        mem = make_system(backend="dram-only")
        assert mem._writeback_below_sram(0, 0.0) == 0.0
        assert mem.nvm.stats.line_writes == 0

    def test_app_direct_eviction_writes_nvm(self):
        mem = make_system(backend="pmem-app-direct")
        mem._writeback_below_sram(0, 0.0)
        assert mem.nvm.stats.line_writes == 1
        assert mem.eviction_writebacks == 1


class TestStores:
    def test_store_rfo_prefetches_line(self):
        mem = make_system()
        done = mem.store_rfo(0, 0.0)
        assert done > 0.0
        assert mem.l1d.lookup(0)

    def test_store_rfo_hit_is_free(self):
        mem = make_system()
        mem.l1d.fill(0)
        assert mem.store_rfo(0, 5.0) == 5.0

    def test_rfo_does_not_count_as_demand_load(self):
        mem = make_system()
        mem.store_rfo(0, 0.0)
        assert mem.demand_loads == 0

    def test_store_merge_after_rfo_is_l1_speed(self):
        mem = make_system()
        mem.store_rfo(0, 0.0)
        merge = mem.store_merge(0, 100.0)
        assert merge == 100.0 + mem.cfg.l1d.hit_latency

    def test_store_merge_marks_line_dirty(self):
        mem = make_system()
        mem.store_rfo(0, 0.0)
        mem.store_merge(0, 1.0)
        assert mem.l1d.contents()[0] == [(0, True)]

    def test_store_merge_without_rfo_refetches(self):
        mem = make_system()
        merge = mem.store_merge(0, 0.0)
        assert merge > mem.cfg.l1d.hit_latency


class TestPrewarm:
    def test_prewarm_extents_fills_hot_into_l1(self):
        mem = make_system()
        mem.prewarm_extents([("hot", 0, 16 << 10)])
        assert mem.load(0, 0.0).level == "l1"

    def test_prewarm_extents_fills_warm_into_l2(self):
        mem = make_system()
        mem.prewarm_extents([("warm", 0, 1 << 20)])
        assert mem.load(0, 0.0).level == "l2"

    def test_prewarm_oversized_range_is_sampled(self):
        mem = make_system()
        mem.prewarm_extents([("warm", 0, 64 << 20)])  # 4x the L2
        resident = mem.l2.resident_lines()
        capacity = mem.cfg.l2.num_sets * mem.cfg.l2.assoc
        assert 0 < resident <= capacity

    def test_prewarm_stream_not_installed(self):
        mem = make_system()
        mem.prewarm_extents([("stream", 0, 1 << 20)])
        assert mem.load(0, 0.0).level in ("dram$", "nvm")

    def test_prewarm_level_with_no_line_budget_is_a_value_error(self):
        # One 64-byte line: int(1 * 1 * 0.85) == 0 lines to prewarm.
        config = skylake_default().memory
        mem = MemorySystem(dataclasses.replace(
            config, l1d=CacheConfig(64, 1, 1)))
        with pytest.raises(ValueError, match=r"l1d \(1 sets x 1 ways\)"):
            mem.prewarm_extents([("hot", 0, 4096)])

    def test_prewarm_accesses_resets_counters(self):
        mem = make_system()
        mem.prewarm([(0, False), (64, True)])
        assert mem.l1d.hits == 0
        assert mem.l1d.misses == 0

    def test_l2_miss_rate(self):
        mem = make_system()
        mem.l2.fill(0)
        mem.load(0, 0.0)      # L2 hit
        mem.load(1 << 20, 0.0)  # L2 miss
        assert mem.l2_miss_rate() == 0.5
