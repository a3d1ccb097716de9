"""SRAM cache and DRAM-cache models."""

import pytest

from repro.config import CacheConfig, DramCacheConfig
from repro.memory.cache import Cache, DirectMappedDramCache


def small_cache(assoc=2, sets=4) -> Cache:
    return Cache(CacheConfig(size_bytes=64 * assoc * sets, assoc=assoc,
                             hit_latency=4), "test")


def dirty(cache: Cache, line_addr: int) -> bool:
    """The dirty bit of a resident line, read through ``contents()``."""
    return dict(line for lines in cache.contents().values()
                for line in lines)[line_addr]


class TestCacheBasics:
    def test_cold_miss_then_hit_after_fill(self):
        cache = small_cache()
        assert not cache.access(0, write=False)
        cache.fill(0)
        assert cache.access(0, write=False)

    def test_access_does_not_allocate(self):
        cache = small_cache()
        cache.access(0, write=False)
        assert not cache.lookup(0)

    def test_lookup_does_not_touch_counters(self):
        cache = small_cache()
        cache.fill(0)
        hits_before = cache.hits
        cache.lookup(0)
        assert cache.hits == hits_before

    def test_write_sets_dirty(self):
        cache = small_cache()
        cache.fill(0)
        cache.access(0, write=True)
        assert dirty(cache, 0) is True

    def test_read_leaves_clean(self):
        cache = small_cache()
        cache.fill(0)
        cache.access(0, write=False)
        assert dirty(cache, 0) is False

    def test_hit_rate(self):
        cache = small_cache()
        cache.fill(0)
        cache.access(0, write=False)
        cache.access(64 * 4, write=False)  # same set, different tag: miss
        assert cache.hit_rate == 0.5

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            Cache(CacheConfig(size_bytes=0, assoc=2, hit_latency=1))


class TestCacheReplacement:
    def test_lru_eviction_order(self):
        cache = small_cache(assoc=2, sets=1)
        cache.fill(0)
        cache.fill(64)
        victim = cache.fill(128)
        assert victim is not None
        assert victim.line_addr == 0  # least recently used

    def test_access_refreshes_lru(self):
        cache = small_cache(assoc=2, sets=1)
        cache.fill(0)
        cache.fill(64)
        cache.access(0, write=False)      # 0 becomes MRU
        victim = cache.fill(128)
        assert victim.line_addr == 64

    def test_eviction_carries_dirty_bit(self):
        cache = small_cache(assoc=1, sets=1)
        cache.fill(0, dirty=True)
        victim = cache.fill(64)
        assert victim.dirty

    def test_refill_merges_dirty(self):
        cache = small_cache()
        cache.fill(0, dirty=True)
        assert cache.fill(0, dirty=False) is None
        assert dirty(cache, 0) is True

    def test_different_sets_do_not_conflict(self):
        cache = small_cache(assoc=1, sets=4)
        assert cache.fill(0) is None
        assert cache.fill(64) is None     # next set
        assert cache.lookup(0)

    def test_contents_lists_sets_in_lru_order(self):
        cache = small_cache(assoc=2, sets=2)
        cache.fill(0)
        cache.fill(128, dirty=True)
        cache.fill(64)
        cache.access(0, write=True)       # 0 becomes MRU, and dirty
        assert cache.contents() == {0: [(128, True), (0, True)],
                                    1: [(64, False)]}

    def test_resident_lines_counts(self):
        cache = small_cache()
        cache.fill(0)
        cache.fill(64)
        assert cache.resident_lines() == 2


class TestCopyOnWriteClone:
    def _template(self) -> Cache:
        template = small_cache(assoc=2, sets=2)
        template.fill(0)
        template.fill(128)
        template.fill(64, dirty=True)
        return template

    def _clone(self, template: Cache) -> Cache:
        clone = small_cache(assoc=2, sets=2)
        clone.copy_state_from(template)
        return clone

    def test_clone_reads_through_to_template(self):
        template = self._template()
        clone = self._clone(template)
        assert clone.contents() == template.contents()
        assert clone.lookup(128) and not clone.lookup(192)
        assert not clone.access(192, write=False)   # a miss copies nothing
        assert clone.resident_lines() == 3

    def test_writes_never_reach_the_template(self):
        template = self._template()
        pristine = template.contents()
        clone = self._clone(template)
        clone.access(0, write=True)                 # LRU update + dirty
        victim = clone.fill(256)                    # evicts 128
        assert (victim.line_addr, victim.dirty) == (128, False)
        clone.fill(64)
        assert clone.contents() == {0: [(0, True), (256, False)],
                                    1: [(64, True)]}
        assert template.contents() == pristine
        assert self._clone(template).contents() == pristine

    def test_cloning_a_clone_is_refused(self):
        clone = self._clone(self._template())
        with pytest.raises(ValueError, match="clone"):
            self._clone(clone)


class TestDramCache:
    def _cache(self) -> DirectMappedDramCache:
        return DirectMappedDramCache(DramCacheConfig(size_bytes=1 << 20))

    def test_cold_miss(self):
        assert not self._cache().access(0, write=False)

    def test_fill_then_hit(self):
        cache = self._cache()
        cache.fill(0)
        assert cache.access(0, write=False)

    def test_direct_mapped_conflict(self):
        cache = self._cache()
        alias = 1 << 20  # maps to the same slot
        cache.fill(0, dirty=True)
        victim = cache.fill(alias)
        assert victim is not None
        assert victim.line_addr == 0
        assert victim.dirty

    def test_refill_same_line_keeps_dirty(self):
        cache = self._cache()
        cache.fill(0, dirty=True)
        assert cache.fill(0, dirty=False) is None

    def test_write_hit_sets_dirty(self):
        cache = self._cache()
        cache.fill(0)
        cache.access(0, write=True)
        victim = cache.fill(1 << 20)
        assert victim.dirty


class TestDramCacheResidency:
    def test_resident_range_hits_cold(self):
        cache = DirectMappedDramCache(DramCacheConfig())
        cache.add_resident_range(0x1000, 1 << 20)
        assert cache.access(0x1000, write=False)

    def test_outside_range_misses(self):
        cache = DirectMappedDramCache(DramCacheConfig())
        cache.add_resident_range(0x1000, 1 << 20)
        assert not cache.access(0x1000 + (2 << 20), write=False)

    def test_conflict_fraction_rejects_bad_values(self):
        cache = DirectMappedDramCache(DramCacheConfig())
        with pytest.raises(ValueError):
            cache.add_resident_range(0, 64, conflict_frac=1.5)

    def test_conflict_fraction_is_deterministic_per_line(self):
        cache = DirectMappedDramCache(DramCacheConfig())
        cache.add_resident_range(0, 64 << 20, conflict_frac=0.5)
        first = [cache.access(line * 64, write=False)
                 for line in range(256)]
        cache2 = DirectMappedDramCache(DramCacheConfig())
        cache2.add_resident_range(0, 64 << 20, conflict_frac=0.5)
        second = [cache2.access(line * 64, write=False)
                  for line in range(256)]
        assert first == second

    def test_conflict_fraction_misses_about_right(self):
        cache = DirectMappedDramCache(DramCacheConfig())
        cache.add_resident_range(0, 1 << 30, conflict_frac=0.3)
        lines = 4000
        misses = sum(
            0 if cache.access(line * 64, write=False) else 1
            for line in range(lines))
        assert 0.2 < misses / lines < 0.4

    def test_zero_conflict_always_resident(self):
        cache = DirectMappedDramCache(DramCacheConfig())
        cache.add_resident_range(0, 1 << 20, conflict_frac=0.0)
        assert all(cache.access(line * 64, write=False)
                   for line in range(100))
