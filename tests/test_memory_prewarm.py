"""The derived steady state of ``MemorySystem.prewarm_extents`` against a
replay of the stride fill it stands for."""

import dataclasses

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

from repro.config import CacheConfig, skylake_default
from repro.memory.hierarchy import MemorySystem
from repro.workloads.interning import region_extents
from repro.workloads.profiles import ALL_PROFILES


def stride_fill(memory: MemorySystem, extents) -> None:
    """The reference: fill every ``stride``-th 64-byte line of each level's
    ranges, in order, so the level holds about 85 % of its capacity."""
    def fill_level(cache, ranges):
        budget = int(cache.cfg.num_sets * cache.cfg.assoc * 0.85)
        total_lines = sum(size // 64 for __, size in ranges)
        if total_lines == 0:
            return
        stride = max(1, -(-total_lines // budget))  # ceil division
        for base, size in ranges:
            for index in range(0, size // 64, stride):
                cache.fill(base + index * 64)

    hot = [(base, size) for name, base, size in extents
           if name in ("stack", "hot")]
    warm = [(base, size) for name, base, size in extents
            if name in ("stack", "hot", "warm")]
    if memory.l3 is not None:
        fill_level(memory.l3, warm)
    fill_level(memory.l2, warm)
    fill_level(memory.l1d, hot)


def levels(memory: MemorySystem):
    return [cache for cache in (memory.l1d, memory.l2, memory.l3)
            if cache is not None]


def assert_same_state(derived: MemorySystem, replayed: MemorySystem) -> None:
    for mine, theirs in zip(levels(derived), levels(replayed), strict=True):
        # contents() lists each set LRU first, with its dirty bits.
        assert mine.contents() == theirs.contents(), mine.name


def both(cfg, extents) -> tuple[MemorySystem, MemorySystem]:
    derived, replayed = MemorySystem(cfg), MemorySystem(cfg)
    derived.prewarm_extents(extents)
    stride_fill(replayed, extents)
    return derived, replayed


def test_every_profile_matches_the_stride_fill():
    """All 41 profiles, on the default hierarchy and on the one with an L3.
    The stride fill skips "stream" ranges and fills each level on its own,
    so one replay on the L3 hierarchy serves every profile whose other
    ranges are equal, and its L1D and L3 serve the default hierarchy,
    whose L2 is that L3."""
    config = skylake_default()
    plain, with_l3 = config.memory, config.with_l3().memory
    assert (plain.l1d, plain.l2) == (with_l3.l1d, with_l3.l3)
    distinct = {}
    for profile in ALL_PROFILES:
        extents = region_extents(profile)
        distinct.setdefault(
            tuple(e for e in extents if e[0] != "stream"), extents)
    for extents in distinct.values():
        replayed = MemorySystem(with_l3)
        stride_fill(replayed, extents)
        expected = [cache.contents() for cache in levels(replayed)]
        for cfg, wanted in ((plain, [expected[0], expected[2]]),
                            (with_l3, expected)):
            derived = MemorySystem(cfg)
            derived.prewarm_extents(extents)
            # contents() lists each set LRU first, with its dirty bits.
            assert [cache.contents() for cache in levels(derived)] == wanted


def _geometry(line_bytes: int, num_sets: int, assoc: int) -> CacheConfig:
    return CacheConfig(num_sets * line_bytes * assoc, assoc, 1, line_bytes)


extent = st.tuples(
    st.sampled_from(["stack", "hot", "warm", "stream"]),
    st.builds(lambda line, offset: line * 64 + offset,
              st.integers(0, 40), st.sampled_from([0, 0, 8, 24, 40])),
    st.integers(0, 3000))


@settings(max_examples=150, deadline=None)
@given(line_bytes=st.sampled_from([16, 32, 48, 64, 96, 128, 256]),
       l1_sets=st.sampled_from([1, 2, 3, 4, 6, 8]),
       l2_sets=st.sampled_from([2, 4, 6, 8, 12, 16]),
       assoc=st.integers(1, 4),
       with_l3=st.booleans(),
       extents=st.lists(extent, min_size=1, max_size=4))
# Stride 4 over 8 sets (gcd 4), one way, a base off the 64-byte grid.
@example(line_bytes=64, l1_sets=2, l2_sets=8, assoc=1, with_l3=False,
         extents=[("warm", 24, 64 * 32)])
# Overlapping ranges with 128-byte lines and an odd stride.
@example(line_bytes=128, l1_sets=2, l2_sets=4, assoc=2, with_l3=True,
         extents=[("hot", 0, 64 * 40), ("warm", 64 * 8, 64 * 30),
                  ("stack", 8, 64 * 20)])
def test_small_geometries_match_the_stride_fill(line_bytes, l1_sets,
                                                l2_sets, assoc, with_l3,
                                                extents):
    if l1_sets * assoc < 2:      # the fill budget would be zero lines
        l1_sets = 2
    l2 = _geometry(line_bytes, l2_sets, assoc)
    cfg = dataclasses.replace(
        skylake_default().memory, l1d=_geometry(line_bytes, l1_sets, assoc),
        l2=l2, l3=_geometry(line_bytes, 2 * l2_sets, assoc) if with_l3
        else None)
    derived, replayed = both(cfg, extents)
    assert_same_state(derived, replayed)
    # Writes copy derived sets before touching them, and then evolve as
    # the replayed sets do, dirty bits included.
    time = 0.0
    for k in range(0, 3000, 37):
        line = extents[k % len(extents)][1] + k * 16
        for memory in (derived, replayed):
            memory.store_rfo(line, time)
            memory.store_merge(line, time)
            memory.load(line + 64, time)
    assert_same_state(derived, replayed)
    assert derived.nvm.stats.line_writes == replayed.nvm.stats.line_writes


class TestPrewarmNeedsEmptyLevels:
    def test_filled_level_is_refused(self):
        memory = MemorySystem(skylake_default().memory)
        memory.l2.fill(0x10_0000)
        with pytest.raises(ValueError, match="l2.*already hold"):
            memory.prewarm_extents([("warm", 0x10_0000, 1 << 20)])
        assert not memory.l1d.holds_lines()   # nothing half applied

    def test_second_prewarm_is_refused(self):
        memory = MemorySystem(skylake_default().memory)
        memory.prewarm_extents([("hot", 0, 16 << 10)])
        with pytest.raises(ValueError, match="already hold"):
            memory.prewarm_extents([("hot", 0, 16 << 10)])
