"""Set-associative SRAM caches and the direct-mapped DRAM cache.

These are functional-plus-occupancy models: they track which lines are
resident and dirty so hit rates and writeback traffic emerge from the access
stream, while latency accounting lives in :mod:`repro.memory.hierarchy`.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from repro.config import CacheConfig, DramCacheConfig


@dataclass(slots=True)
class Eviction:
    """A line pushed out of a cache level."""

    line_addr: int
    dirty: bool


class _SetMap(dict):
    """Set index -> set, never written; derives and keeps a set on first
    lookup (every set is empty while ``derive`` is None)."""

    derive = None

    def __missing__(self, index: int) -> dict[int, bool]:
        derive = self.derive
        return {} if derive is None else self.setdefault(index, derive(index))


_COLD = _SetMap()


def _stride_fill(ranges, step: int, line_bytes: int, num_sets: int,
                 assoc: int):
    """``derive(index)``: the set at ``index`` after filling ``range(base,
    base + count * step, step)`` of each ``(base, count)`` range, in order,
    into an empty LRU cache, which keeps the last ``assoc`` distinct lines.
    In a range, the lines of one set form at most ``p`` arithmetic
    progressions, each solved in closed form for its last ``assoc``."""
    p = line_bytes // gcd(step, line_bytes)  # period of the line offset
    stride = p * step                   # bytes between progression terms
    g = gcd(stride // line_bytes, num_sets)
    period = num_sets // g
    inverse = pow(stride // line_bytes // g, -1, period) if period > 1 else 0
    spans = sorted((base, base + count * step) for base, count in ranges)
    disjoint = all(a[1] <= b[0] for a, b in zip(spans, spans[1:]))
    # (terms, interleaved): a range of several progressions interleaves
    # their lines, so its finds are sorted back into fill order; ranges
    # of one progression each already find in fill order, so a run of
    # them shares one flat group.
    groups: list[tuple[list, bool]] = []
    for base, count in ranges:
        terms = [(first, len(range(r, count, p)), first // line_bytes)
                 for r in range(min(p, count))
                 for first in (base + r * step,)]
        if len(terms) > 1:
            groups.append((terms, True))
        elif groups and not groups[-1][1]:
            groups[-1][0].extend(terms)
        else:
            groups.append((terms, False))

    def derive(index: int) -> dict[int, bool]:
        found = []                      # in fill order
        for terms, interleaved in groups:
            size = len(found)
            for first, count, first_line in terms:
                q = index - first_line
                if q % g == 0 and (q := q // g * inverse % period) < count:
                    found += range(first + q * stride, first + count * stride,
                                   period * stride)[-assoc:]
            if interleaved:
                found[size:] = sorted(found[size:])
        if not disjoint:                # a refilled line counts once, last
            found = list(dict.fromkeys(reversed(found)))[assoc - 1::-1]
        return dict.fromkeys(found[-assoc:], False)

    return derive


class Cache:
    """An LRU set-associative cache with dirty-bit tracking.

    Each set is a plain ``dict`` mapping line address to dirty bit, kept in
    LRU order (first key is the victim); a hit pops and re-inserts its line.
    A dict holding only ints and bools is not tracked by CPython's cycle
    collector, so resident lines add nothing to GC passes.

    Until its first write, a set is read from a base map that is never
    written: empty for a cold cache, derived on first lookup for a
    prewarmed one (:meth:`prewarm_ranges`), a template's for a clone
    (:meth:`copy_state_from`). The first write copies the set in.
    """

    def __init__(self, cfg: CacheConfig, name: str = "cache") -> None:
        if cfg.num_sets <= 0:
            raise ValueError(f"{name}: config yields no sets")
        self.cfg = cfg
        self.name = name
        self._sets: dict[int, dict[int, bool]] = {}
        self._base = _COLD
        self._is_clone = False
        # Geometry cached as plain ints: num_sets is a derived property on
        # the config and too slow to recompute per access.
        self._line_bytes = cfg.line_bytes
        self._num_sets = cfg.num_sets
        self._assoc = cfg.assoc
        self.hits = 0
        self.misses = 0

    def _set_index(self, line_addr: int) -> int:
        return (line_addr // self._line_bytes) % self._num_sets

    def holds_lines(self) -> bool:
        """Whether a line was ever filled, prewarmed or cloned in."""
        return bool(self._sets) or self._base is not _COLD

    def prewarm_ranges(self, ranges, step: int) -> None:
        """Become what an empty cache is after filling ``range(base, base +
        count * step, step)`` of each ``(base, count)`` range in order."""
        self._base = _SetMap()
        self._base.derive = _stride_fill(
            ranges, step, self._line_bytes, self._num_sets, self._assoc)

    def copy_state_from(self, other: "Cache") -> None:
        """Become a copy-on-write clone of a (same-config) template cache.

        Nothing is copied up front: the clone reads the template's base
        map, into which the template's own sets are moved first, and
        copies a set into its own map on that set's first mutation.
        Cloning a clone is refused, because a clone writes its own sets.
        """
        if other._is_clone:
            raise ValueError(f"{self.name}: cannot clone from a clone")
        if other._sets:
            base = other._base
            other._base = _SetMap({**base, **other._sets})
            other._base.derive, other._sets = base.derive, {}
        self._sets = {}
        self._base = other._base
        self._is_clone = True
        self.hits = other.hits
        self.misses = other.misses

    def lookup(self, line_addr: int) -> bool:
        """Probe without modifying replacement state."""
        index = self._set_index(line_addr)
        s = self._sets.get(index)
        if s is None:
            s = self._base[index]
        return line_addr in s

    def access(self, line_addr: int, write: bool) -> bool:
        """Reference a line; returns True on hit. Does not allocate on miss."""
        index = self._set_index(line_addr)
        s = self._sets.get(index)
        if s is None:
            s = self._base[index]
            if line_addr not in s:
                self.misses += 1
                return False
            s = self._sets[index] = s.copy()
        elif line_addr not in s:
            self.misses += 1
            return False
        s[line_addr] = s.pop(line_addr) or write
        self.hits += 1
        return True

    def fill(self, line_addr: int, dirty: bool = False) -> Eviction | None:
        """Insert a line, evicting the LRU victim of the set if needed."""
        index = self._set_index(line_addr)
        s = self._sets.get(index)
        if s is None:
            s = self._sets[index] = self._base[index].copy()
        if line_addr in s:
            s[line_addr] = s.pop(line_addr) or dirty
            return None
        victim = None
        if len(s) >= self._assoc:
            victim_addr = next(iter(s))
            victim = Eviction(victim_addr, s.pop(victim_addr))
        s[line_addr] = dirty
        return victim

    def contents(self) -> dict[int, list[tuple[int, bool]]]:
        """Every non-empty set's ``(line_addr, dirty)`` pairs, LRU first,
        keyed by set index; derives every set of a prewarmed base."""
        own, base = self._sets, self._base
        return {index: list(s.items()) for index in range(self._num_sets)
                if (s := own[index] if index in own else base[index])}

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def resident_lines(self) -> int:
        return sum(map(len, self.contents().values()))


class DirectMappedDramCache:
    """The 4 GB direct-mapped DRAM cache of PMEM's memory mode.

    One (tag, dirty) slot per set, stored sparsely. With application
    footprints far below 4 GB, misses are dominated by cold fills — exactly
    the behaviour the paper leans on for streaming workloads such as lbm.
    """

    def __init__(self, cfg: DramCacheConfig) -> None:
        self.cfg = cfg
        self._slots: dict[int, tuple[int, bool]] = {}
        # Steady-state resident address ranges (see add_resident_range).
        self._resident: list[tuple[int, int, float]] = []
        self._line_bytes = cfg.line_bytes
        self._num_sets = cfg.num_sets
        self.hits = 0
        self.misses = 0

    def copy_state_from(self, other: "DirectMappedDramCache") -> None:
        """Adopt a template's slots, resident ranges, and counters."""
        self._slots = dict(other._slots)
        self._resident = list(other._resident)
        self.hits = other.hits
        self.misses = other.misses

    def add_resident_range(self, base: int, size: int,
                           conflict_frac: float = 0.0) -> None:
        """Declare ``[base, base+size)`` steady-state resident, standing in
        for the billions of warmup instructions that would have filled the
        direct-mapped cache with this footprint (sub-4 GB footprints fit).

        ``conflict_frac`` models direct-mapped aliasing under OS page
        scatter: that fraction of the range's *lines* permanently thrash
        with other physical pages and always miss — the effect behind
        lbm/pc's poor DRAM-cache behaviour (Section 7.1). The choice is
        deterministic per line (a hash), as real aliasing is.
        """
        if not 0.0 <= conflict_frac <= 1.0:
            raise ValueError("conflict_frac must be within [0, 1]")
        self._resident.append((base, base + size, conflict_frac))

    @staticmethod
    def _line_conflicts(line_addr: int, conflict_frac: float) -> bool:
        if conflict_frac <= 0.0:
            return False
        h = ((line_addr >> 6) * 2654435761) & 0xFFFFFFFF
        return h / 2**32 < conflict_frac

    def _range_resident(self, line_addr: int) -> bool:
        for base, end, conflict_frac in self._resident:
            if base <= line_addr < end:
                return not self._line_conflicts(line_addr, conflict_frac)
        return False

    def _set_index(self, line_addr: int) -> int:
        return (line_addr // self._line_bytes) % self._num_sets

    def access(self, line_addr: int, write: bool) -> bool:
        index = self._set_index(line_addr)
        slot = self._slots.get(index)
        if slot is not None and slot[0] == line_addr:
            if write:
                self._slots[index] = (line_addr, True)
            self.hits += 1
            return True
        if slot is None and self._range_resident(line_addr):
            self._slots[index] = (line_addr, write)
            self.hits += 1
            return True
        self.misses += 1
        return False

    def fill(self, line_addr: int, dirty: bool = False) -> Eviction | None:
        index = self._set_index(line_addr)
        slot = self._slots.get(index)
        victim = None
        if slot is not None and slot[0] != line_addr:
            victim = Eviction(slot[0], slot[1])
        elif slot is not None:
            dirty = dirty or slot[1]
        self._slots[index] = (line_addr, dirty)
        return victim

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0
