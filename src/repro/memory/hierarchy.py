"""The full memory system below the core.

Three backends model the paper's three platforms:

* ``pmem-memory-mode`` — SRAM caches, then a direct-mapped DRAM cache, then
  NVM (Intel Optane memory mode; the paper's baseline and PPA platform).
* ``pmem-app-direct`` — SRAM caches directly over NVM (the ideal-PSP /
  eADR/BBB platform of Section 7.2, which forfeits the DRAM cache).
* ``dram-only`` — SRAM caches over volatile DRAM (Figure 9's reference).

The component caches are functional models; this module does the latency
accounting and routes dirty evictions into NVM write traffic.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.config import MemoryConfig
from repro.memory.cache import Cache, DirectMappedDramCache, Eviction
from repro.memory.nvm import NvmModel, nvm_backend


@dataclass(slots=True)
class AccessResult:
    """Outcome of one load: total latency and the level that served it."""

    latency: float
    level: str


class MemorySystem:
    """Latency and traffic model of the cache hierarchy plus backend."""

    def __init__(self, cfg: MemoryConfig, nvm: NvmModel | None = None) -> None:
        self.cfg = cfg
        self.l1d = Cache(cfg.l1d, "l1d")
        self.l2 = Cache(cfg.l2, "l2")
        self.l3 = Cache(cfg.l3, "l3") if cfg.l3 is not None else None
        if cfg.backend == "pmem-memory-mode":
            if cfg.dram_cache is None:
                raise ValueError("memory mode requires a DRAM cache config")
            self.dram_cache = DirectMappedDramCache(cfg.dram_cache)
        else:
            self.dram_cache = None
        self.nvm = nvm if nvm is not None else nvm_backend(cfg.nvm)
        self.eviction_writebacks = 0
        self.demand_loads = 0

    # ------------------------------------------------------------------
    # Eviction routing
    # ------------------------------------------------------------------

    def _sram_levels(self) -> list[Cache]:
        levels = [self.l1d, self.l2]
        if self.l3 is not None:
            levels.append(self.l3)
        return levels

    def _writeback_below_sram(self, line_addr: int, time: float) -> float:
        """A dirty line leaves the last SRAM level; returns backpressure."""
        if self.cfg.backend == "dram-only":
            return 0.0
        if self.dram_cache is not None:
            victim = self.dram_cache.fill(line_addr, dirty=True)
            if victim is not None and victim.dirty:
                return self._nvm_write(victim.line_addr, time)
            return 0.0
        return self._nvm_write(line_addr, time)

    def _nvm_write(self, line_addr: int, time: float) -> float:
        ticket = self.nvm.write_line(time, line_addr)
        self.eviction_writebacks += 1
        return ticket.backpressure

    def _handle_eviction(self, level_index: int, eviction: Eviction,
                         time: float) -> float:
        """Push an evicted line down one level; returns added latency."""
        levels = self._sram_levels()
        if not eviction.dirty:
            return 0.0
        if level_index + 1 < len(levels):
            below = levels[level_index + 1]
            victim = below.fill(eviction.line_addr, dirty=True)
            if victim is not None:
                return self._handle_eviction(level_index + 1, victim, time)
            return 0.0
        return self._writeback_below_sram(eviction.line_addr, time)

    def _fill_levels(self, line_addr: int, time: float,
                     upto_index: int) -> float:
        """Install a line into SRAM levels [0, upto_index]; returns extra
        latency caused by dirty-eviction backpressure."""
        extra = 0.0
        levels = self._sram_levels()
        for index in range(upto_index, -1, -1):
            victim = levels[index].fill(line_addr)
            if victim is not None:
                extra += self._handle_eviction(index, victim, time)
        return extra

    # ------------------------------------------------------------------
    # Demand accesses
    # ------------------------------------------------------------------

    def load(self, line_addr: int, time: float) -> AccessResult:
        """Service a demand load; mutates cache state."""
        self.demand_loads += 1
        if self.l1d.access(line_addr, write=False):
            return AccessResult(self.cfg.l1d.hit_latency, "l1")
        latency = float(self.cfg.l1d.hit_latency)
        if self.l2.access(line_addr, write=False):
            latency += self.cfg.l2.hit_latency
            latency += self._fill_levels(line_addr, time, 0)
            return AccessResult(latency, "l2")
        latency += self.cfg.l2.hit_latency
        last_sram = 1
        if self.l3 is not None:
            if self.l3.access(line_addr, write=False):
                latency += self.cfg.l3.hit_latency
                latency += self._fill_levels(line_addr, time, 1)
                return AccessResult(latency, "l3")
            latency += self.cfg.l3.hit_latency
            last_sram = 2
        backend_latency, level = self._backend_read(line_addr, time + latency)
        latency += backend_latency
        latency += self._fill_levels(line_addr, time, last_sram)
        return AccessResult(latency, level)

    def _backend_read(self, line_addr: int,
                      time: float) -> tuple[float, str]:
        if self.cfg.backend == "dram-only":
            return float(self.cfg.dram_only_latency), "dram"
        if self.cfg.backend == "pmem-app-direct":
            return self.nvm.read(time, line_addr), "nvm"
        assert self.dram_cache is not None
        probe = float(self.cfg.dram_cache.hit_latency)
        if self.dram_cache.access(line_addr, write=False):
            return probe, "dram$"
        latency = probe + self.nvm.read(time + probe, line_addr)
        victim = self.dram_cache.fill(line_addr)
        if victim is not None and victim.dirty:
            self._nvm_write(victim.line_addr, time + latency)
        return latency, "nvm"

    def store_rfo(self, line_addr: int, time: float) -> float:
        """Issue the store's read-for-ownership at execute time; returns
        when the line is available in L1D. A hit costs nothing extra — the
        line is simply already present at commit."""
        if self.l1d.lookup(line_addr):
            return time
        result = self.load(line_addr, time)
        self.demand_loads -= 1   # RFOs are not demand loads
        return time + result.latency

    def store_merge(self, line_addr: int, time: float) -> float:
        """Merge a committed store into L1D (write-allocate).

        Returns the cycle at which the line is dirty in L1D — the point the
        store leaves the store queue and, under PPA, the point the persist
        op is generated. The RFO normally prefetched the line already.
        """
        if self.l1d.access(line_addr, write=True):
            return time + self.cfg.l1d.hit_latency
        # RFO fill was evicted before commit: fetch again.
        result = self.load(line_addr, time)
        self.l1d.access(line_addr, write=True)
        return time + result.latency

    # ------------------------------------------------------------------
    # Warmup
    # ------------------------------------------------------------------

    def prewarm_extents(self, extents) -> None:
        """Install steady-state cache contents from ``(name, base, size)``
        address-range extents: hot ranges into L1D and below, warm ranges
        into L2/L3. Ranges larger than a level are stride-sampled so the
        level holds a uniform subset at ~85 % occupancy — the emergent hit
        rate is then capacity-proportional, as for a random-access set.
        No line is filled: a level derives a set on its first lookup.
        """
        levels = self._sram_levels()
        if taken := [level.name for level in levels if level.holds_lines()]:
            raise ValueError(f"prewarm_extents: {taken} already hold lines")
        hot = [(base, size) for name, base, size in extents
               if name in ("stack", "hot")]
        warm = [(base, size) for name, base, size in extents
                if name in ("stack", "hot", "warm")]
        for level in levels:
            ranges = hot if level is self.l1d else warm
            budget = int(level.cfg.num_sets * level.cfg.assoc * 0.85)
            total_lines = sum(size // 64 for __, size in ranges)
            if total_lines == 0:
                continue
            if budget == 0:
                raise ValueError(
                    f"prewarm_extents: {level.name} ({level.cfg.num_sets} "
                    f"sets x {level.cfg.assoc} ways) has no line to "
                    "prewarm at 85% occupancy")
            stride = max(1, -(-total_lines // budget))  # ceil division
            level.prewarm_ranges(
                [(base, len(range(0, size // 64, stride)))
                 for base, size in ranges], stride * 64)

    def copy_warm_state_from(self, template: "MemorySystem") -> None:
        """Clone a prewarmed template's cache contents into this system.

        Equivalent to replaying the exact declare/prewarm sequence the
        template went through. The SRAM levels become copy-on-write clones
        (see :meth:`Cache.copy_state_from`), so the template must never be
        written again. Only cache-side state moves; this system keeps its
        own NVM model and counters (prewarming generates no NVM traffic, so
        the template's backend was never touched).
        """
        self.l1d.copy_state_from(template.l1d)
        self.l2.copy_state_from(template.l2)
        if self.l3 is not None and template.l3 is not None:
            self.l3.copy_state_from(template.l3)
        if self.dram_cache is not None and template.dram_cache is not None:
            self.dram_cache.copy_state_from(template.dram_cache)
        self.eviction_writebacks = template.eviction_writebacks
        self.demand_loads = template.demand_loads

    def prewarm(self, accesses) -> None:
        """Functionally replay ``(line_addr, is_write)`` pairs to establish
        steady-state cache contents before a measured run.

        No latencies accrue and no NVM traffic is generated — this stands in
        for the billions of fast-forwarded instructions the paper executes
        before detailed simulation (Section 7).
        """
        levels = self._sram_levels()
        for line_addr, is_write in accesses:
            hit = self.l1d.access(line_addr, is_write)
            if not hit:
                for level in levels[1:]:
                    if level.access(line_addr, write=False):
                        break
                if self.dram_cache is not None:
                    if not self.dram_cache.access(line_addr, write=False):
                        self.dram_cache.fill(line_addr)
                for level in reversed(levels):
                    level.fill(line_addr, dirty=is_write and level is self.l1d)
        # Reset demand counters so measured hit rates exclude the warmup.
        for level in levels:
            level.hits = 0
            level.misses = 0
        if self.dram_cache is not None:
            self.dram_cache.hits = 0
            self.dram_cache.misses = 0

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def l2_miss_rate(self) -> float:
        total = self.l2.hits + self.l2.misses
        return self.l2.misses / total if total else 0.0
