"""Warm-memory templates: prewarm each (config, extents) pair once.

``MemorySystem.prewarm_extents`` stands for stride-filling every SRAM
level (33k-198k ``Cache.fill`` calls per shipped profile on the default
hierarchy) but fills nothing: a level derives a set in closed form on
its first lookup and keeps it. The state is deterministic (no RNG in
declare/prewarm), a pure function of ``(memory config, region
extents)``. This module builds one *template* per key and makes each
fresh :class:`MemorySystem` a copy-on-write clone of it.

Bit-exactness: a clone's SRAM levels read the template's set maps until
they first write a set, and then copy that set (replacement order and
dirty bits included); the DRAM-cache slots, resident ranges and hit/miss
counters are copied outright. A cloned system is therefore
indistinguishable from one that replayed the fills itself. A template
only gains pristine derived sets, and its own NVM model is never
touched, so clones always get their own backend.
"""

from __future__ import annotations

from repro.config import MemoryConfig
from repro.memory.hierarchy import MemorySystem
from repro.memory.nvm import NvmModel

# Capped like the trace intern pool. A template holds the sets its runs
# have read (a 12,000-instruction fig16 script: 500-2,800 of L2's 16,384);
# fully derived, 7-10 MB on CPython 3.11 (rb: 99,872 L2 lines, 10.1 MB).
_MAX_TEMPLATES = 32

_templates: dict[tuple, MemorySystem] = {}

stats = {"hits": 0, "builds": 0}


def declare_resident_extents(memory: MemorySystem, extents) -> None:
    """Mark non-streaming regions DRAM-cache resident: after the billions
    of instructions the paper fast-forwards, a sub-4 GB reused footprint
    sits in the direct-mapped DRAM cache, while streaming data outruns it."""
    if memory.dram_cache is None:
        return
    dram_bytes = memory.cfg.dram_cache.size_bytes if memory.cfg.dram_cache \
        else 4 << 30
    for name, base, size in extents:
        if name == "stream":
            # Large streaming data suffers direct-mapped aliasing under OS
            # page scatter; the conflict share grows with the footprint.
            conflict = min(0.6, 2.5 * size / dram_bytes)
        else:
            conflict = min(0.1, size / dram_bytes)
        memory.dram_cache.add_resident_range(base, size, conflict)


def warmed_memory(cfg: MemoryConfig, extents,
                  nvm: NvmModel | None = None) -> MemorySystem:
    """A fresh MemorySystem carrying declared+prewarmed steady state.

    Equivalent to ``declare_resident_extents(m, extents);
    m.prewarm_extents(extents)`` on a new system, but a set derived by
    one call serves every later call on the same ``(cfg, extents)`` key.
    """
    extents = tuple(extents)
    key = (cfg, extents)
    template = _templates.get(key)
    if template is None:
        stats["builds"] += 1
        template = MemorySystem(cfg)
        declare_resident_extents(template, extents)
        template.prewarm_extents(extents)
        if len(_templates) >= _MAX_TEMPLATES:
            _templates.pop(next(iter(_templates)))
        _templates[key] = template
    else:
        stats["hits"] += 1
    memory = MemorySystem(cfg, nvm=nvm)
    memory.copy_warm_state_from(template)
    return memory


def clear() -> None:
    """Drop all templates (tests use this to isolate counters)."""
    _templates.clear()
    stats["hits"] = 0
    stats["builds"] = 0
