"""Shared memory scripts: cohort-invariant cache behaviour, replayed once.

Every cache decision in :class:`repro.memory.hierarchy.MemorySystem` —
hit/miss at each level, which victim a fill evicts, whether an RFO finds
the line resident — depends only on the *address sequence* in program
order, never on simulated time. Lanes of a batched cohort share one
interned trace and one cache geometry, so those decisions are identical
across lanes; only the NVM device arithmetic (WPQ occupancy, port
contention) differs, because it is driven by lane-specific timing.

This module replays a trace once through a real ``MemorySystem`` whose NVM
is a zero-latency recorder, and compiles the outcome into a *memory
script*: one entry per memory instruction describing the exact float
recipe the scalar model would evaluate (constant SRAM latency, optional
backend read, optional DRAM-cache victim write, fill-eviction writebacks).
The batched kernel then replays only the NVM terms per lane — in the same
float-operation order as the scalar model, so results stay bit-exact.

Store values need no per-lane model either: architectural values depend
only on program order (a PC hash chained through register values and
functional memory), never on timing, so :func:`value_stream` computes a
trace's store values once, in program order, and every lane of either
kernel reads them.

Scripts are cached per trace object (weakly keyed), under the
cache-geometry slice of the memory config, and a value stream per trace
object: each lives exactly as long as its trace, however many traces
interning keeps, and :func:`clear_scripts` drops both.
"""

from __future__ import annotations

import weakref
from array import array
from collections import Counter
from dataclasses import dataclass

from repro.config import MemoryConfig
from repro.isa.decoded import OP_LOAD, OP_STORE, OP_SYNC
from repro.memory.hierarchy import MemorySystem
from repro.memory.nvm import WriteTicket
from repro.memory.prewarm import warmed_memory

# Load-entry modes: how the per-lane latency is assembled.
MODE_CONST = 0        # no backend read; latency = base (+ fill backpressure)
MODE_APP_DIRECT = 1   # latency = (base + R) + B
MODE_DRAM_MISS = 2    # latency = (base + (probe + R)) + B
MODE_DRAM_VICTIM = 3  # MODE_DRAM_MISS plus a dirty DRAM-cache victim write

_VALUE_MASK = (1 << 64) - 1


class _RecordingNvm:
    """Zero-latency NVM stub that records (kind, submit, line) events.

    Reads return 0.0 and writes are admitted instantly, so every submit
    time the hierarchy computes is the *constant* part of the recipe:
    fill-eviction writes land at exactly the load's issue time (0.0 here)
    while a DRAM-cache victim write lands strictly later — which is how
    the two are told apart when the script is compiled.
    """

    __slots__ = ("events",)

    def __init__(self) -> None:
        self.events: list[tuple[str, float, int]] = []

    def write_line(self, submit_time: float, line_addr: int = 0) -> WriteTicket:
        self.events.append(("w", submit_time, line_addr))
        return WriteTicket(submit_time, submit_time, 0.0)

    def read(self, submit_time: float, line_addr: int = 0) -> float:
        self.events.append(("r", submit_time, line_addr))
        return 0.0


@dataclass(slots=True)
class MemScript:
    """Compiled memory behaviour of one (trace, cache geometry) pair."""

    # Per-seq entry: None for non-memory ops; a load tuple
    # ``(mode, base, probe, victim_line, fill_lines)`` for loads; a
    # ``(rfo_entry, merge_entry)`` pair for stores, where a ``None``
    # member means the corresponding L1D probe hit.
    entries: list
    level_counts: Counter
    l2_miss_rate: float
    eviction_writebacks: int


def geometry_key(cfg: MemoryConfig) -> tuple:
    """The cache-shape slice of a memory config: everything the script
    depends on — i.e. the full config minus the NVM device parameters."""
    return (cfg.l1i, cfg.l1d, cfg.l2, cfg.l3, cfg.dram_cache, cfg.backend,
            cfg.dram_only_latency)


def _load_entry(events: list, level: str, backend: str, c_sram: float,
                probe: float, consts: dict) -> tuple:
    """Compile one recorded ``MemorySystem.load`` call into a replay tuple."""
    victim = None
    fills: list[int] = []
    has_read = False
    for kind, submit, line in events:
        if kind == "r":
            has_read = True
        elif submit > 0.0:
            victim = line
        else:
            fills.append(line)
    if not has_read:
        return (MODE_CONST, consts[level], probe, None, tuple(fills))
    if backend == "pmem-app-direct":
        return (MODE_APP_DIRECT, c_sram, probe, None, tuple(fills))
    mode = MODE_DRAM_MISS if victim is None else MODE_DRAM_VICTIM
    return (mode, c_sram, probe, victim, tuple(fills))


def _functional_values(dec) -> array:
    """The lane-invariant store-value stream: the value each store writes,
    in program order, as ``InOrderCore.run`` and a value-tracking
    ``OoOCore.run`` compute it. Only stores' values leave the walk (on
    store records and CSQ entries), so the stream keeps no other value
    alive while it is cached."""
    length = dec.length
    opcode_ids = dec.opcode_ids
    dest_cls = dec.dest_cls
    dest_idx = dec.dest_idx
    all_srcs = dec.srcs
    addrs = dec.addrs
    pcs = dec.pcs

    max_regs = [0, 0]
    for seq in range(length):
        dcls = dest_cls[seq]
        if dcls >= 0 and dest_idx[seq] >= max_regs[dcls]:
            max_regs[dcls] = dest_idx[seq] + 1
        for cls, index in all_srcs[seq]:
            if index >= max_regs[cls]:
                max_regs[cls] = index + 1
    values = ([0] * max_regs[0], [0] * max_regs[1])
    fmem: dict[int, int] = {}
    out = array("Q")

    for seq in range(length):
        opcode = opcode_ids[seq]
        srcs = all_srcs[seq]
        dcls = dest_cls[seq]
        if opcode == OP_LOAD:
            value = fmem.get(addrs[seq], 0)
        elif opcode == OP_STORE:
            cls, index = srcs[0]
            value = values[cls][index]
            out.append(value)
            fmem[addrs[seq]] = value
        elif opcode == OP_SYNC:
            value = 0
        else:
            value = 0
            if dcls >= 0:
                acc = (pcs[seq] * 0x9E3779B97F4A7C15) & _VALUE_MASK
                for cls, index in srcs:
                    acc = (acc ^ values[cls][index]) \
                        * 0x100000001B3 & _VALUE_MASK
                value = acc
        if dcls >= 0:
            values[dcls][dest_idx[seq]] = value
    return out


def build_script(trace, cfg: MemoryConfig, warm: bool,
                 extents=None, core: str = "ooo") -> MemScript:
    """Replay ``trace`` through a recording memory system and compile the
    per-instruction replay entries.

    ``core`` selects whose store behaviour is compiled: the out-of-order
    core issues an RFO at execute and merges at commit (two probes per
    store), while the in-order core merges only (no RFO), so the two
    evolve the caches differently and need distinct scripts.
    """
    recorder = _RecordingNvm()
    if warm:
        memory = warmed_memory(cfg, extents, nvm=recorder)
    else:
        memory = MemorySystem(cfg, nvm=recorder)

    # Constant latency of each serving level, folded exactly as the scalar
    # accumulation does (every term is integer-valued, so the fold is
    # exact and association-free).
    l1_hit = cfg.l1d.hit_latency
    c_l2 = float(cfg.l1d.hit_latency) + cfg.l2.hit_latency
    c_sram = c_l2 + cfg.l3.hit_latency if cfg.l3 is not None else c_l2
    probe = (float(cfg.dram_cache.hit_latency)
             if cfg.dram_cache is not None else 0.0)
    consts = {
        "l1": l1_hit,
        "l2": c_l2,
        "l3": c_sram,
        "dram": c_sram + float(cfg.dram_only_latency),
        "dram$": c_sram + probe,
    }
    backend = cfg.backend

    dec = trace.decoded()
    opcode_ids = dec.opcode_ids
    line_addrs = dec.line_addrs
    entries: list = [None] * dec.length
    level_counts: Counter = Counter()
    events = recorder.events
    l1d = memory.l1d
    mem_load = memory.load

    for seq in range(dec.length):
        opcode = opcode_ids[seq]
        if opcode == OP_LOAD:
            del events[:]
            result = mem_load(line_addrs[seq], 0.0)
            level_counts[result.level] += 1
            entries[seq] = _load_entry(events, result.level, backend,
                                       c_sram, probe, consts)
        elif opcode == OP_STORE:
            line = line_addrs[seq]
            if core == "inorder" or l1d.lookup(line):
                rfo = None
            else:
                del events[:]
                result = mem_load(line, 0.0)
                memory.demand_loads -= 1
                rfo = _load_entry(events, result.level, backend, c_sram,
                                  probe, consts)
            if l1d.access(line, write=True):
                merge = None
            else:
                del events[:]
                result = mem_load(line, 0.0)
                l1d.access(line, write=True)
                merge = _load_entry(events, result.level, backend, c_sram,
                                    probe, consts)
            entries[seq] = (rfo, merge)

    return MemScript(entries=entries, level_counts=level_counts,
                     l2_miss_rate=memory.l2_miss_rate(),
                     eviction_writebacks=memory.eviction_writebacks)


# trace -> {(geometry, warm, core): script}; an entry goes with its trace.
_scripts: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
# trace -> its store-value stream; an entry goes with its trace.
_streams: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def memory_script(trace, cfg: MemoryConfig, warm: bool,
                  extents=None, core: str = "ooo") -> MemScript:
    """The (cached) memory script for one trace + cache geometry."""
    scripts = _scripts.setdefault(trace, {})
    key = (geometry_key(cfg), warm, core)
    script = scripts.get(key)
    if script is None:
        script = scripts[key] = build_script(trace, cfg, warm, extents, core)
    return script


def value_stream(trace) -> array:
    """The (cached) store-value stream of one trace: ``stream[k]`` is the
    value the trace's ``k``-th store writes. It depends only on the
    trace, so one stream serves every lane of both kernels, whatever
    their core, scheme or cache geometry."""
    stream = _streams.get(trace)
    if stream is None:
        stream = _streams[trace] = _functional_values(trace.decoded())
    return stream


def clear_scripts() -> None:
    """Drop every cached script and value stream (tests, benchmarks)."""
    _scripts.clear()
    _streams.clear()
