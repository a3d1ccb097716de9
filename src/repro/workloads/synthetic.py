"""Deterministic synthetic trace generation from workload profiles.

The generator writes a trace's predecoded columns
(:class:`~repro.isa.decoded.DecodedTrace`) directly in one loop; no
:class:`~repro.isa.instructions.Instruction` is built. Its RNG draws are
fixed: the same seed gives the same columns on every run and every
supported Python version (``tests/test_workloads.py`` pins a digest of
them). Draws use ``random()`` and ``getrandbits()`` only, the two
primitives whose streams CPython keeps stable; bounded ints come from
:func:`randbelow`, the exact rejection loop behind ``Random.randrange``.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from collections import deque
from itertools import accumulate

from repro.isa.decoded import (
    OP_BRANCH,
    OP_CMP,
    OP_FP_ALU,
    OP_FP_DIV,
    OP_FP_MUL,
    OP_INT_ALU,
    OP_INT_DIV,
    OP_INT_MUL,
    OP_LOAD,
    OP_STORE,
    OP_SYNC,
    DecodedTrace,
)
from repro.isa.trace import Trace
from repro.workloads.profiles import WorkloadProfile

_LINE = 64
_WORD = 8
# (div, mul, alu) opcode ids per register class.
_COMPUTE_OPS = ((OP_INT_DIV, OP_INT_MUL, OP_INT_ALU),
                (OP_FP_DIV, OP_FP_MUL, OP_FP_ALU))

# Shared register pairs and one-source tuples per (class, index): every
# trace references these few objects instead of allocating one per operand.
_REG_PAIRS: tuple[list[tuple[int, int]], list[tuple[int, int]]] = ([], [])
_ONE_SRC: tuple[list[tuple[tuple[int, int]]],
                list[tuple[tuple[int, int]]]] = ([], [])


def _shared_pairs(cls: int, count: int
                  ) -> tuple[list[tuple[int, int]],
                             list[tuple[tuple[int, int]]]]:
    """The shared ``(cls, index)`` pairs and ``((cls, index),)`` source
    tuples for indices below ``count``."""
    pairs, singles = _REG_PAIRS[cls], _ONE_SRC[cls]
    for index in range(len(pairs), count):
        pairs.append((cls, index))
        singles.append((pairs[index],))
    return pairs, singles


def randbelow(getrandbits, n: int) -> int:
    """A uniform int in ``[0, n)``, drawn exactly as ``Random.randrange(n)``
    and ``Random.choice`` draw it (``Random._randbelow``): rejection-sample
    ``n.bit_length()`` bits until the value is below ``n``."""
    if n <= 0:
        raise ValueError("empty range for randbelow()")
    k = n.bit_length()
    r = getrandbits(k)
    while r >= n:
        r = getrandbits(k)
    return r


class _Regions:
    """Address streams over a profile's locality regions, one per region:
    sequential word runs with random jumps. Loads and stores each own one
    (same bases and sizes, independent cursors)."""

    def __init__(self, bases: list[int], sizes: list[int],
                 seq_probs: list[float], weights: list[float]) -> None:
        self.bases = bases
        self.sizes = sizes
        self.words = [size // _WORD for size in sizes]
        self.seq_probs = seq_probs
        # Random.choices(weights=) draws one random() and bisects the
        # running sums; precomputing them keeps the draw identical.
        self.cum_weights = list(accumulate(weights))
        self.total = self.cum_weights[-1] + 0.0
        self.cursors = [0] * len(bases)


class TraceGenerator:
    """Generates a single-thread instruction trace from a profile.

    Address spaces of different generator instances can be separated with
    ``addr_base`` (used for data-race-free multithreaded traces).
    """

    # Integer registers 0-2 act as stable base pointers: they are never
    # redefined, so address computations are ready early and independent
    # loads can overlap (memory-level parallelism).
    _NUM_BASE_REGS = 3

    def __init__(self, profile: WorkloadProfile, seed: int = 0,
                 addr_base: int = 0x10_0000) -> None:
        self.profile = profile
        self.rng = random.Random(f"{profile.name}:{seed}")
        self._names = [region.name for region in profile.regions]
        bases = []
        base = addr_base
        for region in profile.regions:
            bases.append(base)
            # Pad between regions so they never share a cache line.
            base += region.size_bytes + _LINE
        sizes = [region.size_bytes for region in profile.regions]
        self._loads = _Regions(
            bases, sizes, [r.seq_prob for r in profile.regions],
            [r.load_weight for r in profile.regions])
        # Stores are made at least moderately sequential so the same-line
        # runs real write streams exhibit (and PPA's persist coalescing
        # exploits) are present.
        self._stores = _Regions(
            bases, sizes, [max(r.seq_prob, 0.95) for r in profile.regions],
            [r.store_weight for r in profile.regions])
        # Recently defined registers per class, newest last.
        self._recent = (deque([0], maxlen=profile.dep_window),
                        deque([0], maxlen=profile.dep_window))
        self._pc = 0x400000

    def region_extents(self) -> list[tuple[str, int, int]]:
        """(name, base, size) of each locality region's address range."""
        return list(zip(self._names, self._loads.bases, self._loads.sizes))

    def generate(self, length: int, name: str | None = None,
                 sync_interval: int | None = None) -> Trace:
        """Produce a trace of ``length`` dynamic instructions.

        Instruction ``i > 0`` is a SYNC whenever ``sync_interval`` divides
        it; every other instruction draws its class from the profile's mix
        (load, store, branch, else compute: compare, or int/FP ALU, MUL or
        DIV). Sources come from the recent definitions of their class with
        probability 0.7, else from its working set; a store's data register
        is the newest definition with probability ``store_reg_turnover``;
        address registers are a base register with probability 0.75.
        """
        if length <= 0:
            raise ValueError("trace length must be positive")
        p = self.profile
        interval = (p.sync_interval if sync_interval is None
                    else sync_interval)
        rng = self.rng
        rand = rng.random
        bits = rng.getrandbits
        load_frac = p.load_frac
        store_frac = p.store_frac
        branch_frac = p.branch_frac
        fp_frac = p.fp_frac
        cmp_frac = p.cmp_frac
        div_frac = p.div_frac
        div_mul_frac = p.div_frac + p.mul_frac
        mispredict_rate = p.mispredict_rate
        turnover = p.store_reg_turnover
        nbase = self._NUM_BASE_REGS
        int_limit = p.int_workset
        fp_limit = p.fp_workset
        int_dest_n = max(1, int_limit - nbase)
        int_dest_k = int_dest_n.bit_length()
        nbase_k = nbase.bit_length()
        int_pairs, int_singles = _shared_pairs(
            0, max(int_limit, nbase + int_dest_n))
        pairs = (int_pairs, _shared_pairs(1, max(fp_limit, 1))[0])
        limits = (int_limit, fp_limit)
        recent_int, recent_fp = recents = self._recent
        loads, stores = self._loads, self._stores

        opcode_ids = [0] * length
        dest_cls = [-1] * length
        dest_idx = [-1] * length
        srcs: list[tuple[tuple[int, int], ...]] = [()] * length
        addrs = [0] * length
        mispredicted = [False] * length

        # The hottest draws inline randbelow() (same bits, same rejection
        # loop) where the bound is known to be positive.
        def pick_src(cls: int) -> tuple[int, int]:
            recent = recents[cls]
            if recent and rand() < 0.7:
                n = len(recent)
                k = n.bit_length()
                r = bits(k)
                while r >= n:
                    r = bits(k)
                return pairs[cls][recent[r]]
            return pairs[cls][randbelow(bits, limits[cls])]

        def pick_addr_src() -> tuple[int, int]:
            if rand() < 0.75:
                r = bits(nbase_k)
                while r >= nbase:
                    r = bits(nbase_k)
                return int_pairs[r]
            return pick_src(0)

        def pick_addr(streams: _Regions) -> int:
            region = bisect_right(streams.cum_weights,
                                  rand() * streams.total, 0,
                                  len(streams.bases) - 1)
            cursors = streams.cursors
            if rand() < streams.seq_probs[region]:
                cursor = (cursors[region] + _WORD) % streams.sizes[region]
            else:
                cursor = randbelow(bits, streams.words[region]) * _WORD
            cursors[region] = cursor
            return streams.bases[region] + cursor

        for i in range(length):
            if interval and i > 0 and i % interval == 0:
                opcode_ids[i] = OP_SYNC
                srcs[i] = int_singles[pick_src(0)[1]]
                continue
            roll = rand()
            if roll < load_frac:
                cls = 1 if rand() < fp_frac else 0
                op = OP_LOAD
                srcs[i] = int_singles[pick_addr_src()[1]]
            else:
                roll -= load_frac
                if roll < store_frac:
                    cls = 1 if rand() < fp_frac else 0
                    recent = recents[cls]
                    if recent and rand() < turnover:
                        data = pairs[cls][recent[-1]]
                    else:
                        data = pick_src(cls)
                    opcode_ids[i] = OP_STORE
                    srcs[i] = (data, pick_addr_src())
                    addrs[i] = pick_addr(stores)
                    continue
                roll -= store_frac
                if roll < branch_frac:
                    opcode_ids[i] = OP_BRANCH
                    srcs[i] = int_singles[pick_src(0)[1]]
                    if rand() < mispredict_rate:
                        mispredicted[i] = True
                    continue
                if rand() < cmp_frac:
                    opcode_ids[i] = OP_CMP
                    srcs[i] = (pick_src(0), pick_src(0))
                    continue
                cls = 1 if rand() < fp_frac else 0
                roll = rand()
                div_op, mul_op, alu_op = _COMPUTE_OPS[cls]
                if roll < div_frac:
                    op = div_op
                elif roll < div_mul_frac:
                    op = mul_op
                else:
                    op = alu_op
                srcs[i] = (pick_src(cls), pick_src(cls))
            # A register definition: loads and int/FP compute ops.
            opcode_ids[i] = op
            if cls:
                index = randbelow(bits, fp_limit)
                recent_fp.append(index)
            else:
                index = bits(int_dest_k)
                while index >= int_dest_n:
                    index = bits(int_dest_k)
                index += nbase
                recent_int.append(index)
            dest_cls[i] = cls
            dest_idx[i] = index
            if op == OP_LOAD:
                addrs[i] = pick_addr(loads)

        pc = self._pc
        pcs = list(range(pc + 4, pc + 4 * (length + 1), 4))
        self._pc = pcs[-1]
        line_addrs = [addr & ~0x3F for addr in addrs]
        decoded = DecodedTrace(opcode_ids, dest_cls, dest_idx, srcs, addrs,
                               line_addrs, pcs, mispredicted)
        return Trace.from_decoded(
            decoded, name=name if name is not None else p.name)


def generate_trace(profile: WorkloadProfile, length: int = 20_000,
                   seed: int = 0) -> Trace:
    """Convenience wrapper: one single-thread trace for a profile."""
    return TraceGenerator(profile, seed=seed).generate(length)
