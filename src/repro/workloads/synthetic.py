"""Deterministic synthetic trace generation from workload profiles."""

from __future__ import annotations

import random
from collections import deque

from repro.isa.instructions import (
    Instruction,
    Opcode,
    RegClass,
    Register,
    shared_register,
)
from repro.isa.trace import Trace
from repro.workloads.profiles import MemRegion, WorkloadProfile

_LINE = 64
_WORD = 8


class _RegionCursor:
    """Address stream for one locality class: sequential runs with jumps."""

    def __init__(self, region: MemRegion, base: int,
                 rng: random.Random) -> None:
        self.region = region
        self.base = base
        self.size = region.size_bytes
        self.rng = rng
        self.cursor = 0

    def next_addr(self) -> int:
        if self.rng.random() < self.region.seq_prob:
            self.cursor = (self.cursor + _WORD) % self.size
        else:
            self.cursor = self.rng.randrange(0, self.size // _WORD) * _WORD
        return self.base + self.cursor


class TraceGenerator:
    """Generates a single-thread instruction trace from a profile.

    Address spaces of different generator instances can be separated with
    ``addr_base`` (used for data-race-free multithreaded traces).
    """

    def __init__(self, profile: WorkloadProfile, seed: int = 0,
                 addr_base: int = 0x10_0000) -> None:
        self.profile = profile
        self.rng = random.Random(f"{profile.name}:{seed}")
        base = addr_base
        self._load_cursors: list[_RegionCursor] = []
        self._store_cursors: list[_RegionCursor] = []
        self._load_weights: list[float] = []
        self._store_weights: list[float] = []
        for region in profile.regions:
            # Loads and stores walk independent cursors over the same
            # region; stores are made at least moderately sequential so the
            # same-line runs real write streams exhibit (and PPA's persist
            # coalescing exploits) are present.
            self._load_cursors.append(_RegionCursor(region, base, self.rng))
            store_region = MemRegion(
                region.name, region.size_bytes, region.load_weight,
                region.store_weight, max(region.seq_prob, 0.95))
            self._store_cursors.append(
                _RegionCursor(store_region, base, self.rng))
            self._load_weights.append(region.load_weight)
            self._store_weights.append(region.store_weight)
            # Pad between regions so they never share a cache line.
            base += region.size_bytes + _LINE
        # Recently defined registers per class, newest last.
        self._recent: dict[RegClass, deque[int]] = {
            RegClass.INT: deque([0], maxlen=profile.dep_window),
            RegClass.FP: deque([0], maxlen=profile.dep_window),
        }
        self._pc = 0x400000

    # ------------------------------------------------------------------
    # Operand selection
    # ------------------------------------------------------------------

    # Integer registers 0-2 act as stable base pointers: they are never
    # redefined, so address computations are ready early and independent
    # loads can overlap (memory-level parallelism).
    _NUM_BASE_REGS = 3

    def _pick_dest(self, cls: RegClass) -> Register:
        limit = (self.profile.int_workset if cls is RegClass.INT
                 else self.profile.fp_workset)
        if cls is RegClass.INT:
            index = self._NUM_BASE_REGS + self.rng.randrange(
                max(1, limit - self._NUM_BASE_REGS))
        else:
            index = self.rng.randrange(limit)
        self._recent[cls].append(index)
        return shared_register(cls, index)

    def _pick_addr_src(self) -> Register:
        if self.rng.random() < 0.75:
            return shared_register(RegClass.INT,
                            self.rng.randrange(self._NUM_BASE_REGS))
        return self._pick_src(RegClass.INT)

    def _pick_src(self, cls: RegClass) -> Register:
        recent = self._recent[cls]
        if recent and self.rng.random() < 0.7:
            return shared_register(cls, self.rng.choice(list(recent)))
        limit = (self.profile.int_workset if cls is RegClass.INT
                 else self.profile.fp_workset)
        return shared_register(cls, self.rng.randrange(limit))

    def _pick_store_data(self, cls: RegClass) -> Register:
        """The store's data register; with probability ``turnover`` it is
        the most recently defined register (so a later redefinition forces
        a MaskReg deferral)."""
        recent = self._recent[cls]
        if recent and self.rng.random() < self.profile.store_reg_turnover:
            return shared_register(cls, recent[-1])
        return self._pick_src(cls)

    def _pick_addr(self, store: bool) -> int:
        if store:
            cursor = self.rng.choices(self._store_cursors,
                                      weights=self._store_weights)[0]
        else:
            cursor = self.rng.choices(self._load_cursors,
                                      weights=self._load_weights)[0]
        return cursor.next_addr()

    def memory_stream(self, length: int):
        """Yield ``(line_addr, is_write)`` pairs without building
        instructions — used to prewarm caches cheaply."""
        p = self.profile
        mem_frac = p.load_frac + p.store_frac
        for __ in range(length):
            if self.rng.random() >= mem_frac:
                continue
            store = self.rng.random() < p.store_frac / mem_frac
            yield self._pick_addr(store) & ~0x3F, store

    def _next_pc(self) -> int:
        self._pc += 4
        return self._pc

    def region_extents(self) -> list[tuple[str, int, int]]:
        """(name, base, size) of each locality region's address range."""
        return [(c.region.name, c.base, c.size) for c in self._load_cursors]

    # ------------------------------------------------------------------
    # Instruction synthesis
    # ------------------------------------------------------------------

    def _compute_op(self) -> Instruction:
        p = self.profile
        if self.rng.random() < p.cmp_frac:
            return Instruction(
                pc=self._next_pc(), opcode=Opcode.CMP,
                srcs=(self._pick_src(RegClass.INT),
                      self._pick_src(RegClass.INT)))
        fp = self.rng.random() < p.fp_frac
        cls = RegClass.FP if fp else RegClass.INT
        roll = self.rng.random()
        if roll < p.div_frac:
            opcode = Opcode.FP_DIV if fp else Opcode.INT_DIV
        elif roll < p.div_frac + p.mul_frac:
            opcode = Opcode.FP_MUL if fp else Opcode.INT_MUL
        else:
            opcode = Opcode.FP_ALU if fp else Opcode.INT_ALU
        srcs = (self._pick_src(cls), self._pick_src(cls))
        return Instruction(pc=self._next_pc(), opcode=opcode,
                           dest=self._pick_dest(cls), srcs=srcs)

    def next_instruction(self) -> Instruction:
        p = self.profile
        roll = self.rng.random()
        if roll < p.load_frac:
            cls = RegClass.FP if self.rng.random() < p.fp_frac \
                else RegClass.INT
            addr_src = self._pick_addr_src()
            return Instruction(
                pc=self._next_pc(), opcode=Opcode.LOAD,
                dest=self._pick_dest(cls), srcs=(addr_src,),
                addr=self._pick_addr(store=False))
        roll -= p.load_frac
        if roll < p.store_frac:
            cls = RegClass.FP if self.rng.random() < p.fp_frac \
                else RegClass.INT
            data = self._pick_store_data(cls)
            addr_src = self._pick_addr_src()
            return Instruction(
                pc=self._next_pc(), opcode=Opcode.STORE,
                srcs=(data, addr_src),
                addr=self._pick_addr(store=True))
        roll -= p.store_frac
        if roll < p.branch_frac:
            return Instruction(
                pc=self._next_pc(), opcode=Opcode.BRANCH,
                srcs=(self._pick_src(RegClass.INT),),
                mispredicted=self.rng.random() < p.mispredict_rate)
        return self._compute_op()

    def generate(self, length: int, name: str | None = None,
                 sync_interval: int | None = None) -> Trace:
        """Produce a trace of ``length`` dynamic instructions."""
        if length <= 0:
            raise ValueError("trace length must be positive")
        interval = (self.profile.sync_interval if sync_interval is None
                    else sync_interval)
        instructions = []
        for i in range(length):
            if interval and i > 0 and i % interval == 0:
                instructions.append(Instruction(
                    pc=self._next_pc(), opcode=Opcode.SYNC,
                    srcs=(self._pick_src(RegClass.INT),)))
                continue
            instructions.append(self.next_instruction())
        return Trace(instructions,
                     name=name if name is not None else self.profile.name)


def generate_trace(profile: WorkloadProfile, length: int = 20_000,
                   seed: int = 0) -> Trace:
    """Convenience wrapper: one single-thread trace for a profile."""
    return TraceGenerator(profile, seed=seed).generate(length)
