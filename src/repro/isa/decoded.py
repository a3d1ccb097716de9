"""Predecoded traces: the flat, array-backed form every consumer reads.

:class:`DecodedTrace` holds one trace as parallel flat lists of small ints
— opcode ids, ``(class, index)`` register pairs, precomputed
``addr``/``line_addr`` values — so the core loops never chase
``instr.opcode`` (an Enum), ``instr.dest.cls`` (a frozen dataclass) or the
``line_addr`` property. The synthetic generator
(:mod:`repro.workloads.synthetic`) writes these columns directly, so for
generated traces they are the source of truth. Hand-built, litmus and
loaded traces are decoded once from their instruction lists
(:meth:`DecodedTrace.decode`). Either way the columns are cached on the
:class:`~repro.isa.trace.Trace` and shared by repetitions, campaign
points and benchmark passes.

The columns are pure representation: opcodes map to dense ints
(:data:`OPCODE_ID`), registers to ``(class, index)`` int pairs. No timing
or functional semantics live here. :meth:`DecodedTrace.instruction`
rebuilds the equivalent ``Instruction`` for readers that want objects.
"""

from __future__ import annotations

from repro.isa.instructions import Instruction, Opcode, shared_register

# Dense opcode ids, in declaration order of the Opcode enum. The core
# loops compare against these module constants instead of enum members.
OP_INT_ALU = 0
OP_INT_MUL = 1
OP_INT_DIV = 2
OP_FP_ALU = 3
OP_FP_MUL = 4
OP_FP_DIV = 5
OP_CMP = 6
OP_LOAD = 7
OP_STORE = 8
OP_BRANCH = 9
OP_SYNC = 10

ID_TO_OPCODE: tuple[Opcode, ...] = tuple(Opcode)
OPCODE_ID: dict[Opcode, int] = {op: i for i, op in enumerate(ID_TO_OPCODE)}

assert OPCODE_ID[Opcode.LOAD] == OP_LOAD
assert OPCODE_ID[Opcode.STORE] == OP_STORE
assert OPCODE_ID[Opcode.SYNC] == OP_SYNC


class DecodedTrace:
    """Parallel flat arrays over one trace (read-only, shared freely).

    ``dest_cls[i]`` is ``-1`` for instructions without a destination;
    ``srcs[i]`` is a tuple of ``(reg_class, reg_index)`` int pairs;
    ``addrs``/``line_addrs`` are ``0`` for non-memory instructions (the
    loops only read them behind an opcode check).
    """

    __slots__ = ("length", "opcode_ids", "dest_cls", "dest_idx", "srcs",
                 "addrs", "line_addrs", "pcs", "mispredicted")

    def __init__(self, opcode_ids: list[int], dest_cls: list[int],
                 dest_idx: list[int],
                 srcs: list[tuple[tuple[int, int], ...]],
                 addrs: list[int], line_addrs: list[int], pcs: list[int],
                 mispredicted: list[bool]) -> None:
        self.length = len(opcode_ids)
        self.opcode_ids = opcode_ids
        self.dest_cls = dest_cls
        self.dest_idx = dest_idx
        self.srcs = srcs
        self.addrs = addrs
        self.line_addrs = line_addrs
        self.pcs = pcs
        self.mispredicted = mispredicted

    @classmethod
    def decode(cls, instructions: list[Instruction]) -> "DecodedTrace":
        """The columns of an instruction list."""
        n = len(instructions)
        opcode_ids = [0] * n
        dest_cls = [-1] * n
        dest_idx = [-1] * n
        srcs: list[tuple[tuple[int, int], ...]] = [()] * n
        addrs = [0] * n
        line_addrs = [0] * n
        pcs = [0] * n
        mispredicted = [False] * n
        opcode_id = OPCODE_ID
        for i, instr in enumerate(instructions):
            opcode_ids[i] = opcode_id[instr.opcode]
            dest = instr.dest
            if dest is not None:
                dest_cls[i] = int(dest.cls)
                dest_idx[i] = dest.index
            if instr.srcs:
                srcs[i] = tuple((int(s.cls), s.index) for s in instr.srcs)
            addr = instr.addr
            if addr is not None:
                addrs[i] = addr
                line_addrs[i] = addr & ~0x3F
            pcs[i] = instr.pc
            if instr.mispredicted:
                mispredicted[i] = True
        return cls(opcode_ids, dest_cls, dest_idx, srcs, addrs, line_addrs,
                   pcs, mispredicted)

    def instruction(self, i: int) -> Instruction:
        """The :class:`Instruction` at position ``i``, rebuilt from the
        columns (registers are the shared per-``(class, index)`` ones)."""
        opcode = ID_TO_OPCODE[self.opcode_ids[i]]
        dcls = self.dest_cls[i]
        return Instruction(
            pc=self.pcs[i], opcode=opcode,
            dest=(shared_register(dcls, self.dest_idx[i])
                  if dcls >= 0 else None),
            srcs=tuple(shared_register(c, x) for c, x in self.srcs[i]),
            addr=self.addrs[i] if opcode.is_mem else None,
            mispredicted=self.mispredicted[i])

    def latency_table(self, by_opcode: dict[Opcode, float]) -> list[float]:
        """Re-key an ``{Opcode: latency}`` map as an id-indexed list."""
        return [by_opcode.get(op, 0.0) for op in ID_TO_OPCODE]
