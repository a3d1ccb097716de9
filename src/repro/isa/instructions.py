"""Instruction and register representation for the trace-driven core model.

The model is ISA-agnostic but sized like x86_64: 16 integer architectural
registers and 32 floating-point (XMM) registers, renamed onto separate
integer/floating-point physical register files as in the paper's Skylake
configuration (Table 2).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum, IntEnum


class RegClass(IntEnum):
    """Which physical register file an architectural register renames into."""

    INT = 0
    FP = 1


@dataclass(frozen=True, slots=True)
class Register:
    """An architectural register: a (class, index) pair."""

    cls: RegClass
    index: int

    def __repr__(self) -> str:
        prefix = "r" if self.cls is RegClass.INT else "f"
        return f"{prefix}{self.index}"


# One shared Register per (class, index): a trace of thousands of
# instructions then references a few dozen register objects instead of
# allocating one per operand. Register is a frozen value type, so sharing
# is invisible to every comparison and hash.
_shared_registers: dict[tuple[RegClass, int], Register] = {}


def shared_register(cls: RegClass, index: int) -> Register:
    """The shared :class:`Register` for ``(cls, index)``."""
    reg = _shared_registers.get((cls, index))
    if reg is None:
        reg = _shared_registers[cls, index] = Register(RegClass(cls), index)
    return reg


def int_reg(index: int) -> Register:
    """Shorthand for an integer architectural register."""
    return shared_register(RegClass.INT, index)


def fp_reg(index: int) -> Register:
    """Shorthand for a floating-point architectural register."""
    return shared_register(RegClass.FP, index)


class Opcode(Enum):
    """Operation classes the timing model distinguishes."""

    INT_ALU = "int_alu"
    INT_MUL = "int_mul"
    INT_DIV = "int_div"
    FP_ALU = "fp_alu"
    FP_MUL = "fp_mul"
    FP_DIV = "fp_div"
    # Compare/test: consumes registers, writes only flags (no renamed dest).
    CMP = "cmp"
    LOAD = "load"
    STORE = "store"
    BRANCH = "branch"
    # Synchronization primitive (atomic RMW / fence / lock). PPA treats these
    # as region boundaries (Section 6, "Recovery for Multi-Cores").
    SYNC = "sync"

    @property
    def is_mem(self) -> bool:
        return self in (Opcode.LOAD, Opcode.STORE)

    @property
    def defines_reg(self) -> bool:
        """Whether this operation class normally writes a destination."""
        return self not in (Opcode.STORE, Opcode.BRANCH, Opcode.SYNC,
                            Opcode.CMP)


@dataclass(slots=True)
class Instruction:
    """One dynamic instruction in a trace.

    ``mispredicted`` marks branches whose resolution flushes the front end.
    Store payloads are not carried here: the core model computes them
    (``repro.pipeline.core.def_value``) and logs them on its store records.
    """

    pc: int
    opcode: Opcode
    dest: Register | None = None
    srcs: tuple[Register, ...] = ()
    addr: int | None = None
    mispredicted: bool = False

    def __post_init__(self) -> None:
        if self.opcode.is_mem and self.addr is None:
            raise ValueError(f"{self.opcode} requires an address")
        if self.opcode is Opcode.STORE:
            if not self.srcs:
                raise ValueError("store requires a data source register")
            if self.dest is not None:
                raise ValueError("store must not define a register")
        if self.dest is not None and not self.opcode.defines_reg:
            raise ValueError(f"{self.opcode} must not define a register")

    @property
    def data_reg(self) -> Register:
        """The store's data operand — the register PPA masks on commit."""
        if self.opcode is not Opcode.STORE:
            raise ValueError("data_reg is only defined for stores")
        return self.srcs[0]

    @property
    def line_addr(self) -> int:
        """The 64 B cacheline address of a memory operation."""
        if self.addr is None:
            raise ValueError("not a memory operation")
        return self.addr & ~0x3F
