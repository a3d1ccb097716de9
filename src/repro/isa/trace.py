"""Trace containers and summary statistics."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Iterator

from repro.isa.decoded import (
    ID_TO_OPCODE,
    OP_LOAD,
    OP_STORE,
    DecodedTrace,
)
from repro.isa.instructions import Instruction, Opcode


@dataclass(frozen=True)
class TraceStats:
    """Aggregate characteristics of a trace."""

    length: int
    opcode_counts: dict[Opcode, int]
    distinct_lines: int
    store_fraction: float
    load_fraction: float
    def_fraction: float

    @classmethod
    def measure(cls, trace: DecodedTrace | Iterable[Instruction]
                ) -> "TraceStats":
        """Statistics of a trace's columns (an instruction list is
        decoded first)."""
        dec = (trace if isinstance(trace, DecodedTrace)
               else DecodedTrace.decode(list(trace)))
        ids = dec.opcode_ids
        counts = Counter(ids)
        n = dec.length
        lines = {line for op, line in zip(ids, dec.line_addrs)
                 if op == OP_LOAD or op == OP_STORE}
        defs = n - dec.dest_cls.count(-1)
        return cls(
            length=n,
            opcode_counts={ID_TO_OPCODE[op]: c for op, c in counts.items()},
            distinct_lines=len(lines),
            store_fraction=counts[OP_STORE] / n if n else 0.0,
            load_fraction=counts[OP_LOAD] / n if n else 0.0,
            def_fraction=defs / n if n else 0.0,
        )


class Trace:
    """A dynamic instruction stream fed to the core model.

    A trace is its predecoded columns (:meth:`decoded`). Generated traces
    are built from columns (:meth:`from_decoded`) and rebuild their
    :class:`Instruction` objects only when a reader asks for them
    (iteration, indexing, :attr:`instructions`) — once, then kept.
    Hand-built traces (``Trace(instructions)``: tests, litmus programs,
    loaded files) keep their objects and decode on first
    :meth:`decoded`. Traces are immutable after construction, which is
    what lets interned traces be shared across runs and campaign points.
    """

    def __init__(self, instructions: Iterable[Instruction],
                 name: str = "anonymous") -> None:
        self.name = name
        self._instructions: list[Instruction] | None = list(instructions)
        self._decoded: DecodedTrace | None = None

    @classmethod
    def from_decoded(cls, decoded: DecodedTrace,
                     name: str = "anonymous") -> "Trace":
        """A trace whose columns are ``decoded``; no objects are built."""
        trace = cls((), name=name)
        trace._instructions = None
        trace._decoded = decoded
        return trace

    def __len__(self) -> int:
        if self._instructions is None:
            return self._decoded.length
        return len(self._instructions)

    def __iter__(self) -> Iterator[Instruction]:
        return iter(self.instructions)

    def __getitem__(self, index: int) -> Instruction:
        return self.instructions[index]

    @property
    def instructions(self) -> list[Instruction]:
        instructions = self._instructions
        if instructions is None:
            dec = self._decoded
            instructions = self._instructions = [
                dec.instruction(i) for i in range(dec.length)]
        return instructions

    def decoded(self) -> DecodedTrace:
        """The flat array form of this trace, decoded once and memoized."""
        dec = self._decoded
        if dec is None:
            dec = self._decoded = DecodedTrace.decode(self._instructions)
        return dec

    def stats(self) -> TraceStats:
        return TraceStats.measure(self.decoded())

    def stores(self) -> list[Instruction]:
        """All store instructions, in program order (built from the
        columns; the rest of the trace is not materialized)."""
        dec = self.decoded()
        return [dec.instruction(i) for i, op in enumerate(dec.opcode_ids)
                if op == OP_STORE]

    def __repr__(self) -> str:
        return f"Trace({self.name!r}, {len(self)} instructions)"
