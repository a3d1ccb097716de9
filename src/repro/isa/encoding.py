"""Compact binary trace serialization.

Traces are deterministic given a profile and seed, but shipping a captured
trace (or one converted from a real pintool/DynamoRIO capture) is often
more convenient. The format is a fixed-size little-endian record stream:

========  =====  ==================================================
offset    size   field
========  =====  ==================================================
0         8      magic ``b"PPATRACE"``
8         2      version
10        2      name length, followed by the UTF-8 name
..        4      instruction count
..        22×n   records: pc (8 B), opcode (1 B), flags (1 B),
                 dest (2 B), src0 (2 B), src1 (2 B), addr (6 B)
========  =====  ==================================================

Registers encode as ``(class << 8) | index`` with ``0xFFFF`` for "none";
flags bit 0 is the mispredict marker; addresses use 48 bits (the paper's
physical address width) with all-ones meaning "no address".
"""

from __future__ import annotations

import io
import struct
from pathlib import Path

from repro.isa.decoded import OP_LOAD, OP_STORE
from repro.isa.instructions import (
    Instruction,
    Opcode,
    RegClass,
    Register,
    shared_register,
)
from repro.isa.trace import Trace

MAGIC = b"PPATRACE"
VERSION = 2
_NO_REG = 0xFFFF
_NO_ADDR = (1 << 48) - 1
_RECORD = struct.Struct("<QBBHHH6s")

_OPCODES = list(Opcode)


def _decode_reg(value: int) -> Register | None:
    if value == _NO_REG:
        return None
    return shared_register(RegClass(value >> 8), value & 0xFF)


def dump_trace(trace: Trace, destination) -> None:
    """Serialize a trace to a binary file path or file object.

    The records are written from the trace's columns
    (:meth:`Trace.decoded`), so no :class:`Instruction` is built."""
    if isinstance(destination, (str, Path)):
        with open(destination, "wb") as handle:
            dump_trace(trace, handle)
            return
    name = trace.name.encode("utf-8")
    destination.write(MAGIC)
    destination.write(struct.pack("<HH", VERSION, len(name)))
    destination.write(name)
    destination.write(struct.pack("<I", len(trace)))
    dec = trace.decoded()
    records = []
    for i in range(dec.length):
        opcode_id = dec.opcode_ids[i]
        dest_cls = dec.dest_cls[i]
        dest = _NO_REG if dest_cls < 0 else (dest_cls << 8) | dec.dest_idx[i]
        srcs = [(cls << 8) | index for cls, index in dec.srcs[i][:2]]
        srcs += [_NO_REG] * (2 - len(srcs))
        addr = dec.addrs[i] if opcode_id in (OP_LOAD, OP_STORE) else _NO_ADDR
        records.append(_RECORD.pack(
            dec.pcs[i], opcode_id, 1 if dec.mispredicted[i] else 0, dest,
            *srcs, addr.to_bytes(6, "little")))
    destination.write(b"".join(records))


def load_trace(source) -> Trace:
    """Deserialize a trace from a binary file path, bytes, or file object."""
    if isinstance(source, (str, Path)):
        with open(source, "rb") as handle:
            return load_trace(handle)
    if isinstance(source, (bytes, bytearray)):
        return load_trace(io.BytesIO(source))
    magic = source.read(len(MAGIC))
    if magic != MAGIC:
        raise ValueError(f"not a PPA trace (magic {magic!r})")
    version, name_len = struct.unpack("<HH", source.read(4))
    if version != VERSION:
        raise ValueError(f"unsupported trace version {version}")
    name = source.read(name_len).decode("utf-8")
    (count,) = struct.unpack("<I", source.read(4))
    instructions = []
    for __ in range(count):
        record = source.read(_RECORD.size)
        if len(record) != _RECORD.size:
            raise ValueError("truncated trace file")
        pc, opcode_id, flags, dest, src0, src1, addr6 = _RECORD.unpack(
            record)
        addr = int.from_bytes(addr6, "little")
        srcs = tuple(reg for reg in (_decode_reg(src0), _decode_reg(src1))
                     if reg is not None)
        instructions.append(Instruction(
            pc=pc, opcode=_OPCODES[opcode_id],
            dest=_decode_reg(dest), srcs=srcs,
            addr=None if addr == _NO_ADDR else addr,
            mispredicted=bool(flags & 1)))
    return Trace(instructions, name=name)


def dumps_trace(trace: Trace) -> bytes:
    """Serialize to bytes."""
    buffer = io.BytesIO()
    dump_trace(trace, buffer)
    return buffer.getvalue()
