"""The value-carrying CSQ for cores without a unified PRF (Section 6).

On an in-order core (or an out-of-order core with ROB-style renaming whose
result values live in the ROB), there is no physical register that outlives
commit, so the paper's extension stores the *data value* — rather than a
PRF index — together with the destination address in each CSQ entry. Store
integrity then needs no MaskReg at all: the CSQ itself preserves the
operands, at the cost of wider entries (value + address instead of a 9-bit
index + address).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from repro.pipeline.stats import _ColumnLog

VALUE_ENTRY_BYTES = 16    # 64-bit value + 48-bit address, padded


@dataclass(slots=True)
class ValueCsqEntry:
    """One committed store: destination address and the data itself."""

    seq: int
    addr: int
    value: int
    commit_time: float


class CsqLog(_ColumnLog):
    """The value-CSQ log of one in-order run, one column per
    :class:`ValueCsqEntry` field."""

    __slots__ = ()
    record = ValueCsqEntry
    fields = ("seq", "addr", "value", "commit_time")
    encoded = 3


class ValueCsq:
    """Bounded FIFO of (address, value) pairs for the current region."""

    def __init__(self, entries: int) -> None:
        if entries <= 0:
            raise ValueError("CSQ needs at least one entry")
        self.entries = entries
        self._fifo: deque[ValueCsqEntry] = deque()
        self.total_pushed = 0

    def __len__(self) -> int:
        return len(self._fifo)

    @property
    def is_full(self) -> bool:
        return len(self._fifo) >= self.entries

    def push(self, entry: ValueCsqEntry) -> None:
        if self.is_full:
            raise OverflowError("value CSQ full; region boundary required")
        self._fifo.append(entry)
        self.total_pushed += 1

    def clear(self) -> list[ValueCsqEntry]:
        drained = list(self._fifo)
        self._fifo.clear()
        return drained

    def snapshot(self) -> list[ValueCsqEntry]:
        return list(self._fifo)

    def checkpoint_bytes(self) -> int:
        """Worst-case checkpoint footprint: wider entries, but no MaskReg
        and no PRF slice."""
        return self.entries * VALUE_ENTRY_BYTES
