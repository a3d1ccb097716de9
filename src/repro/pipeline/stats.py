"""Statistics collected by a core run.

Everything the paper's figures need comes out of one :class:`CoreStats`:
cycle counts, region records (Figs 11/13/17), rename-stall accounting
(Fig 12), a free-register histogram (Fig 5), persist traffic, and the
functional store log consumed by the failure injector.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Any


def encode_float(value: float) -> float | str:
    """Strict-JSON encoding of a float: non-finite values become strings.

    ``json.dumps(..., allow_nan=False)`` rejects inf/nan, and the
    ``Infinity`` literal the default encoder would emit is not valid JSON.
    Finite floats pass through unchanged (Python's repr round-trips them
    bit-exactly)."""
    if value == float("inf"):
        return "inf"
    if value == float("-inf"):
        return "-inf"
    if value != value:
        return "nan"
    return value


def decode_float(value: float | str) -> float:
    """Inverse of :func:`encode_float`."""
    return float(value) if isinstance(value, str) else value


@dataclass(slots=True)
class StoreRecord:
    """One committed store, as the CSQ and the failure injector see it."""

    seq: int                 # dynamic instruction index
    pc: int
    addr: int
    line_addr: int
    value: int               # the data the store should make durable
    data_preg: int           # physical register index holding the data
    data_cls: int            # register class of the data register
    commit_time: float
    region_id: int
    durable_at: float = float("inf")

    def to_row(self) -> list:
        """Compact JSON row (field order matches the dataclass)."""
        return [self.seq, self.pc, self.addr, self.line_addr, self.value,
                self.data_preg, self.data_cls, self.commit_time,
                self.region_id, encode_float(self.durable_at)]

    @classmethod
    def from_row(cls, row: list) -> "StoreRecord":
        # Positional: about half the cost of keywords, and decoding one
        # fig16 sweep builds some 60,000 of these.
        return cls(row[0], row[1], row[2], row[3], row[4], row[5], row[6],
                   row[7], row[8], decode_float(row[9]))


@dataclass(slots=True)
class RegionRecord:
    """One dynamic region (epoch) formed by PPA or a compiler scheme."""

    region_id: int
    start_seq: int
    end_seq: int             # exclusive
    store_count: int
    boundary_time: float     # when the boundary was reached
    drain_wait: float        # extra cycles waiting for the persist counter
    cause: str               # "prf" | "csq" | "sync" | "compiler" | "end"

    @property
    def instr_count(self) -> int:
        return self.end_seq - self.start_seq

    @property
    def other_count(self) -> int:
        return self.instr_count - self.store_count

    def to_row(self) -> list:
        """Compact JSON row (field order matches the dataclass)."""
        return [self.region_id, self.start_seq, self.end_seq,
                self.store_count, self.boundary_time,
                encode_float(self.drain_wait), self.cause]

    @classmethod
    def from_row(cls, row: list) -> "RegionRecord":
        return cls(row[0], row[1], row[2], row[3], row[4],
                   decode_float(row[5]), row[6])


@dataclass
class CoreStats:
    """Aggregate outcome of simulating one trace on one core."""

    name: str = ""
    scheme: str = ""
    instructions: int = 0
    cycles: float = 0.0
    rename_oor_stall_cycles: float = 0.0   # out-of-register stalls (Fig 12)
    regions: list[RegionRecord] = field(default_factory=list)
    stores: list[StoreRecord] = field(default_factory=list)
    free_reg_hist_int: Counter = field(default_factory=Counter)
    free_reg_hist_fp: Counter = field(default_factory=Counter)
    commit_times: list[float] = field(default_factory=list)
    nvm_line_writes: int = 0
    nvm_reads: int = 0
    persist_ops: int = 0
    persist_coalesced: int = 0
    # Cycles persist ops spent waiting for a free write-buffer slot
    # (WB-full backpressure, Section 4.3).
    wb_full_stall_cycles: float = 0.0
    load_level_counts: Counter = field(default_factory=Counter)
    extra: dict[str, Any] = field(default_factory=dict)

    stats_kind = "core"

    @property
    def ipc(self) -> float:
        return self.instructions / self.cycles if self.cycles else 0.0

    @property
    def region_end_stall_cycles(self) -> float:
        return sum(r.drain_wait for r in self.regions)

    @property
    def region_end_stall_fraction(self) -> float:
        if not self.cycles:
            return 0.0
        return self.region_end_stall_cycles / self.cycles

    @property
    def mean_region_instrs(self) -> float:
        if not self.regions:
            return 0.0
        return sum(r.instr_count for r in self.regions) / len(self.regions)

    @property
    def mean_region_stores(self) -> float:
        if not self.regions:
            return 0.0
        return sum(r.store_count for r in self.regions) / len(self.regions)

    @property
    def mean_region_others(self) -> float:
        return self.mean_region_instrs - self.mean_region_stores

    def to_summary_dict(self) -> dict[str, Any]:
        """A JSON-serializable digest of the run (no per-event logs)."""
        return {
            "name": self.name,
            "scheme": self.scheme,
            "instructions": self.instructions,
            "cycles": self.cycles,
            "ipc": self.ipc,
            "regions": len(self.regions),
            "mean_region_instrs": self.mean_region_instrs,
            "mean_region_stores": self.mean_region_stores,
            "region_end_stall_fraction": self.region_end_stall_fraction,
            "rename_oor_stall_cycles": self.rename_oor_stall_cycles,
            "stores": len(self.stores),
            "nvm_line_writes": self.nvm_line_writes,
            "nvm_reads": self.nvm_reads,
            "persist_ops": self.persist_ops,
            "persist_coalesced": self.persist_coalesced,
            "wb_full_stall_cycles": self.wb_full_stall_cycles,
            "load_levels": dict(self.load_level_counts),
            "extra": dict(self.extra),
        }

    def to_dict(self) -> dict[str, Any]:
        """Full-fidelity JSON form: every field the figures and the failure
        injector consume survives a ``to_dict``/``from_dict`` round trip
        bit-exactly (unlike :meth:`to_summary_dict`, which is a digest)."""
        return {
            "name": self.name,
            "scheme": self.scheme,
            "instructions": self.instructions,
            "cycles": self.cycles,
            "rename_oor_stall_cycles": self.rename_oor_stall_cycles,
            "regions": [r.to_row() for r in self.regions],
            "stores": [s.to_row() for s in self.stores],
            "free_reg_hist_int": {str(k): v
                                  for k, v in self.free_reg_hist_int.items()},
            "free_reg_hist_fp": {str(k): v
                                 for k, v in self.free_reg_hist_fp.items()},
            "commit_times": list(self.commit_times),
            "nvm_line_writes": self.nvm_line_writes,
            "nvm_reads": self.nvm_reads,
            "persist_ops": self.persist_ops,
            "persist_coalesced": self.persist_coalesced,
            "wb_full_stall_cycles": self.wb_full_stall_cycles,
            "load_level_counts": dict(self.load_level_counts),
            "extra": dict(self.extra),
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "CoreStats":
        """Reconstruct a :class:`CoreStats` written by :meth:`to_dict`."""
        return cls(
            name=data["name"],
            scheme=data["scheme"],
            instructions=data["instructions"],
            cycles=data["cycles"],
            rename_oor_stall_cycles=data["rename_oor_stall_cycles"],
            regions=[RegionRecord.from_row(r) for r in data["regions"]],
            stores=[StoreRecord.from_row(s) for s in data["stores"]],
            free_reg_hist_int=Counter(
                {int(k): v for k, v in data["free_reg_hist_int"].items()}),
            free_reg_hist_fp=Counter(
                {int(k): v for k, v in data["free_reg_hist_fp"].items()}),
            commit_times=list(data["commit_times"]),
            nvm_line_writes=data["nvm_line_writes"],
            nvm_reads=data["nvm_reads"],
            persist_ops=data["persist_ops"],
            persist_coalesced=data["persist_coalesced"],
            wb_full_stall_cycles=data.get("wb_full_stall_cycles", 0.0),
            load_level_counts=Counter(data["load_level_counts"]),
            extra=dict(data["extra"]),
        )

    def merge(self, other: "CoreStats") -> "CoreStats":
        """Accumulate ``other`` into this run (the StatsBase contract):
        counts and cycle accumulators sum, end times take the max, logs
        concatenate, and histograms add."""
        if not self.name:
            self.name = other.name
        elif other.name and other.name != self.name:
            self.name = f"{self.name}+{other.name}"
        if not self.scheme:
            self.scheme = other.scheme
        self.instructions += other.instructions
        self.cycles = max(self.cycles, other.cycles)
        self.rename_oor_stall_cycles += other.rename_oor_stall_cycles
        self.regions.extend(other.regions)
        self.stores.extend(other.stores)
        self.free_reg_hist_int.update(other.free_reg_hist_int)
        self.free_reg_hist_fp.update(other.free_reg_hist_fp)
        self.commit_times.extend(other.commit_times)
        self.nvm_line_writes += other.nvm_line_writes
        self.nvm_reads += other.nvm_reads
        self.persist_ops += other.persist_ops
        self.persist_coalesced += other.persist_coalesced
        self.wb_full_stall_cycles += other.wb_full_stall_cycles
        self.load_level_counts.update(other.load_level_counts)
        for key, value in other.extra.items():
            mine = self.extra.get(key)
            if isinstance(mine, (int, float)) and not isinstance(
                    mine, bool) and isinstance(value, (int, float)):
                self.extra[key] = mine + value
            else:
                self.extra[key] = value
        return self

    def __iadd__(self, other: "CoreStats") -> "CoreStats":
        return self.merge(other)

    def free_reg_cdf(self, fp: bool = False) -> list[tuple[int, float]]:
        """Cumulative distribution of free registers over time (Fig 5)."""
        hist = self.free_reg_hist_fp if fp else self.free_reg_hist_int
        total = sum(hist.values())
        if not total:
            return []
        cdf = []
        acc = 0.0
        for count in sorted(hist):
            acc += hist[count]
            cdf.append((count, acc / total))
        return cdf
