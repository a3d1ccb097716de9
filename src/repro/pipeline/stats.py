"""Statistics collected by a core run.

Everything the paper's figures need comes out of one :class:`CoreStats`:
cycle counts, region records (Figs 11/13/17), rename-stall accounting
(Fig 12), a free-register histogram (Fig 5), persist traffic, and the
functional store log consumed by the failure injector. The store and
region logs are kept as columns (:class:`StoreLog`, :class:`RegionLog`):
their records are built only when someone iterates or indexes a log.
"""

from __future__ import annotations

from array import array
from collections import Counter
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Any, ClassVar


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


class Columns(tuple):
    """A record table in column form: one list per field, in the record's
    field order. Its JSON form is the list of rows (``to_dict``);
    :func:`repro.orchestrator.serialize.pack_envelope` packs it as it is,
    without transposing."""

    __slots__ = ()


class _ColumnLog:
    """Records of one kind kept as one list per field.

    Records are built on demand, by iteration or indexing; a record so
    built is a copy, so mutating it leaves the log unchanged. A log built
    from existing columns may share them with other logs (the kernel's
    lanes share the lane-invariant ones), so it copies them before its
    first ``append``/``extend``, and never mutates them in place.
    Read a field's whole column with the field name as an attribute; a
    column is read-only.
    """

    __slots__ = ("columns", "_owned")
    record: type
    fields: tuple[str, ...]
    # Index of the float field whose JSON form goes through encode_float.
    encoded: int

    def __init__(self, columns=None) -> None:
        if columns is None:
            self.columns = Columns([] for __ in self.fields)
            self._owned = True
        else:
            self.columns = Columns(
                column if type(column) is list else list(column)
                for column in columns)
            if len(self.columns) != len(self.fields):
                raise ValueError(f"{type(self).__name__} takes "
                                 f"{len(self.fields)} columns, not "
                                 f"{len(self.columns)}")
            self._owned = False

    def __init_subclass__(cls) -> None:
        cls._values = attrgetter(*cls.fields)
        for index, name in enumerate(cls.fields):
            setattr(cls, name, property(
                lambda self, index=index: self.columns[index],
                doc=f"The ``{name}`` column."))

    @classmethod
    def of(cls, records) -> "_ColumnLog":
        """``records`` itself if it is a log of this kind, else a new log
        holding the records of the iterable."""
        if isinstance(records, cls):
            return records
        log = cls()
        log.extend(records)
        return log

    @classmethod
    def from_json(cls, value) -> "_ColumnLog":
        """The log of a ``to_dict`` value: a list of rows, or the
        :class:`Columns` a packed payload decodes to, whose packed
        columns are arrays of raw values."""
        if isinstance(value, Columns):
            columns = [column.tolist() if type(column) is array else column
                       for column in value]
            encoded = type(value[cls.encoded]) is not array
        elif value:
            columns = [list(column) for column in zip(*value)]
            encoded = True
        else:
            columns = [[] for __ in cls.fields]
            encoded = False
        if encoded:
            columns[cls.encoded] = list(map(decode_float,
                                            columns[cls.encoded]))
        log = cls(columns)
        # Transposed rows are this log's own; decoded Columns may share
        # lists with the payload they came from.
        log._owned = not isinstance(value, Columns)
        return log

    def __len__(self) -> int:
        return len(self.columns[0])

    def __iter__(self):
        return map(self.record, *self.columns)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return list(map(self.record,
                            *[column[index] for column in self.columns]))
        return self.record(*[column[index] for column in self.columns])

    def __eq__(self, other) -> bool:
        if isinstance(other, type(self)):
            return self.columns == other.columns
        if isinstance(other, list):
            return list(self) == other
        return NotImplemented

    def __repr__(self) -> str:
        return f"{type(self).__name__}({list(self)!r})"

    def _own(self) -> None:
        if not self._owned:
            self.columns = Columns(list(column) for column in self.columns)
            self._owned = True

    def add(self, *values) -> None:
        """Append one record given as its field values, in field order."""
        self._own()
        for column, value in zip(self.columns, values):
            column.append(value)

    def append(self, record) -> None:
        self._own()
        for column, value in zip(self.columns, self._values(record)):
            column.append(value)

    def extend(self, records) -> None:
        """Append every record of another log (column by column) or of an
        iterable of records."""
        if isinstance(records, type(self)):
            theirs = records.columns
            self._own()
            for column, other in zip(self.columns, theirs):
                column.extend(other)
        else:
            for record in records:
                self.append(record)

    def rows(self) -> list[list]:
        """The ``to_dict`` form: one row per record, its values in field
        order, the ``encoded`` field through :func:`encode_float`."""
        columns = list(self.columns)
        columns[self.encoded] = map(encode_float, columns[self.encoded])
        return list(map(list, zip(*columns)))


class StoreLog(_ColumnLog):
    """The committed-store log of one run, one column per
    :class:`StoreRecord` field."""

    __slots__ = ()
    record = StoreRecord
    fields = ("seq", "pc", "addr", "line_addr", "value", "data_preg",
              "data_cls", "commit_time", "region_id", "durable_at")
    encoded = 9


class RegionLog(_ColumnLog):
    """The region log of one run, one column per :class:`RegionRecord`
    field."""

    __slots__ = ()
    record = RegionRecord
    fields = ("region_id", "start_seq", "end_seq", "store_count",
              "boundary_time", "drain_wait", "cause")
    encoded = 5


class ColumnarStats:
    """The ``to_dict`` shared by the stats kinds that keep their record
    logs as columns (:class:`CoreStats`,
    :class:`repro.inorder.core.InOrderStats`): each defines
    ``to_columns()`` and names its logs in ``logs``."""

    # Field name -> kind of each record log ``to_columns`` gives as
    # :class:`Columns`.
    logs: ClassVar[dict[str, type[_ColumnLog]]] = {}

    def to_dict(self) -> dict[str, Any]:
        """Full-fidelity JSON form: every field survives a
        ``to_dict``/``from_dict`` round trip bit-exactly. It is
        ``to_columns()`` with each record log as its rows (``rows()``)
        and ``commit_times`` as a list."""
        data = self.to_columns()
        for name, log in self.logs.items():
            data[name] = log(data[name]).rows()
        data["commit_times"] = list(data["commit_times"])
        return data


@dataclass
class CoreStats(ColumnarStats):
    """Aggregate outcome of simulating one trace on one core."""

    name: str = ""
    scheme: str = ""
    instructions: int = 0
    cycles: float = 0.0
    rename_oor_stall_cycles: float = 0.0   # out-of-register stalls (Fig 12)
    # Record logs kept as columns (a list of records also works: every
    # method below reads it through ``RegionLog.of``/``StoreLog.of``).
    regions: RegionLog = field(default_factory=RegionLog)
    stores: StoreLog = field(default_factory=StoreLog)
    free_reg_hist_int: Counter = field(default_factory=Counter)
    free_reg_hist_fp: Counter = field(default_factory=Counter)
    # Commit cycle of every instruction, in program order.
    commit_times: array = field(default_factory=lambda: array("d"))
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
    logs = {"regions": RegionLog, "stores": StoreLog}

    @property
    def ipc(self) -> float:
        return self.instructions / self.cycles if self.cycles else 0.0

    @property
    def region_end_stall_cycles(self) -> float:
        return sum(RegionLog.of(self.regions).drain_wait)

    @property
    def region_end_stall_fraction(self) -> float:
        if not self.cycles:
            return 0.0
        return self.region_end_stall_cycles / self.cycles

    @property
    def mean_region_instrs(self) -> float:
        if not self.regions:
            return 0.0
        regions = RegionLog.of(self.regions)
        return (sum(regions.end_seq) - sum(regions.start_seq)) / len(regions)

    @property
    def mean_region_stores(self) -> float:
        if not self.regions:
            return 0.0
        regions = RegionLog.of(self.regions)
        return sum(regions.store_count) / len(regions)

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

    def to_columns(self) -> dict[str, Any]:
        """``to_dict`` (unlike :meth:`to_summary_dict`, a full-fidelity
        form) with the record logs left as :class:`Columns` of raw field
        values and ``commit_times`` not copied: what a payload packs as
        it is (read it, do not mutate it)."""
        return {
            "name": self.name,
            "scheme": self.scheme,
            "instructions": self.instructions,
            "cycles": self.cycles,
            "rename_oor_stall_cycles": self.rename_oor_stall_cycles,
            "regions": RegionLog.of(self.regions).columns,
            "stores": StoreLog.of(self.stores).columns,
            "free_reg_hist_int": {str(k): v
                                  for k, v in self.free_reg_hist_int.items()},
            "free_reg_hist_fp": {str(k): v
                                 for k, v in self.free_reg_hist_fp.items()},
            "commit_times": self.commit_times,
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
        """Reconstruct a :class:`CoreStats` written by :meth:`to_dict` (or
        decoded from a packed payload, whose logs are :class:`Columns`);
        builds the logs' columns and no records."""
        return cls(
            name=data["name"],
            scheme=data["scheme"],
            instructions=data["instructions"],
            cycles=data["cycles"],
            rename_oor_stall_cycles=data["rename_oor_stall_cycles"],
            regions=RegionLog.from_json(data["regions"]),
            stores=StoreLog.from_json(data["stores"]),
            free_reg_hist_int=Counter(
                {int(k): v for k, v in data["free_reg_hist_int"].items()}),
            free_reg_hist_fp=Counter(
                {int(k): v for k, v in data["free_reg_hist_fp"].items()}),
            commit_times=array("d", data["commit_times"]),
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
