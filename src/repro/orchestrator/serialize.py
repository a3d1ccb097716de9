"""JSON round-tripping for everything a campaign ships across processes.

Stats serialize via the methods on their dataclasses themselves
(:mod:`repro.statsbase`); this module adds the surrounding pieces —
``SystemConfig``, ``WorkloadProfile``, persist-op logs, and whole worker
payloads — and the canonical key material that the content-addressed
cache hashes.

Everything is strict JSON (``allow_nan=False``): non-finite floats are
encoded as the strings ``"inf"``/``"-inf"``/``"nan"`` by
:func:`repro.pipeline.stats.encode_float`.

A worker payload carries its stats envelope *packed*
(:func:`pack_envelope`), and only what the stats declare as columns is
packed. Two rules cover it:

* a record log that the stats keep as
  :class:`~repro.pipeline.stats.Columns` (``CoreStats``' ``stores`` and
  ``regions``, ``InOrderStats``' ``regions`` and ``entries``; see their
  ``to_columns``) becomes ``{"@cols": [column, ...]}``, one column per
  record field. A long field column whose values all share one exact
  type (``float``, or an ``int`` that fits in signed 64 bits) is packed;
  its float columns keep non-finite values as IEEE bytes (``"@col":
  "f"``). Any other field column (mixed types, store values of 2**63
  and up) stays a plain JSON list.
* a long ``array`` of 8-byte items (``commit_times``) is packed.

A packed column is a ``{"@col": "d"|"q"|"f", "at": offset, "n":
length}`` node over one shared zlib-compressed block of little-endian
8-byte items. A plain list always stays JSON, so :func:`unpack_envelope`
restores the exact ``stats_to_dict`` envelope. The small-value tree that
is left travels as one JSON string beside the block, so reading a
payload builds none of its objects. Decoding a payload's stats
(:func:`stats_from_payload`) keeps ``"@cols"`` tables as columns and
builds no record. A fig16 entry shrinks from about 125 KiB to about
18 KiB, and nothing is parsed or unpacked until someone reads the stats.
"""

from __future__ import annotations

import array
import base64
import dataclasses
import json
import math
import sys
import zlib
from typing import Any

from repro.config import (
    CacheConfig,
    CoreConfig,
    DramCacheConfig,
    MemoryConfig,
    NvmConfig,
    PpaConfig,
    SystemConfig,
)
from repro.memory.writebuffer import PersistOp
from repro.pipeline.stats import Columns, decode_float, encode_float
from repro.statsbase import (
    StatsBase,
    sim_volume,
    stats_from_dict,
    stats_to_dict,
)
from repro.workloads.profiles import MemRegion, WorkloadProfile

from repro.orchestrator.points import SimPoint


# ---------------------------------------------------------------------------
# Configurations and profiles
# ---------------------------------------------------------------------------

def config_to_dict(config: SystemConfig) -> dict[str, Any]:
    return dataclasses.asdict(config)


def config_from_dict(data: dict[str, Any]) -> SystemConfig:
    memory = dict(data["memory"])
    memory["l1i"] = CacheConfig(**memory["l1i"])
    memory["l1d"] = CacheConfig(**memory["l1d"])
    memory["l2"] = CacheConfig(**memory["l2"])
    memory["l3"] = (CacheConfig(**memory["l3"])
                    if memory["l3"] is not None else None)
    memory["dram_cache"] = (DramCacheConfig(**memory["dram_cache"])
                            if memory["dram_cache"] is not None else None)
    memory["nvm"] = NvmConfig(**memory["nvm"])
    return SystemConfig(
        core=CoreConfig(**data["core"]),
        memory=MemoryConfig(**memory),
        ppa=PpaConfig(**data["ppa"]),
        num_cores=data["num_cores"],
        free_reg_sample_stride=data["free_reg_sample_stride"],
    )


def profile_to_dict(profile: WorkloadProfile) -> dict[str, Any]:
    return dataclasses.asdict(profile)


def profile_from_dict(data: dict[str, Any]) -> WorkloadProfile:
    data = dict(data)
    data["regions"] = tuple(MemRegion(**r) for r in data["regions"])
    return WorkloadProfile(**data)


# ---------------------------------------------------------------------------
# Simulation points (the campaign service's wire format)
# ---------------------------------------------------------------------------

def point_to_dict(point: SimPoint) -> dict[str, Any]:
    """Wire form of a :class:`SimPoint` — full profile and config, so a
    service submission pins down exactly the run the client meant."""
    return {
        "profile": profile_to_dict(point.profile),
        "scheme": point.scheme,
        "config": config_to_dict(point.config),
        "length": point.length,
        "warmup": point.warmup,
        "seed": point.seed,
        "track_values": point.track_values,
        "capture_persist_log": point.capture_persist_log,
        "core": point.core,
        "label": point.label,
        "thread": point.thread,
    }


def point_from_dict(data: dict[str, Any]) -> SimPoint:
    return SimPoint(
        profile=profile_from_dict(data["profile"]),
        scheme=data["scheme"],
        config=config_from_dict(data["config"]),
        length=data["length"],
        warmup=data["warmup"],
        seed=data.get("seed", 0),
        track_values=data.get("track_values", False),
        capture_persist_log=data.get("capture_persist_log", False),
        core=data.get("core", "ooo"),
        label=data.get("label", ""),
        thread=(tuple(data["thread"]) if data.get("thread") is not None
                else None),
    )


# ---------------------------------------------------------------------------
# Persist logs
# ---------------------------------------------------------------------------

def persist_op_to_dict(op: PersistOp) -> dict[str, Any]:
    return {
        "line_addr": op.line_addr,
        "created": op.created,
        "durable_at": encode_float(op.durable_at),
        "done_at": encode_float(op.done_at),
        "writes": [[encode_float(t), addr, value]
                   for t, addr, value in op.writes],
    }


def persist_op_from_dict(data: dict[str, Any]) -> PersistOp:
    return PersistOp(
        line_addr=data["line_addr"],
        created=data["created"],
        durable_at=decode_float(data["durable_at"]),
        done_at=decode_float(data["done_at"]),
        writes=[(decode_float(t), addr, value)
                for t, addr, value in data["writes"]],
    )


def persist_log_to_list(log: list[PersistOp]) -> list[dict[str, Any]]:
    return [persist_op_to_dict(op) for op in log]


def persist_log_from_list(data: list[dict[str, Any]]) -> list[PersistOp]:
    return [persist_op_from_dict(op) for op in data]


# ---------------------------------------------------------------------------
# Packed stats envelopes
# ---------------------------------------------------------------------------

# Compact strict JSON: a packed envelope's tree and a cache entry's parts.
compact_json = json.JSONEncoder(separators=(",", ":"),
                                allow_nan=False).encode

# Lists shorter than this stay plain JSON: packing them saves nothing.
PACK_MIN_LENGTH = 16
# Keys that mark a packed node; an original dict using one is escaped as
# {"@obj": {...}} so unpacking can never mistake it for a packed node.
_MARKERS = frozenset(("@z", "@col", "@cols", "@obj"))
# Exact value type -> code of a packed field column (8-byte items).
_TYPECODES = {float: "d", int: "q"}
# Column code -> array typecode. "f" is a float column of a Columns table
# that holds a non-finite value: its JSON form encodes those as strings.
_ARRAY_CODES = {"d": "d", "q": "q", "f": "d"}
_CODES = frozenset(_TYPECODES.values())
_CONTAINERS = frozenset((dict, list, Columns, array.array))
_SWAP = sys.byteorder != "little"     # columns are stored little-endian


def pack_envelope(envelope: Any) -> Any:
    """Compact form of a ``stats_to_dict`` envelope (or any JSON value);
    :func:`unpack_envelope` inverts it exactly.

    Two rules pack, both on what the stats declare as columns (see the
    module docstring): a :class:`Columns` table becomes an ``"@cols"``
    node of its field columns, and a long ``array`` one packed column. A
    plain list always stays JSON.

    Every packed column's bytes go into one zlib stream, ``"@z"``, and the
    column itself becomes ``{"@col": typecode, "at": byte offset, "n":
    length}`` in ``"tree"``: one compressor per envelope instead of one
    per column, whose set-up cost would dominate the small ones. The
    stream holds the 8-byte items byte-transposed (all first bytes, then
    all second bytes, ...), which puts the near-constant high bytes of
    cycle counts and addresses side by side: a fig16 block compresses 40%
    smaller, and faster, than the plain bytes.

    ``"tree"`` itself is stored as one compact JSON string, not as nested
    objects: reading a stored payload then builds two strings for the
    whole envelope (the cache keeps each on a line of its own, outside
    the payload's JSON), and the tree's few hundred small dicts and lists
    are only built by :func:`unpack_envelope`, when someone reads the
    stats.
    An envelope with no packed column is returned as its tree, with no
    ``"@z"``."""
    chunks: list[bytes] = []
    tree = _pack(envelope, chunks)
    if not chunks:
        return tree
    data = b"".join(chunks)
    data = b"".join([data[lane::8] for lane in range(8)])
    return {"@z": base64.b64encode(zlib.compress(data, 1)).decode("ascii"),
            "tree": compact_json(tree)}


def _pack(node: Any, chunks: list[bytes]) -> Any:
    kind = type(node)
    if kind is dict:
        packed = {key: _pack(value, chunks)
                  if type(value) in _CONTAINERS else value
                  for key, value in node.items()}
        return packed if _MARKERS.isdisjoint(node) else {"@obj": packed}
    if kind is Columns:
        return {"@cols": [_pack_field(column, chunks) for column in node]}
    if kind is array.array:           # commit_times
        if len(node) < PACK_MIN_LENGTH or node.typecode not in _CODES:
            return node.tolist()
        return _pack_column(node.typecode, node, chunks)
    if kind is list and not _CONTAINERS.isdisjoint(map(type, node)):
        return [_pack(item, chunks) for item in node]
    return node


def _pack_column(code: str, values: list, chunks: list[bytes]) -> Any:
    try:
        column = array.array(_ARRAY_CODES[code], values)
    except OverflowError:             # an int outside the signed 64 bits
        return values
    if _SWAP:
        column.byteswap()
    at = sum(map(len, chunks))
    chunks.append(column.tobytes())
    return {"@col": code, "at": at, "n": len(values)}


def _pack_field(values: list, chunks: list[bytes]) -> Any:
    """One field column of a :class:`Columns` table: packed when it is
    long and of one type, else a plain list with its floats encoded."""
    types = set(map(type, values))
    if len(values) >= PACK_MIN_LENGTH and len(types) == 1:
        (only,) = types
        code = _TYPECODES.get(only)
        if code == "d" and not math.isfinite(sum(values)):
            code = "f"
        if code is not None:
            return _pack_column(code, values, chunks)
    if float in types:
        return [encode_float(value) if type(value) is float else value
                for value in values]
    return values


def unpack_envelope(node: Any, columns: bool = False) -> Any:
    """Inverse of :func:`pack_envelope`; unpacked input passes through.
    With ``columns``, a packed column comes back as an ``array`` of its
    raw values and a packed ``"@cols"`` table as the :class:`Columns` of
    its fields, not as rows: what ``from_dict`` reads without converting
    or transposing. A packed column that fails to decode raises
    :class:`ValueError`."""
    if type(node) is dict and "@z" in node:
        try:
            shuffled = zlib.decompress(
                base64.b64decode(node["@z"], validate=True))
            tree = json.loads(node["tree"])
        except (KeyError, TypeError, ValueError, zlib.error) as error:
            raise ValueError(
                f"corrupt packed stats: {error!r}") from error
        items, odd = divmod(len(shuffled), 8)
        if odd:
            raise ValueError("corrupt packed stats: block of "
                             f"{len(shuffled)} bytes is not 8-byte items")
        data = bytearray(len(shuffled))
        for lane in range(8):
            data[lane::8] = shuffled[lane * items:(lane + 1) * items]
        return _unpack(tree, memoryview(data), columns)
    return _unpack(node, memoryview(b""), columns)


def _unpack(node: Any, data: memoryview, columns: bool) -> Any:
    kind = type(node)
    if kind is dict:
        if "@col" in node:
            return _unpack_column(node, data, columns)
        if "@cols" in node:
            fields = [_unpack_column(field, data, columns)
                      if type(field) is dict else field
                      for field in node["@cols"]]
            return (Columns(fields) if columns
                    else list(map(list, zip(*fields))))
        if "@obj" in node:
            node = node["@obj"]
        return {key: _unpack(value, data, columns)
                if type(value) in _CONTAINERS else value
                for key, value in node.items()}
    if kind is list and not _CONTAINERS.isdisjoint(map(type, node)):
        return [_unpack(item, data, columns) for item in node]
    return node


def _unpack_column(node: dict[str, Any], data: memoryview,
                   raw: bool) -> Any:
    """A packed column's values: the array itself if ``raw``, else a
    list, in which an ``"f"`` column's non-finite values are their JSON
    strings."""
    try:
        code, at, length = node["@col"], node["at"], node["n"]
        if code not in _ARRAY_CODES or at < 0 or at % 8:
            raise ValueError(f"bad column {node!r}")
        column = array.array(_ARRAY_CODES[code])
        column.frombytes(data[at:at + 8 * length])
        if len(column) != length:
            raise ValueError(f"column {node!r} overruns the packed data")
    except (KeyError, TypeError, ValueError) as error:
        raise ValueError(f"corrupt packed column: {error}") from error
    if _SWAP:
        column.byteswap()
    if raw:
        return column
    if code == "f":
        return list(map(encode_float, column))
    return column.tolist()


# ---------------------------------------------------------------------------
# Worker payloads
# ---------------------------------------------------------------------------

def payload_from_run(stats: StatsBase, persist_log: list[PersistOp] | None,
                     wall_clock: float,
                     engine: str = "scalar") -> dict[str, Any]:
    """What a worker returns (and the disk cache stores) for one point.

    The stats travel as a :func:`repro.statsbase.stats_to_dict` tagged
    envelope, packed by :func:`pack_envelope`, so any
    :class:`~repro.statsbase.StatsBase` kind round-trips through workers
    and the disk cache without this module knowing the concrete class.
    Simulated cycles (``float(stats.cycles)``, or a multicore makespan)
    and retired instructions are also lifted to the top level, so sweep
    summaries, cache inventories and campaign totals read them without
    decoding the envelope.

    ``engine`` records which kernel actually produced the stats
    (``"scalar"`` or ``"batched"`` — a diverged lane that fell back
    reports ``"scalar"``), so engine-drift audits can tell results apart
    after the fact.
    """
    cycles, instructions = sim_volume(stats)
    return {
        "schema": CACHE_SCHEMA_VERSION,
        "engine": engine,
        "stats": pack_envelope(stats_to_dict(stats, columns=True)),
        "persist_log": (persist_log_to_list(persist_log)
                        if persist_log is not None else None),
        "wall_clock": wall_clock,
        "cycles": cycles,
        "instructions": instructions,
    }


def check_payload_schema(payload: dict[str, Any]) -> None:
    """Reject payloads from other schema versions (the cache key already
    embeds the schema, so this firing means a corrupted or hand-fed
    payload)."""
    schema = payload.get("schema")
    if schema != CACHE_SCHEMA_VERSION:
        raise ValueError(
            f"stale result payload: schema {schema!r}, expected "
            f"{CACHE_SCHEMA_VERSION}")


def stats_from_payload(payload: dict[str, Any]) -> StatsBase:
    """Decode a payload's stats (packed or already unpacked envelope)."""
    check_payload_schema(payload)
    return stats_from_dict(unpack_envelope(payload["stats"], columns=True))


def unpacked_payload(payload: dict[str, Any]) -> dict[str, Any]:
    """A copy of ``payload`` whose stats are the full ``stats_to_dict``
    envelope — the public wire form of a result."""
    return {**payload, "stats": unpack_envelope(payload["stats"])}


def persist_log_from_payload(payload: dict[str, Any]) \
        -> list[PersistOp] | None:
    log = payload.get("persist_log")
    return persist_log_from_list(log) if log is not None else None


# ---------------------------------------------------------------------------
# Canonical cache-key material
# ---------------------------------------------------------------------------

# v2: CoreStats grew wb_full_stall_cycles and the write-buffer capacity
# model changed; v1 payloads must not alias the new results.
# v3: payloads carry an explicit "schema" field and the stats moved into
# the tagged StatsBase envelope ({"kind", "data"}); v2 payloads must not
# alias (their "stats" is a bare CoreStats dict).
# v4: payloads lift "cycles" and "instructions" to the top level so
# campaign throughput is derivable from cached results without decoding
# the stats envelope; v3 payloads lack them and must not alias.
# v5: payloads record the producing "engine" (scalar vs batched kernel);
# v4 payloads cannot attribute their results and must not alias — stale
# v4 digests are orphaned (the key material embeds the schema) and
# reported/reclaimed by the cache's inventory/gc.
# v6: the stats envelope is stored packed (pack_envelope: long numeric
# lists and row columns as zlib-compressed little-endian arrays); a v5
# reader would misparse the packed columns, so v5 entries must not alias.
# v7: CoreStats' store and region logs are packed as the columns they are
# kept in ("@cols", with "f" float columns holding non-finite values as
# IEEE bytes); a v6 reader knows neither node, so v6 entries must not
# alias.
# v8: a packed envelope's "tree" is one JSON string (parsed only when the
# stats are decoded); a v7 reader expects an object there, so v7 entries
# must not alias.
# v9: InOrderStats' region and value-CSQ logs are packed as the columns
# they are kept in ("@cols"), and the transposed row tables and the
# packing of plain long lists are gone; a v8 reader would take an
# in-order "@cols" table's columns for rows, and a v9 reader cannot read
# a row table, so v8 entries must not alias.
CACHE_SCHEMA_VERSION = 9


_canonical_dump = json.JSONEncoder(sort_keys=True, separators=(",", ":"),
                                   allow_nan=False).encode
# The JSON string form _canonical_dump gives a str (ensure_ascii).
_encode_str = json.encoder.encode_basestring_ascii

# Canonical JSON of profile and config objects, memoized twice. Both are
# frozen, a sweep shares a handful of them across all its points, and a
# campaign digests each point on every run, so the first memo is keyed by
# the object itself: it holds the object, so its id cannot be reused
# while the entry lives. The service rebuilds equal objects for every
# request, so behind it sits a memo keyed by repr: a dataclass repr names
# every field's value in a form that keeps 2 and 2.0 (or 1 and True)
# apart, which equality does not, so equal reprs mean equal JSON.
_MAX_CANONICAL = 256
_canonical_by_id: dict[int, tuple[Any, str]] = {}
_canonical: dict[str, str] = {}


def _canonical_json(obj) -> str:
    known = _canonical_by_id.get(id(obj))
    if known is not None:
        return known[1]
    key = repr(obj)
    text = _canonical.get(key)
    if text is None:
        if len(_canonical) >= _MAX_CANONICAL:
            _canonical.pop(next(iter(_canonical)))
        text = _canonical[key] = _canonical_dump(dataclasses.asdict(obj))
    if len(_canonical_by_id) >= _MAX_CANONICAL:
        _canonical_by_id.pop(next(iter(_canonical_by_id)))
    _canonical_by_id[id(obj)] = (obj, text)
    return text


def _json_scalar(value: Any) -> str:
    """``_canonical_dump(value)``, formatted directly for the exact
    ``str``, ``bool`` and ``int`` values a point's run parameters are."""
    kind = type(value)
    if kind is str:
        return _encode_str(value)
    if kind is bool:
        return "true" if value else "false"
    if kind is int:
        return int.__repr__(value)
    return _canonical_dump(value)


def point_key_material(point: SimPoint, salt: str,
                       engine: str | None = None) -> str:
    """Canonical JSON string hashed into the point's cache key.

    Covers every run parameter (full profile and config, not just names)
    plus a code-version salt, so results from a different simulator version
    never alias. The string is ``json.dumps(material, sort_keys=True,
    separators=(",", ":"))`` of the material dict: ``schema``, ``salt``,
    ``kind`` (``"app"``), ``scheme``, ``length``, ``warmup``, ``seed``,
    ``track_values``, ``capture_persist_log``, ``config`` and ``profile``,
    plus ``core``, ``thread`` and ``engine`` where they apply. It is
    formatted directly, key by key in sorted order, around the memoized
    profile and config JSON.

    ``engine`` is normally None — both kernels are bit-exact, so a point's
    result is engine-neutral and either producer may serve it. An
    engine-drift audit passes the engine it insists on, giving that audit
    a disjoint key space: a scalar-cached result is never served to a
    ``engine="batched"`` audit (and vice versa)."""
    parts = ['{"capture_persist_log":'
             + _json_scalar(point.capture_persist_log),
             '"config":' + _canonical_json(point.config)]
    # Only non-default cores enter the key material, so every digest
    # minted before the in-order core joined the point schema stays
    # valid — "ooo" points hash exactly as they always did.
    if point.core != "ooo":
        parts.append('"core":' + _json_scalar(point.core))
    if engine is not None:
        parts.append('"engine":' + _json_scalar(engine))
    parts.append(f'"kind":"app","length":{_json_scalar(point.length)},'
                 f'"profile":{_canonical_json(point.profile)},'
                 f'"salt":{_json_scalar(salt)},'
                 f'"schema":{CACHE_SCHEMA_VERSION},'
                 f'"scheme":{_json_scalar(point.scheme)},'
                 f'"seed":{_json_scalar(point.seed)}')
    # Likewise only thread points carry their ``[tid, threads]``.
    if point.thread is not None:
        parts.append('"thread":' + _canonical_dump(list(point.thread)))
    parts.append(f'"track_values":{_json_scalar(point.track_values)},'
                 f'"warmup":{_json_scalar(point.warmup)}}}')
    return ",".join(parts)
