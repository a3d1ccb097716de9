"""The unified stats protocol every simulator outcome speaks.

Each stats dataclass — :class:`repro.pipeline.stats.CoreStats`,
:class:`repro.inorder.core.InOrderStats`,
:class:`repro.multicore.system.MulticoreStats`,
:class:`repro.memory.nvm.NvmStats`, and
:class:`repro.core.iobuffer.IoBufferStats` — implements the same small
contract:

* ``stats_kind`` — a stable string tag naming the concrete type,
* ``to_dict()`` / ``from_dict(data)`` — a bit-exact strict-JSON round
  trip of every field,
* ``merge(other)`` / ``__iadd__`` — accumulate another run of the same
  kind (counts and cycle accumulators sum, end times take the max, logs
  concatenate, histograms add).

The two kinds with record logs, ``CoreStats`` and ``InOrderStats``, keep
them as column logs (:class:`repro.pipeline.stats.RegionLog`,
``StoreLog``, :class:`repro.inorder.value_csq.CsqLog`) and ``commit_times``
as an ``array("d")``. They also give ``to_columns()``, the ``to_dict``
form with those logs left as
:class:`~repro.pipeline.stats.Columns`; their ``to_dict`` is derived
from it (:class:`repro.pipeline.stats.ColumnarStats`), and it is all a
packed payload packs.

This module holds the :class:`typing.Protocol` describing that contract
and the tagged-envelope helpers the orchestrator cache uses, so that
serialization code dispatches on ``stats_kind`` instead of hard-coding
one concrete class.
"""

from __future__ import annotations

from importlib import import_module
from typing import Any, Protocol, runtime_checkable


@runtime_checkable
class StatsBase(Protocol):
    """Structural type of every stats object in the simulator."""

    stats_kind: str

    def to_dict(self) -> dict[str, Any]: ...

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "StatsBase": ...

    def merge(self, other: "StatsBase") -> "StatsBase": ...

    def __iadd__(self, other: "StatsBase") -> "StatsBase": ...


# kind -> "module:ClassName"; imported lazily so that loading this module
# does not drag in every simulator subsystem.
_REGISTRY: dict[str, str] = {
    "core": "repro.pipeline.stats:CoreStats",
    "inorder": "repro.inorder.core:InOrderStats",
    "multicore": "repro.multicore.system:MulticoreStats",
    "nvm": "repro.memory.nvm:NvmStats",
    "iobuffer": "repro.core.iobuffer:IoBufferStats",
}


def stats_class(kind: str) -> type:
    """Resolve a ``stats_kind`` tag to its dataclass."""
    try:
        target = _REGISTRY[kind]
    except KeyError:
        raise KeyError(
            f"unknown stats kind {kind!r}; known: "
            f"{sorted(_REGISTRY)}") from None
    module_name, _, class_name = target.partition(":")
    return getattr(import_module(module_name), class_name)


def stats_to_dict(stats: StatsBase, columns: bool = False) \
        -> dict[str, Any]:
    """Tagged envelope: ``{"kind": ..., "data": stats.to_dict()}``.

    With ``columns``, a kind that keeps record logs as columns gives its
    ``to_columns()`` instead: the same dict with those logs left as
    :class:`~repro.pipeline.stats.Columns`, which
    :func:`repro.orchestrator.serialize.pack_envelope` stores without
    transposing. Its ``from_dict`` reads either form."""
    kind = stats.stats_kind
    if kind not in _REGISTRY:
        raise KeyError(f"stats kind {kind!r} is not registered")
    to_columns = getattr(stats, "to_columns", None) if columns else None
    return {"kind": kind,
            "data": to_columns() if to_columns else stats.to_dict()}


def stats_from_dict(envelope: dict[str, Any]) -> StatsBase:
    """Inverse of :func:`stats_to_dict` — dispatches on the tag."""
    return stats_class(envelope["kind"]).from_dict(envelope["data"])


def sim_volume(stats: StatsBase) -> tuple[float, int]:
    """(simulated cycles, retired instructions) of any stats kind.

    Single-core kinds report their own ``cycles``/``instructions``; a
    multicore run reports its makespan and the instructions summed over
    threads. Kinds with no notion of either (``nvm``, ``iobuffer``)
    report zeros — callers treat those as "no volume", not as errors.
    """
    if hasattr(stats, "makespan"):
        return float(stats.makespan), int(stats.total_instructions)
    cycles = getattr(stats, "cycles", 0.0)
    instructions = getattr(stats, "instructions", 0)
    return float(cycles), int(instructions)
