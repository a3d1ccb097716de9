"""Interface every persistence scheme implements against the core model.

A policy plugs into :class:`repro.pipeline.core.OoOCore` at five points:

* ``pre_rename`` — compiler-formed schemes inject persist barriers in front
  of instructions here; returns the earliest cycle rename may proceed.
* ``rename_blocked`` — the rename stage found no free physical register.
  The baseline waits for a commit-time reclamation; PPA turns the event into
  a dynamic region boundary (Section 4.2).
* ``store_commit_time`` / ``sync_commit_time`` — adjust a store's or
  synchronization primitive's commit cycle (CSQ-full boundaries, barriers).
* ``store_committed`` — the store retired; schedule its persistence.
* ``finish`` — the trace ended; close the open region.

Hooks see an instruction as its position ``seq`` in the trace and, for a
store, its byte ``addr`` — the core reads both from the trace's
predecoded columns (:class:`repro.isa.decoded.DecodedTrace`) and builds
no :class:`~repro.isa.instructions.Instruction` to call them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.isa.instructions import RegClass

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.pipeline.core import OoOCore
    from repro.pipeline.stats import StoreRecord


@dataclass(frozen=True)
class SchemeTraits:
    """Qualitative attributes used by the paper's Tables 1 and 6."""

    name: str
    whole_system: bool
    hardware_complexity: str       # "none" | "low" | "high" | "extremely-high"
    energy_requirement: str        # "low" | "high" | "extremely-high"
    needs_recompilation: bool
    transparent: bool
    enables_dram_cache: bool
    enables_multi_mc: bool
    occupies_store_queue: bool     # Table 1 (clwb vs PPA)
    tracks_single_stores: bool
    needs_snooping: bool
    reaches_nvm: bool


class PersistencePolicy:
    """Base policy: no persistence actions at all."""

    name = "abstract"

    def __init__(self) -> None:
        self.core: "OoOCore | None" = None

    def attach(self, core: "OoOCore") -> None:
        """Bind to the core at the start of a run."""
        self.core = core

    # ------------------------------------------------------------------
    # Hooks (default: behave like a conventional core)
    # ------------------------------------------------------------------

    def pre_rename(self, seq: int, t: float) -> float:
        """Given instruction ``seq``'s candidate rename cycle ``t``,
        return the (possibly delayed) cycle rename may proceed —
        compiler-formed schemes inject their persist barriers here."""
        return t

    def rename_blocked(self, cls: RegClass, want_time: float,
                       seq: int) -> float:
        """No free register in ``cls`` at ``want_time``; return resume time."""
        assert self.core is not None
        rf = self.core.rf[cls]
        next_free = rf.next_free_time()
        if next_free is None:
            raise RuntimeError(
                f"{rf.name} PRF deadlock: no reclamation pending")
        return next_free

    def adjust_commit(self, seq: int, tentative: float) -> float:
        """Adjust any instruction's commit cycle (retire-stage effects)."""
        return tentative

    def store_commit_time(self, seq: int, addr: int,
                          tentative: float) -> float:
        """Given the store's candidate commit cycle, return the (possibly
        delayed) cycle it may commit; ``addr`` is its byte address."""
        return tentative

    def sync_commit_time(self, tentative: float, seq: int) -> float:
        return tentative

    def store_queue_release(self, seq: int, addr: int,
                            merge_time: float) -> float:
        """When the SQ entry of store ``seq`` (byte address ``addr``)
        frees. Conventionally that is the L1D merge at ``merge_time``;
        schemes that gate stores hold the entry longer."""
        return merge_time

    def store_committed(self, record: "StoreRecord",
                        merge_time: float) -> None:
        """The store retired and merged into L1D at ``merge_time``."""

    def finish(self, end_time: float) -> None:
        """The trace is exhausted."""

    # ------------------------------------------------------------------
    # Telemetry
    # ------------------------------------------------------------------

    def _trace_store(self, record: "StoreRecord") -> None:
        """Emit the store's commit→durable span on the core's tracer.

        Call after ``record.durable_at`` is final; a no-op without a
        tracer (one attribute load + one ``is None`` test).
        """
        core = self.core
        if core is None or core.tracer is None:
            return
        end = record.durable_at
        if end == float("inf") or end < record.commit_time:
            end = record.commit_time
        core.tracer.span("stores", f"store {record.seq}",
                         record.commit_time, end, cat="store",
                         pc=record.pc, line=record.line_addr,
                         region=record.region_id)
        core.tracer.metrics.histogram("store.commit_to_durable").add(
            end - record.commit_time)
