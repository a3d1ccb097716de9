"""Capri as the state-of-the-art WSP comparator (Sections 7.1, 8).

Capri is a compiler/architecture codesign: the compiler partitions the
program into recoverable regions (≈29 instructions on average — 11× shorter
than PPA's dynamic regions) whose stores are captured in a per-core
battery-backed 54 KB redo buffer and streamed to NVM over a *dedicated*
persist path, bypassing the cache hierarchy. Because the redo buffer is
inside the persistence domain, a store is durable on buffer entry; Capri's
costs are

* compiler-inserted region management code (prologue/epilogue and log
  bookkeeping, a few instructions per region) which — at ≈29-instruction
  regions — recurs 11× as often as PPA's boundaries, and
* the dedicated path's bandwidth (evaluated at a realistic 4 GB/s instead
  of Capri's original 32 GB/s): when the redo buffer's drain falls behind,
  store commits backpressure until entries free up.
"""

from __future__ import annotations

import random
from dataclasses import replace

from repro.config import NvmConfig
from repro.core.region import RegionTracker
from repro.memory.nvm import NvmModel
from repro.memory.writebuffer import WriteBuffer
from repro.persistence.base import PersistencePolicy
from repro.pipeline.stats import StoreRecord

DEFAULT_MEAN_REGION = 29
DEFAULT_PATH_BANDWIDTH_GBS = 4.0
REDO_BUFFER_BYTES = 54 << 10
# The region-commit (seal) micro-op occupies the retire stage for a few
# cycles while the redo buffer's region descriptor is closed and the undo/
# redo log pointers are updated; nothing younger may retire past it.
SEAL_STALL_CYCLES = 14


class CapriPolicy(PersistencePolicy):
    """Compiler regions + battery-backed redo buffer + dedicated path."""

    name = "capri"

    def __init__(self, mean_region_length: int = DEFAULT_MEAN_REGION,
                 path_bandwidth_gbs: float = DEFAULT_PATH_BANDWIDTH_GBS,
                 seed: int = 0xCA9B1) -> None:
        super().__init__()
        if mean_region_length < 2:
            raise ValueError("regions need at least two instructions")
        self.mean_region_length = mean_region_length
        self.path_bandwidth_gbs = path_bandwidth_gbs
        self._rng = random.Random(seed)
        self._next_boundary = 0
        self._commit_floor = 0.0
        self.path: NvmModel | None = None
        self.redo: WriteBuffer | None = None
        self.regions: RegionTracker | None = None

    def attach(self, core) -> None:
        super().attach(core)
        nvm_cfg: NvmConfig = core.config.memory.nvm
        path_cfg = replace(nvm_cfg,
                           write_bandwidth_gbs=self.path_bandwidth_gbs,
                           wpq_entries=REDO_BUFFER_BYTES // 64,
                           persist_path_latency=0)
        self.path = NvmModel(path_cfg)
        if core.tracer is not None:
            from repro.telemetry import attach_nvm_tracer

            attach_nvm_tracer(self.path, core.tracer)
        # The redo buffer coalesces same-line stores while the line is
        # queued for its drain to NVM, like PPA's write buffer.
        self.redo = WriteBuffer(REDO_BUFFER_BYTES // 64, self.path,
                                tracer=core.tracer)
        self.regions = RegionTracker(core.stats.regions,
                                     tracer=core.tracer)
        self._next_boundary = self._draw_region_length()

    def _draw_region_length(self) -> int:
        p = 1.0 / self.mean_region_length
        length = 1
        while self._rng.random() > p:
            length += 1
        return max(2, length)

    # ------------------------------------------------------------------
    # Hooks
    # ------------------------------------------------------------------

    def pre_rename(self, seq: int, t: float) -> float:
        if seq < self._next_boundary:
            return t
        assert self.core is not None and self.regions is not None
        # The seal micro-op blocks retirement of the next region briefly.
        self._commit_floor = self.core.last_commit_time + SEAL_STALL_CYCLES
        self.regions.close(seq, self.core.last_commit_time,
                           self._commit_floor, "compiler")
        self._next_boundary = seq + self._draw_region_length()
        return t

    def adjust_commit(self, seq: int, tentative: float) -> float:
        return max(tentative, self._commit_floor)

    def store_commit_time(self, seq: int, addr: int,
                          tentative: float) -> float:
        """A store commits into the redo buffer; if the buffer's drain to
        NVM has fallen behind, the commit waits for a free entry."""
        assert self.redo is not None
        # Tentative commit times are monotone, and every future store
        # enters the redo buffer at its own tentative commit — a sound
        # eviction floor for closed coalescing windows.
        self.redo.advance_floor(tentative)
        op = self.redo.persist_store(addr & ~0x3F, tentative, addr, 0)
        return max(tentative, op.durable_at)

    def store_committed(self, record: StoreRecord,
                        merge_time: float) -> None:
        assert self.regions is not None
        record.region_id = self.regions.region_id
        # Durable on redo-buffer entry (battery-backed).
        record.durable_at = record.commit_time
        self.regions.note_store()
        self._trace_store(record)

    def finish(self, end_time: float) -> None:
        assert self.core is not None and self.regions is not None
        self.regions.close(self.core.stats.instructions, end_time,
                           end_time, "end")
        self.core.stats.extra["capri_path_writes"] = (
            self.path.stats.line_writes if self.path else 0)
