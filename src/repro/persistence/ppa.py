"""The PPA persistence policy: hardware store integrity + dynamic regions.

This is the paper's mechanism, end to end:

* On store commit, the data operand's physical register is masked in
  MaskReg (so later redefinitions cannot reclaim it) and a CSQ entry is
  populated; the L1D controller launches an asynchronous persist of the
  store's line (Sections 3.2/3.3).
* When rename runs out of free physical registers, PPA ends the region: it
  waits until the persist counter reaches zero, reclaims the masked
  registers, clears MaskReg + CSQ, and starts the next region (Section 4.2).
* A full CSQ and any synchronization primitive are implicit boundaries
  (Sections 4.2 and 6).
"""

from __future__ import annotations

from repro.core.csq import CommittedStoreQueue
from repro.core.region import RegionTracker
from repro.isa.instructions import RegClass
from repro.persistence.base import PersistencePolicy
from repro.pipeline.stats import StoreRecord


class PpaPolicy(PersistencePolicy):
    """Dynamic store-integrity regions backed by the physical register file."""

    name = "ppa"

    def __init__(self, enforce_store_integrity: bool = True) -> None:
        super().__init__()
        # The negative knob: with store integrity off, committed store
        # registers are reclaimed normally and replay after a failure reads
        # whatever later value overwrote them — the corruption PPA prevents.
        self.enforce_store_integrity = enforce_store_integrity
        self.csq: CommittedStoreQueue | None = None
        self.regions: RegionTracker | None = None
        self._async = True
        self._last_store_commit = 0.0

    def attach(self, core) -> None:
        super().attach(core)
        self.csq = CommittedStoreQueue(core.config.ppa.csq_entries)
        self.regions = RegionTracker(core.stats.regions,
                                     tracer=core.tracer)
        self._async = core.config.ppa.async_writeback

    # ------------------------------------------------------------------
    # Region boundary machinery
    # ------------------------------------------------------------------

    def _close_region(self, end_seq: int, boundary_time: float,
                      cause: str) -> float:
        """Drain the region's stores, reclaim masked registers, clear
        CSQ/MaskReg; returns the drain-complete cycle."""
        assert self.core is not None and self.csq is not None
        assert self.regions is not None
        drain = self.core.wb.region_drain_time(boundary_time)
        self.core.wb.reset_region(drain)
        for rf in self.core.rf.values():
            rf.end_region(drain)
        self.csq.clear()
        self.regions.close(end_seq, boundary_time, drain, cause)
        return drain

    def rename_blocked(self, cls: RegClass, want_time: float,
                       seq: int) -> float:
        """PRF exhausted: the dynamic region boundary of Section 4.2.

        The renamer stalls and retries; if commits are about to reclaim
        unmasked registers (a transient in-flight spike), it simply waits —
        the barrier is injected only when the free list is starved by
        masked store registers that only a region boundary can release.
        """
        assert self.core is not None
        core = self.core
        deferred = sum(rf.deferred_count for rf in core.rf.values())
        next_free = core.rf[cls].next_free_time()
        if deferred == 0 and next_free is None:
            raise RuntimeError(
                f"{core.rf[cls].name} PRF deadlock: no masked registers to "
                "reclaim and no reclamation pending")
        if (next_free is not None
                and deferred < core.config.ppa.min_deferred_for_boundary):
            return next_free
        # The barrier retires off the ROB-drain path: the region can close
        # as soon as its committed stores are durable. Masked-register
        # reclamation is safe without draining younger non-store
        # instructions (any reader of a deferred register retired before
        # the redefining instruction whose commit deferred it). Stores
        # still in flight at the boundary are accounted to the next region,
        # which recovery handles correctly because CSQ replay is
        # program-ordered and idempotent.
        boundary = max(want_time, self._last_store_commit)
        drain = self._close_region(seq, boundary, "prf")
        return drain + 1.0

    def store_commit_time(self, seq: int, addr: int,
                          tentative: float) -> float:
        assert self.csq is not None
        if self.csq.is_full:
            # Implicit boundary: the store cannot commit until the prior
            # region's stores are durable and the CSQ is cleared.
            self.csq.overflow_boundaries += 1
            drain = self._close_region(seq, tentative, "csq")
            tentative = max(tentative, drain)
        if not self._async:
            # Ablation: synchronous persistence — the store commits only
            # once every previously issued persist is durable.
            tentative = max(tentative,
                            self.core.wb.region_drain_time(tentative))
        return tentative

    def sync_commit_time(self, tentative: float, seq: int) -> float:
        """Atomics/fences cannot commit until the region is durable."""
        drain = self._close_region(seq + 1, tentative, "sync")
        return max(tentative, drain)

    def store_committed(self, record: StoreRecord,
                        merge_time: float) -> None:
        assert self.core is not None and self.csq is not None
        assert self.regions is not None
        record.region_id = self.regions.region_id
        self._last_store_commit = record.commit_time
        if self.enforce_store_integrity:
            cls = RegClass(record.data_cls)
            self.core.rf[cls].mask(record.data_preg)
        self.csq.push(record)
        self.regions.note_store()
        # Commits are monotone and every future merge trails its commit,
        # so the commit time is a sound eviction floor for the write
        # buffer's closed coalescing windows.
        self.core.wb.advance_floor(record.commit_time)
        self.core.wb.persist_store(
            record.line_addr, merge_time, record.addr, record.value)
        record.durable_at = self.core.wb.last_store_durable
        self._trace_store(record)

    def finish(self, end_time: float) -> None:
        assert self.core is not None
        self._close_region(self.core.stats.instructions or 0,
                           end_time, "end")
