"""ReplayCache as a WSP comparator (Figure 1, Section 2.4).

ReplayCache enforces store integrity with a *compiler*: a special register
allocator forms short regions (≈12 instructions on average, limited by the
16 architectural x86 registers), inserts a clwb after every store, and
places a persist barrier at each region end. Ported to a server-class core
over a deep cache hierarchy, that design pays twice:

* the clwb doubles store-queue pressure (each flush occupies an SQ entry
  until the line is on its way to NVM) and issues one un-coalesced NVM
  line write per store (write amplification), and
* the barrier stalls the pipeline at every ~12-instruction boundary until
  all of the region's flushes reach the persistence domain.

The region length is drawn per-region from a geometric-like distribution
around ``mean_region_length`` with a deterministic seed, standing in for
the compiler's placement which varies with program shape.
"""

from __future__ import annotations

import random

from repro.core.region import RegionTracker
from repro.persistence.base import PersistencePolicy
from repro.pipeline.stats import StoreRecord

DEFAULT_MEAN_REGION = 12
# A clwb cannot use PPA's posted writeback path: the flush traverses the
# coherent hierarchy (snooping, then L2 and the memory controller) before
# the trailing sfence can retire (Table 1 — clwb cannot even reach NVM
# through a DRAM cache without help).
FLUSH_LATENCY_CYCLES = 45


class ReplayCachePolicy(PersistencePolicy):
    """Compiler-formed store-integrity regions with per-store clwb."""

    name = "replaycache"

    def __init__(self, mean_region_length: int = DEFAULT_MEAN_REGION,
                 seed: int = 0xCAC4E) -> None:
        super().__init__()
        if mean_region_length < 2:
            raise ValueError("regions need at least two instructions")
        self.mean_region_length = mean_region_length
        self._rng = random.Random(seed)
        self._next_boundary = 0
        self._region_durable = 0.0       # latest durability of region clwbs
        self.regions: RegionTracker | None = None

    def attach(self, core) -> None:
        super().attach(core)
        self.regions = RegionTracker(core.stats.regions,
                                     tracer=core.tracer)
        self._next_boundary = self._draw_region_length()
        self._region_durable = 0.0

    def _draw_region_length(self) -> int:
        # Geometric with the configured mean, floored at 2 so a region can
        # hold at least a store and its barrier.
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
        # The barrier (sfence) retires only after every older instruction
        # has retired and every clwb of the region has reached the
        # persistence domain.
        boundary = max(t, self.core.last_commit_time)
        drain = max(boundary, self._region_durable)
        self.regions.close(seq, boundary, drain, "compiler")
        self._region_durable = 0.0
        self._next_boundary = seq + self._draw_region_length()
        return drain

    def store_committed(self, record: StoreRecord,
                        merge_time: float) -> None:
        assert self.core is not None and self.regions is not None
        record.region_id = self.regions.region_id
        self.regions.note_store()
        core = self.core
        # The clwb trails the store: it consumes a commit slot and holds an
        # SQ entry until the flush has been pushed toward NVM.
        core.commit_bw.take(record.commit_time)
        flush_start = core.sq.earliest_allocate(merge_time)
        ticket = core.nvm.write_line(flush_start + FLUSH_LATENCY_CYCLES,
                                     record.line_addr)
        record.durable_at = ticket.accepted_at
        core.sq.allocate(record.durable_at)
        self._region_durable = max(self._region_durable, record.durable_at)
        self._trace_store(record)

    def finish(self, end_time: float) -> None:
        assert self.core is not None and self.regions is not None
        drain = max(end_time, self._region_durable)
        self.regions.close(self.core.stats.instructions, end_time,
                           drain, "end")
