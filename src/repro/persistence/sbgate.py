"""The store-buffer-gating alternative PPA rejects (Section 6).

One might keep retired stores gated in the store buffer (SB) until they are
durable instead of letting them merge into L1D — no MaskReg, no CSQ. The
paper rejects this design: the SB is a small CAM that cannot be enlarged
cheaply, region-level persistence then forbids inter-region coalescing and
out-of-order SB drain, and the gated entries throttle the pipeline whenever
stores outpace the NVM.

This policy models the design so the argument is measurable: each store's
SQ entry is held until the store is *durable* (not merely merged), stores
drain to NVM in order with only same-line coalescing inside the buffer, and
SQ exhaustion stalls rename exactly as the paper predicts.
"""

from __future__ import annotations

from repro.core.region import RegionTracker
from repro.persistence.base import PersistencePolicy
from repro.pipeline.stats import StoreRecord


class SbGatePolicy(PersistencePolicy):
    """Gate retired stores in the store buffer until durable."""

    name = "sb-gate"

    def __init__(self) -> None:
        super().__init__()
        self.regions: RegionTracker | None = None
        self._last_durable = 0.0

    def attach(self, core) -> None:
        super().attach(core)
        self.regions = RegionTracker(core.stats.regions,
                                     tracer=core.tracer)
        self._last_durable = 0.0

    def store_queue_release(self, seq: int, addr: int,
                            merge_time: float) -> float:
        """THE cost: the SQ entry is occupied until durability, so the SQ
        backs up whenever stores outpace the NVM write path."""
        assert self.core is not None
        core = self.core
        # In-order SB drain straight to NVM (no inter-region coalescing;
        # the write leaves when it reaches the SB head).
        submit = max(merge_time, self._last_durable)
        ticket = core.nvm.write_line(
            submit + core.nvm.cfg.persist_path_latency, addr & ~0x3F)
        self._last_durable = ticket.accepted_at
        return ticket.accepted_at

    def store_committed(self, record: StoreRecord,
                        merge_time: float) -> None:
        assert self.regions is not None
        record.region_id = self.regions.region_id
        self.regions.note_store()
        record.durable_at = self._last_durable
        self._trace_store(record)

    def finish(self, end_time: float) -> None:
        assert self.core is not None and self.regions is not None
        self.regions.close(self.core.stats.instructions, end_time,
                           max(end_time, self._last_durable), "end")
