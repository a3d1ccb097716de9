"""Software partial-system persistence via undo/redo logging (Section 2.2).

The paper's argument against PSP is that even when programmers shoulder the
burden, transaction-based persistence is slow: every durable store needs a
log entry ordered before it (undo) or a deferred in-place update (redo),
with clwb+sfence persistence barriers at transaction ends — all on the
app-direct platform that forfeits the DRAM cache.

These policies model that cost honestly on our substrate so the repository
can place PPA against *software* PSP, not just the ideal eADR/BBB bound of
Figure 10:

* :class:`UndoLogPolicy` — write-ahead undo logging: the log entry must be
  durable *before* the store commits (an ordering stall per store), the
  data line is flushed asynchronously, and the transaction-ending sfence
  drains everything.
* :class:`RedoLogPolicy` — redo logging: stores go to the log during the
  transaction (asynchronous), and the commit fence is followed by the
  in-place writeback of every logged line (doubling NVM writes but hiding
  the per-store ordering stall).

Both group stores into fixed-size failure-atomic transactions, standing in
for the persistent-object-level sections a programmer would write.
"""

from __future__ import annotations

from repro.core.region import RegionTracker
from repro.persistence.base import PersistencePolicy
from repro.pipeline.stats import StoreRecord

DEFAULT_TRANSACTION_STORES = 8
# clwb-style flush through the coherent hierarchy (no DRAM cache here,
# but still snooping plus the controller path).
FLUSH_LATENCY_CYCLES = 45


class _SoftwareLogPolicy(PersistencePolicy):
    """Common machinery: transactions delimited by store count."""

    def __init__(self, transaction_stores: int = DEFAULT_TRANSACTION_STORES,
                 ) -> None:
        super().__init__()
        if transaction_stores <= 0:
            raise ValueError("transactions need at least one store")
        self.transaction_stores = transaction_stores
        self.regions: RegionTracker | None = None
        self._txn_stores = 0
        self._txn_durable = 0.0
        self._commit_floor = 0.0
        self.log_writes = 0

    def attach(self, core) -> None:
        super().attach(core)
        self.regions = RegionTracker(core.stats.regions,
                                     tracer=core.tracer)
        self._txn_stores = 0
        self._txn_durable = 0.0
        self._commit_floor = 0.0
        self.log_writes = 0

    def adjust_commit(self, seq: int, tentative: float) -> float:
        return max(tentative, self._commit_floor)

    def _log_write(self, time: float, line_addr: int) -> float:
        """One NVM line write on the log path; returns admission time."""
        assert self.core is not None
        ticket = self.core.nvm.write_line(time + FLUSH_LATENCY_CYCLES,
                                          line_addr)
        self.log_writes += 1
        return ticket.accepted_at

    def _end_transaction(self, seq: int, commit_time: float) -> None:
        """The transaction-ending sfence: nothing younger commits until
        the transaction's flushes are durable."""
        assert self.regions is not None
        drain = max(commit_time, self._txn_durable)
        self._commit_floor = drain
        self.regions.close(seq + 1, commit_time, drain, "compiler")
        self._txn_stores = 0
        self._txn_durable = 0.0

    def finish(self, end_time: float) -> None:
        assert self.core is not None and self.regions is not None
        self.regions.close(self.core.stats.instructions, end_time,
                           max(end_time, self._txn_durable), "end")
        self.core.stats.extra["log_writes"] = self.log_writes


class UndoLogPolicy(_SoftwareLogPolicy):
    """Write-ahead undo logging: log durable before the store commits."""

    name = "psp-undolog"

    def store_commit_time(self, seq: int, addr: int,
                          tentative: float) -> float:
        # The undo entry (old value + address) must persist first.
        log_durable = self._log_write(tentative, (addr & ~0x3F) ^ 0x40)
        return max(tentative, log_durable, self._commit_floor)

    def store_committed(self, record: StoreRecord,
                        merge_time: float) -> None:
        assert self.regions is not None
        record.region_id = self.regions.region_id
        self.regions.note_store()
        # Flush the data line itself, asynchronously until the fence.
        record.durable_at = self._log_write(merge_time, record.line_addr)
        self._trace_store(record)
        self._txn_durable = max(self._txn_durable, record.durable_at)
        self._txn_stores += 1
        if self._txn_stores >= self.transaction_stores:
            self._end_transaction(record.seq, record.commit_time)


class RedoLogPolicy(_SoftwareLogPolicy):
    """Redo logging: log asynchronously, write back in place after commit."""

    name = "psp-redolog"

    def store_committed(self, record: StoreRecord,
                        merge_time: float) -> None:
        assert self.regions is not None
        record.region_id = self.regions.region_id
        self.regions.note_store()
        # Append to the redo log (asynchronous, sequential log lines).
        record.durable_at = self._log_write(merge_time,
                                            0x8000_0000 + 64 * self.log_writes)
        self._trace_store(record)
        self._txn_durable = max(self._txn_durable, record.durable_at)
        self._txn_stores += 1
        if self._txn_stores >= self.transaction_stores:
            # Commit fence, then the in-place writeback of the data lines
            # (modelled as one more flush per store of the transaction).
            inplace = record.commit_time
            for __ in range(self.transaction_stores):
                inplace = max(inplace,
                              self._log_write(record.commit_time,
                                              record.line_addr))
            self._txn_durable = max(self._txn_durable, inplace)
            self._end_transaction(record.seq, record.commit_time)
