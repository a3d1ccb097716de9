"""Power-failure injection against a finished PPA run.

The timing model records, for every persist operation, when it became
durable (WPQ admission — the ADR persistence domain), and for every store,
its commit time and region. That is enough to reconstruct, for an arbitrary
failure cycle ``T``:

* the NVM image — every persist op durable by ``T``, applied in durability
  order with its functional line payload;
* the CSQ — the committed stores of the region still open at ``T``
  (a region's CSQ is only cleared once its persist counter reaches zero);
* the last committed instruction (LCPC) — via the per-instruction commit
  times.

Injection is therefore exact replay-from-logs rather than re-simulation,
which lets property-based tests probe thousands of failure points cheaply.
"""

from __future__ import annotations

from bisect import bisect_right

from repro.memory.writebuffer import PersistOp
from repro.pipeline.stats import CoreStats, RegionLog, StoreLog, StoreRecord


class PowerFailureInjector:
    """Reconstructs crash-time machine state from a run's logs."""

    def __init__(self, stats: CoreStats, persist_log: list[PersistOp]) -> None:
        self.stats = stats
        self.persist_log = sorted(
            (op for op in persist_log if op.submitted),
            key=lambda op: op.durable_at)
        regions = RegionLog.of(stats.regions)
        self._region_close = {
            region_id: boundary + wait for region_id, boundary, wait
            in zip(regions.region_id, regions.boundary_time,
                   regions.drain_wait)
        }
        self._stores = StoreLog.of(stats.stores)

    def durability_times(self) -> list[float]:
        """Sorted distinct instants at which some write became durable.

        The NVM image is piecewise-constant between these instants, so
        probing exactly this list (plus any point before the first)
        observes every distinct image the run can leave behind — litmus
        conformance sweeps crash points from it instead of sampling.
        """
        times = {
            durable_time
            for op in self.persist_log
            for durable_time, __, __ in op.writes
        }
        return sorted(times)

    def region_close_times(self) -> dict[int, float]:
        """Per-region instant at which the persist counter reached zero and
        the CSQ was cleared (boundary time plus drain wait)."""
        return dict(self._region_close)

    def nvm_image_at(self, fail_time: float) -> dict[int, int]:
        """Persistence-domain contents at the moment of power loss.

        A write is durable if its covering line op was admitted to the WPQ
        by ``fail_time`` and the write itself had merged by then (a younger
        store can merge into an already-admitted entry and become durable
        immediately). Writes apply in durability order.
        """
        durable: list[tuple[float, int, int, int]] = []
        order = 0
        for op in self.persist_log:
            if op.durable_at > fail_time:
                break
            for durable_time, addr, value in op.writes:
                if durable_time <= fail_time:
                    durable.append((durable_time, order, addr, value))
                    order += 1
        durable.sort()
        image: dict[int, int] = {}
        for __, __, addr, value in durable:
            image[addr] = value
        return image

    def csq_at(self, fail_time: float) -> list[StoreRecord]:
        """The CSQ contents (front to rear) at the moment of power loss."""
        stores = self._stores
        close = self._region_close
        return [
            stores[index] for index, (commit, region) in enumerate(
                zip(stores.commit_time, stores.region_id))
            if commit <= fail_time
            and close.get(region, float("inf")) > fail_time
        ]

    def last_committed_seq(self, fail_time: float) -> int:
        """Index of the last committed instruction, or -1 if none."""
        return bisect_right(self.stats.commit_times, fail_time) - 1

    def unpersisted_committed_stores(self, fail_time: float) -> int:
        """Committed stores whose data had not reached the persistence
        domain at ``fail_time`` — the crash-inconsistency window."""
        stores = self._stores
        return sum(
            1 for commit, durable in zip(stores.commit_time,
                                         stores.durable_at)
            if commit <= fail_time and durable > fail_time)
