"""Crash-consistency verification.

The correctness claim of the paper (Section 2.4): no matter in which order
cache lines happened to reach NVM before a power failure, replaying all
committed stores of the interrupted region on top of the surviving NVM image
yields exactly the memory state of a crash-free execution up to the last
committed instruction. These helpers check that claim mechanically.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.pipeline.stats import CoreStats, StoreLog, StoreRecord


@dataclass
class ConsistencyReport:
    """Result of comparing a recovered image to the reference execution."""

    consistent: bool
    checked_addresses: int
    mismatches: dict[int, tuple[int | None, int]] = field(
        default_factory=dict)

    def __bool__(self) -> bool:
        return self.consistent


def reference_image(stores: list[StoreRecord],
                    upto_seq: int | None = None) -> dict[int, int]:
    """Memory contents of a crash-free execution: all stores applied in
    program order, optionally truncated at ``upto_seq`` (inclusive)."""
    log = StoreLog.of(stores)
    image: dict[int, int] = {}
    for seq, addr, value in zip(log.seq, log.addr, log.value):
        if upto_seq is not None and seq > upto_seq:
            break
        image[addr] = value
    return image


def _compare(recovered: dict[int, int],
             reference: dict[int, int]) -> ConsistencyReport:
    mismatches: dict[int, tuple[int | None, int]] = {}
    for addr, expected in reference.items():
        actual = recovered.get(addr)
        if actual != expected:
            mismatches[addr] = (actual, expected)
    return ConsistencyReport(
        consistent=not mismatches,
        checked_addresses=len(reference),
        mismatches=mismatches,
    )


def verify_recovery(stats: CoreStats, recovered: dict[int, int],
                    last_committed_seq: int) -> ConsistencyReport:
    """Does the recovered NVM image match the crash-free reference up to the
    last committed instruction?"""
    reference = reference_image(stats.stores, last_committed_seq)
    return _compare(recovered, reference)


def verify_resumption(stats: CoreStats, recovered: dict[int, int],
                      last_committed_seq: int) -> ConsistencyReport:
    """After recovery, resuming at LCPC+1 and executing the rest of the
    program must converge to the full crash-free image."""
    stores = StoreLog.of(stats.stores)
    resumed = dict(recovered)
    for seq, addr, value in zip(stores.seq, stores.addr, stores.value):
        if seq > last_committed_seq:
            resumed[addr] = value
    return _compare(resumed, reference_image(stores))
