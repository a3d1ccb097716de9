"""Differential crash-sweep oracle for the Section 2.4 claim.

The probes in :mod:`repro.sanitizer.probes` check *local* invariants at
every event. This module checks the *global* property those invariants
exist to guarantee: at any power-cut instant, replaying the interrupted
region's CSQ over the surviving NVM image reproduces the crash-free memory
state up to the last committed instruction — and resuming from there
converges to the full crash-free image.

The sweep replays a finished run's logs through
:class:`repro.failure.injector.PowerFailureInjector` at many failure
points: a seeded uniform sample over the whole run, plus targeted points
straddling every region-close instant (the protocol's most delicate
moments — the counter has just hit zero, the CSQ is about to clear).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.failure.consistency import verify_recovery, verify_resumption
from repro.failure.injector import PowerFailureInjector
from repro.memory.writebuffer import PersistOp
from repro.pipeline.stats import CoreStats

# Offset of the targeted points on either side of each region close; well
# below any event spacing (latencies are >= 1 cycle, bandwidth terms
# fractions of a cycle but never this small).
_BOUNDARY_EPS = 1e-6


@dataclass
class CrashStatePoint:
    """Reconstructed machine state at one power-cut instant.

    The programmatic face of the sweep: litmus conformance and future
    tools consume the per-point NVM image directly instead of re-running
    the pass/fail sweep. ``nvm_image`` is the raw persistence-domain
    contents; ``recovered_image`` is what recovery would leave behind
    (image plus the interrupted region's CSQ replayed in program order).
    """

    fail_time: float
    nvm_image: dict[int, int]
    csq_replay: list
    last_committed_seq: int

    @property
    def recovered_image(self) -> dict[int, int]:
        image = dict(self.nvm_image)
        for record in self.csq_replay:   # program order
            image[record.addr] = record.value
        return image


def crash_state_at(stats: CoreStats, injector: PowerFailureInjector,
                   fail_time: float) -> CrashStatePoint:
    """The machine state a power cut at ``fail_time`` would leave."""
    return CrashStatePoint(
        fail_time=fail_time,
        nvm_image=injector.nvm_image_at(fail_time),
        csq_replay=injector.csq_at(fail_time),
        last_committed_seq=injector.last_committed_seq(fail_time),
    )


@dataclass
class CrashCheck:
    """Outcome of recovery at one power-cut instant."""

    fail_time: float
    recovery_ok: bool
    resumption_ok: bool
    mismatches: int
    replayed_stores: int
    unpersisted_committed: int

    @property
    def ok(self) -> bool:
        return self.recovery_ok and self.resumption_ok


@dataclass
class SweepReport:
    """Aggregate of one crash sweep over a finished run."""

    points_checked: int = 0
    failures: list[CrashCheck] = field(default_factory=list)
    max_unpersisted_committed: int = 0
    max_replayed_stores: int = 0

    @property
    def consistent(self) -> bool:
        return not self.failures

    def __bool__(self) -> bool:
        return self.consistent

    def summary(self) -> str:
        verdict = ("consistent" if self.consistent
                   else f"{len(self.failures)} INCONSISTENT points")
        return (f"{self.points_checked} failure points: {verdict} "
                f"(max CSQ replay {self.max_replayed_stores}, max "
                f"unpersisted committed stores "
                f"{self.max_unpersisted_committed})")


def failure_points(stats: CoreStats, injector: PowerFailureInjector,
                   samples: int = 64, seed: int = 0) -> list[float]:
    """Power-cut instants to probe: a uniform sample over the run (with a
    5% tail past the end, where everything must already be durable) plus
    points straddling every region-close instant."""
    rng = random.Random(seed)
    horizon = max(stats.cycles, 1.0) * 1.05
    points = [rng.uniform(0.0, horizon) for __ in range(samples)]
    for close in injector.region_close_times().values():
        points.extend((close - _BOUNDARY_EPS, close, close + _BOUNDARY_EPS))
    return sorted(p for p in points if p >= 0.0)


def check_crash_at(stats: CoreStats, injector: PowerFailureInjector,
                   fail_time: float) -> CrashCheck:
    """Recover from a power cut at ``fail_time`` and verify both halves of
    the Section 2.4 claim."""
    state = crash_state_at(stats, injector, fail_time)
    image = state.recovered_image
    recovery = verify_recovery(stats, image, state.last_committed_seq)
    resumption = verify_resumption(stats, image, state.last_committed_seq)
    return CrashCheck(
        fail_time=fail_time,
        recovery_ok=bool(recovery),
        resumption_ok=bool(resumption),
        mismatches=len(recovery.mismatches) + len(resumption.mismatches),
        replayed_stores=len(state.csq_replay),
        unpersisted_committed=injector.unpersisted_committed_stores(
            fail_time),
    )


def crash_sweep(stats: CoreStats, persist_log: list[PersistOp],
                samples: int = 64, seed: int = 0) -> SweepReport:
    """Sweep power-cut points through a finished run's logs and verify
    recovery at each; any failure lands in ``report.failures``."""
    injector = PowerFailureInjector(stats, persist_log)
    report = SweepReport()
    for fail_time in failure_points(stats, injector, samples, seed):
        check = check_crash_at(stats, injector, fail_time)
        report.points_checked += 1
        report.max_unpersisted_committed = max(
            report.max_unpersisted_committed, check.unpersisted_committed)
        report.max_replayed_stores = max(report.max_replayed_stores,
                                         check.replayed_stores)
        if not check.ok:
            report.failures.append(check)
    return report
