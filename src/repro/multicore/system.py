"""Multi-core execution of data-race-free multithreaded workloads.

The paper simulates SPLASH3/STAMP/WHISPER on 8 cores in gem5 full-system
mode and sweeps the thread count up to 64 (Section 7.11), scaling the WPQ
and shared L2 proportionally. We model the same setup with a rate-based
decomposition, as ordinary simulation points plus a pure reduction:

* each thread is one :class:`~repro.orchestrator.points.SimPoint` with
  ``thread=(tid, threads)`` (:func:`thread_points`): its own core, warmed
  memory and NVM model (with a bandwidth share that shrinks mildly past
  8 threads) over its own disjoint-heap, hence trivially DRF, trace. It
  runs wherever points run: on the kernel, in a ``Campaign``, cached;
* SYNC instructions are barriers placed at identical trace positions in
  every thread; :func:`barrier_reduce` sums, over barrier-delimited
  segments, the slowest thread's segment time (load imbalance plus
  PPA's sync-boundary drains, which each core pays locally per Section 6).

Per Section 6, PPA needs no cross-core recovery ordering: each core's CSQ
entries are disjoint for DRF programs, so per-core recovery (exercised by
the single-core failure tests) composes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.config import SystemConfig
from repro.orchestrator.points import SimPoint, make_point
from repro.pipeline.stats import CoreStats
from repro.workloads.profiles import WorkloadProfile


@dataclass
class MulticoreStats:
    """Aggregate outcome of one multithreaded run."""

    scheme: str
    threads: int
    makespan: float
    per_thread: list[CoreStats] = field(default_factory=list)
    barrier_segments: int = 0
    imbalance_cycles: float = 0.0

    stats_kind = "multicore"

    @property
    def total_instructions(self) -> int:
        return sum(s.instructions for s in self.per_thread)

    @property
    def nvm_line_writes(self) -> int:
        return sum(s.nvm_line_writes for s in self.per_thread)

    def to_dict(self) -> dict[str, Any]:
        """Full-fidelity JSON form (bit-exact round trip)."""
        return {
            "scheme": self.scheme,
            "threads": self.threads,
            "makespan": self.makespan,
            "per_thread": [s.to_dict() for s in self.per_thread],
            "barrier_segments": self.barrier_segments,
            "imbalance_cycles": self.imbalance_cycles,
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "MulticoreStats":
        return cls(
            scheme=data["scheme"],
            threads=data["threads"],
            makespan=data["makespan"],
            per_thread=[CoreStats.from_dict(s)
                        for s in data["per_thread"]],
            barrier_segments=data["barrier_segments"],
            imbalance_cycles=data["imbalance_cycles"],
        )

    def merge(self, other: "MulticoreStats") -> "MulticoreStats":
        """StatsBase contract: thread lists concatenate, makespans and
        imbalance accumulate as if the runs executed back to back."""
        if not self.scheme:
            self.scheme = other.scheme
        self.threads = max(self.threads, other.threads)
        self.makespan = max(self.makespan, other.makespan)
        self.per_thread.extend(other.per_thread)
        self.barrier_segments += other.barrier_segments
        self.imbalance_cycles += other.imbalance_cycles
        return self

    def __iadd__(self, other: "MulticoreStats") -> "MulticoreStats":
        return self.merge(other)


def thread_points(profile: WorkloadProfile, scheme: str, threads: int,
                  config: SystemConfig | None = None, length: int = 20_000,
                  warmup: int = 1, seed: int = 0) -> list[SimPoint]:
    """One point per thread of a ``threads``-thread run."""
    if threads <= 0:
        raise ValueError("need at least one thread")
    return [make_point(profile, scheme, config=config, length=length,
                       warmup=warmup, seed=seed, thread=(tid, threads))
            for tid in range(threads)]


def barrier_reduce(profile: WorkloadProfile, scheme: str, length: int,
                   per_thread: list[CoreStats],
                   tracer=None) -> MulticoreStats:
    """Barrier-align one run's per-thread stats (thread order).

    Every thread's trace places a SYNC at each positive multiple of the
    profile's ``sync_interval`` below ``length``; the run's makespan is
    the sum over barrier-delimited segments of the slowest thread's
    segment time. With ``tracer``, each segment (its straggler and idle
    cycles) and the whole run land on its ``system`` track."""
    interval = profile.sync_interval
    boundaries = (list(range(interval, length, interval)) if interval
                  else []) + [length - 1]
    makespan = 0.0
    imbalance = 0.0
    previous = [0.0] * len(per_thread)
    segment_start = 0.0
    for segment, boundary in enumerate(boundaries):
        segment_times = []
        for tid, stats in enumerate(per_thread):
            arrival = stats.commit_times[boundary]
            segment_times.append(arrival - previous[tid])
            previous[tid] = arrival
        slowest = max(segment_times)
        idle = slowest * len(segment_times) - sum(segment_times)
        makespan += slowest
        imbalance += idle
        if tracer is not None:
            tracer.span("system", f"segment {segment}", segment_start,
                        segment_start + slowest, cat="run",
                        straggler=segment_times.index(slowest),
                        imbalance=idle)
            segment_start += slowest
    if tracer is not None:
        tracer.span("system", f"run {profile.name}", 0.0, makespan,
                    cat="run", scheme=scheme, threads=len(per_thread),
                    segments=len(boundaries))
    return MulticoreStats(
        scheme=scheme,
        threads=len(per_thread),
        makespan=makespan,
        per_thread=per_thread,
        barrier_segments=len(boundaries),
        imbalance_cycles=imbalance,
    )

