"""Simulation points: the unit of work a campaign schedules.

A :class:`SimPoint` pins down everything that determines a run's outcome —
workload profile, scheme, resolved configuration, trace length/warmup,
seed, whether values are tracked, which thread of a multicore run it is
— so the same point always hashes to the same cache key, in any process.
:func:`point_inputs` derives what its run consumes.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.config import SystemConfig, check_latencies, skylake_default
from repro.persistence.catalog import scheme_backend
from repro.workloads.interning import ADDR_BASE, interned_trace, region_extents
from repro.workloads.profiles import WorkloadProfile, profile_by_name

DEFAULT_LENGTH = 20_000
DEFAULT_WARMUP = 40_000

# Thread ``tid`` of a multicore run (Section 7.11) runs its own trace
# over a heap ``tid`` strides above the single-core base, so heaps never
# overlap (trivially data-race-free). Fig 19 scales the WPQ and shared L2
# with the thread count, so NVM bandwidth per thread degrades only mildly
# beyond the paper's 8 cores; the exponent was meant to take PPA's
# overhead from ~2 % at 8 threads toward the paper's ~6 % at 64, but the
# shipped fig19 reads 7.4 % at 64 (EXPERIMENTS.md).
THREAD_STRIDE = 1 << 32
BASE_THREADS = 8
CONTENTION_EXPONENT = 0.2

CORE_MODELS = ("ooo", "inorder")
# The in-order model implements the value-CSQ PPA variant and the
# volatile baseline only (Section 6).
INORDER_SCHEMES = ("ppa", "baseline")


def check_run(core: str, scheme: str,
              thread: tuple[int, int] | None = None) -> None:
    """Raise ``ValueError`` unless ``scheme`` runs on the ``core`` model
    and ``thread`` (when given) is ``(tid, threads)`` with
    ``0 <= tid < threads``."""
    if core not in CORE_MODELS:
        raise ValueError(f"unknown core model {core!r} "
                         f"(options: {', '.join(CORE_MODELS)})")
    if core == "inorder" and scheme not in INORDER_SCHEMES:
        raise ValueError(
            f"the in-order core supports scheme 'ppa' or 'baseline', "
            f"not {scheme!r}")
    if thread is None:
        return
    if len(thread) != 2:
        raise ValueError(f"thread {thread!r} is not a (tid, threads) pair")
    if not 0 <= thread[0] < thread[1]:
        raise ValueError(f"thread {thread[0]} is not one of {thread[1]}")


def config_for(scheme: str, config: SystemConfig | None) -> SystemConfig:
    """Resolve the effective configuration for a scheme: default if absent,
    with the memory backend forced to the scheme's requirement."""
    base = config if config is not None else skylake_default()
    backend = scheme_backend(scheme)
    if base.memory.backend != backend:
        base = replace(base, memory=replace(base.memory, backend=backend))
    return base


@dataclass(frozen=True)
class SimPoint:
    """One (application x scheme x configuration) simulation."""

    profile: WorkloadProfile
    scheme: str
    config: SystemConfig
    length: int = DEFAULT_LENGTH
    warmup: int = DEFAULT_WARMUP
    seed: int = 0
    track_values: bool = False
    # Also return the write buffer's persist-op log (needed to drive the
    # failure injector against a cached run).
    capture_persist_log: bool = False
    # Core model: "ooo" (the paper's default) or "inorder" (the value-CSQ
    # in-order core of §7.1).
    core: str = "ooo"
    label: str = ""
    # ``(tid, threads)``: the point is thread ``tid`` of a
    # ``threads``-thread barrier-synchronized run (:mod:`repro.multicore`).
    thread: tuple[int, int] | None = None

    def __post_init__(self) -> None:
        check_run(self.core, self.scheme, self.thread)
        check_latencies(self.config)

    @property
    def name(self) -> str:
        if self.label:
            return self.label
        name = f"{self.profile.name}:{self.scheme}"
        if self.core != "ooo":
            name += f":{self.core}"
        if self.thread is not None:
            name += f":t{self.thread[0]}of{self.thread[1]}"
        return name


def bandwidth_share(point: SimPoint) -> float:
    """The point's share of NVM bandwidth: 1.0 unless it is a thread of
    a run wider than :data:`BASE_THREADS`."""
    if point.thread is None or point.thread[1] <= BASE_THREADS:
        return 1.0
    return (BASE_THREADS / point.thread[1]) ** CONTENTION_EXPONENT


def point_inputs(point: SimPoint) -> tuple:
    """``(trace, extents, share)``: the point's interned trace, the
    extents its caches warm from (None when they start cold: no warm-up,
    or the in-order core) and its NVM bandwidth share.

    Thread ``tid``'s trace is seeded ``seed * 1000 + tid`` and interned
    under the name ``<profile>/t<tid>``, so the stats' name never depends
    on whether thread 0 met an equal single-core trace first."""
    if point.thread is None:
        base = ADDR_BASE
        trace = interned_trace(point.profile, point.length, seed=point.seed)
    else:
        tid = point.thread[0]
        base = ADDR_BASE + tid * THREAD_STRIDE
        trace = interned_trace(point.profile, point.length,
                               seed=point.seed * 1000 + tid, addr_base=base,
                               name=f"{point.profile.name}/t{tid}")
    warm = point.warmup > 0 and point.core != "inorder"
    extents = region_extents(point.profile, addr_base=base) if warm else None
    return trace, extents, bandwidth_share(point)


def make_point(profile: WorkloadProfile | str, scheme: str,
               config: SystemConfig | None = None,
               length: int = DEFAULT_LENGTH, warmup: int = DEFAULT_WARMUP,
               seed: int = 0, track_values: bool = False,
               capture_persist_log: bool = False, core: str = "ooo",
               label: str = "",
               thread: tuple[int, int] | None = None) -> SimPoint:
    """Build a :class:`SimPoint` with the configuration resolved (the
    point validates itself: :func:`check_run`)."""
    if isinstance(profile, str):
        profile = profile_by_name(profile)
    return SimPoint(profile=profile, scheme=scheme,
                    config=config_for(scheme, config), length=length,
                    warmup=warmup, seed=seed, track_values=track_values,
                    capture_persist_log=capture_persist_log, core=core,
                    label=label, thread=thread)
