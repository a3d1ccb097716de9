"""Simulation points: the unit of work a campaign schedules.

A :class:`SimPoint` pins down everything that determines a run's outcome —
workload profile, scheme, resolved configuration, trace length/warmup,
seed, and whether values are tracked — so the same point always hashes to
the same cache key, in any process.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.config import SystemConfig, skylake_default
from repro.persistence.catalog import scheme_backend
from repro.workloads.profiles import WorkloadProfile, profile_by_name

DEFAULT_LENGTH = 20_000
DEFAULT_WARMUP = 40_000


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

    @property
    def name(self) -> str:
        if self.label:
            return self.label
        if self.core != "ooo":
            return f"{self.profile.name}:{self.scheme}:{self.core}"
        return f"{self.profile.name}:{self.scheme}"


def make_point(profile: WorkloadProfile | str, scheme: str,
               config: SystemConfig | None = None,
               length: int = DEFAULT_LENGTH, warmup: int = DEFAULT_WARMUP,
               seed: int = 0, track_values: bool = False,
               capture_persist_log: bool = False, core: str = "ooo",
               label: str = "") -> SimPoint:
    """Build a :class:`SimPoint` with the configuration resolved."""
    if isinstance(profile, str):
        profile = profile_by_name(profile)
    if core not in ("ooo", "inorder"):
        raise ValueError(f"unknown core model {core!r} "
                         "(options: ooo, inorder)")
    return SimPoint(profile=profile, scheme=scheme,
                    config=config_for(scheme, config), length=length,
                    warmup=warmup, seed=seed, track_values=track_values,
                    capture_persist_log=capture_persist_log, core=core,
                    label=label)
