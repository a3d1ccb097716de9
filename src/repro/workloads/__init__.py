"""Synthetic workloads standing in for the paper's 41 applications."""

from repro.workloads.profiles import (
    ALL_PROFILES,
    SUITES,
    MemRegion,
    WorkloadProfile,
    profile_by_name,
    profiles_in_suite,
)
from repro.workloads.synthetic import TraceGenerator, generate_trace

__all__ = [
    "ALL_PROFILES",
    "MemRegion",
    "SUITES",
    "TraceGenerator",
    "WorkloadProfile",
    "generate_trace",
    "profile_by_name",
    "profiles_in_suite",
]
