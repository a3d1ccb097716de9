"""The batch planner: partition a point list into kernel cohorts.

Two points can share a cohort — one prologue that loads the trace, its
memory script and its columns, then one walk per lane — when everything
*outside* the per-lane state is identical: the interned trace (profile,
length, seed, thread index), the persistence scheme, whether the caches
start warm, and the cache geometry (the memory config minus the NVM
device parameters — the only part of the hierarchy whose behaviour is
timing-dependent). Everything else — the full core config, the PPA
knobs, the NVM device config and bandwidth share, and whether store
values are tracked — may differ per lane; that is exactly the shape of
the paper's design-space sweeps, where fig16's 96 points differ only in
PRF sizes, and of Fig 19, where one thread's runs differ only in
bandwidth share.

``plan_points`` implements the ``engine`` contract:

* ``"scalar"`` — everything runs on the scalar kernel.
* ``"auto"`` and ``"batched"`` (one plan, two spellings) — every batchable
  point runs the batched kernel, a lone point as a one-lane cohort; only
  unbatchable points stay scalar.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.engine.batched import KERNEL_SCHEMES
from repro.engine.memscript import geometry_key


def unbatchable_reason(point) -> str | None:
    """Why ``point`` cannot run on the batched kernel (None = it can).
    An in-order point has passed ``check_run``, so its scheme is one the
    in-order kernel runs."""
    if point.scheme not in KERNEL_SCHEMES:
        return f"scheme {point.scheme!r} has no batched kernel"
    if point.capture_persist_log:
        return "persist-log capture needs the scalar write buffer"
    return None


def cohort_key(point) -> tuple:
    """Grouping key: points with equal keys may share a cohort prologue
    (trace, memory script, columns). A thread's trace depends on its
    index, not on the thread count."""
    thread = getattr(point, "thread", None)
    return (point.profile, point.length, point.seed, point.warmup > 0,
            point.scheme, geometry_key(point.config.memory),
            getattr(point, "core", "ooo"),
            None if thread is None else thread[0])


@dataclass
class Cohort:
    """One kernel unit: original indices plus their points, in order."""

    indices: list[int]
    points: list

    def __len__(self) -> int:
        return len(self.indices)


@dataclass
class Plan:
    """How a point list will be executed."""

    engine: str
    cohorts: list[Cohort] = field(default_factory=list)
    scalar_indices: list[int] = field(default_factory=list)
    # index -> why that point stayed scalar (engine choice or
    # incompatibility).
    reasons: dict[int, str] = field(default_factory=dict)

    @property
    def batched_points(self) -> int:
        return sum(len(c) for c in self.cohorts)

    def units(self) -> list[list[int]]:
        """Each cohort's indices and each scalar index alone, in order."""
        return sorted([list(c.indices) for c in self.cohorts]
                      + [[index] for index in self.scalar_indices])

    def summary(self) -> dict:
        """Introspection digest for observability surfaces: cohort count
        and widths, the batched/scalar split, and a histogram of why
        points stayed scalar."""
        reasons: dict[str, int] = {}
        for reason in self.reasons.values():
            reasons[reason] = reasons.get(reason, 0) + 1
        return {
            "engine": self.engine,
            "cohorts": len(self.cohorts),
            "cohort_widths": sorted(len(c) for c in self.cohorts),
            "batched_points": self.batched_points,
            "scalar_points": len(self.scalar_indices),
            "scalar_reasons": reasons,
        }


def plan_points(points, engine: str) -> Plan:
    """Partition ``points`` (any SimPoint-shaped sequence) into kernel
    cohorts and scalar leftovers under the given engine mode."""
    plan = Plan(engine=engine)
    if engine == "scalar":
        plan.scalar_indices = list(range(len(points)))
        for index in plan.scalar_indices:
            plan.reasons[index] = "engine=scalar"
        return plan

    groups: dict[tuple, Cohort] = {}
    for index, point in enumerate(points):
        reason = unbatchable_reason(point)
        if reason is not None:
            plan.scalar_indices.append(index)
            plan.reasons[index] = reason
            continue
        key = cohort_key(point)
        cohort = groups.get(key)
        if cohort is None:
            groups[key] = cohort = Cohort(indices=[], points=[])
        cohort.indices.append(index)
        cohort.points.append(point)
    plan.cohorts = list(groups.values())
    return plan


def plan_units(points, engine: str, sanitize: bool = False,
               traced: bool = False) -> Plan:
    """The plan both front ends run (``Campaign``, ``FleetScheduler``).

    Sanitized or traced runs need the scalar kernel's hooks, so all their
    points stay scalar. A width-1 cohort is demoted, with no reason
    recorded, to a singleton: per-point execution resolves the pinned
    engine itself, so it still runs on the kernel."""
    if engine != "scalar" and (sanitize or traced):
        reason = ("sanitizer needs scalar instrumentation" if sanitize
                  else "tracing needs scalar instrumentation")
        indices = list(range(len(points)))
        return Plan(engine=engine, scalar_indices=indices,
                    reasons=dict.fromkeys(indices, reason))
    plan = plan_points(points, engine)
    for cohort in [c for c in plan.cohorts if len(c) < 2]:
        plan.cohorts.remove(cohort)
        plan.scalar_indices.extend(cohort.indices)
    plan.scalar_indices.sort()
    return plan
