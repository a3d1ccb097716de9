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

This module is the only code that decides kernel or scalar. Two
questions stay apart:

* *can* the kernel run a point — :func:`unbatchable_reason`, about the
  scheme and persist-log capture; :func:`repro.engine.batched.run_cohort`
  checks it as its precondition;
* *should* a point run on the kernel now — :func:`scalar_reason`, which
  adds the ``engine`` contract and the instrumentation the run asks for.
  ``"scalar"`` sends everything to the scalar kernel; ``"auto"`` and
  ``"batched"`` (one mode, two spellings) send every batchable point to
  the kernel, a lone point as a one-lane unit. A sanitized or traced
  run, an active tracer and installed sanitizer probes all need the
  scalar kernel's hooks.

:func:`plan_points` asks it once per point, in the process that plans,
and each :class:`PlanUnit` carries the answer; the process that runs a unit
(:func:`repro.orchestrator.execute.run_cohort_payloads`) does not ask
again. Single in-process runs (``execute.simulate_point`` and
:func:`repro.simulate`) ask the same function.
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


def scalar_reason(point, engine: str, sanitize: bool = False,
                  traced: bool = False) -> str | None:
    """Why ``point`` should run on the scalar kernel if planned now (None:
    on the kernel). ``sanitize`` and ``traced`` are the run's own
    instrumentation; an active tracer or installed sanitizer probes in
    this process count too, because the kernel emits no telemetry and
    bypasses the classes the probes patch."""
    if engine == "scalar":
        return "engine=scalar"
    if sanitize:
        return "sanitizer needs scalar instrumentation"
    if traced:
        return "tracing needs scalar instrumentation"
    from repro import telemetry

    if telemetry.tracer_for_run() is not None:
        return "telemetry tracer active"
    from repro.sanitizer import installed

    if installed():
        return "sanitizer probes installed"
    return unbatchable_reason(point)


@dataclass
class PlanUnit:
    """What one worker slot runs: original indices plus their points, in
    order. A kernel unit (any width) runs on the batched kernel; a scalar
    unit is one point on the scalar kernel."""

    indices: list[int]
    points: list
    kernel: bool

    def __len__(self) -> int:
        return len(self.indices)


@dataclass
class Plan:
    """How a point list will be executed: its units in order of their
    first index."""

    engine: str
    units: list[PlanUnit] = field(default_factory=list)
    # index -> why that point stays scalar (scalar_reason).
    reasons: dict[int, str] = field(default_factory=dict)

    @property
    def cohorts(self) -> list[PlanUnit]:
        """The kernel units."""
        return [unit for unit in self.units if unit.kernel]

    @property
    def batched_points(self) -> int:
        return sum(len(unit) for unit in self.cohorts)

    def summary(self) -> dict:
        """Introspection digest for observability surfaces: kernel unit
        count and widths, the batched/scalar split, and a histogram of
        why points stayed scalar."""
        reasons: dict[str, int] = {}
        for reason in self.reasons.values():
            reasons[reason] = reasons.get(reason, 0) + 1
        cohorts = self.cohorts
        return {
            "engine": self.engine,
            "cohorts": len(cohorts),
            "cohort_widths": sorted(len(c) for c in cohorts),
            "batched_points": self.batched_points,
            "scalar_points": len(self.units) - len(cohorts),
            "scalar_reasons": reasons,
        }


def plan_points(points, engine: str, sanitize: bool = False,
                traced: bool = False) -> Plan:
    """Partition ``points`` (any SimPoint-shaped sequence) into kernel
    units and scalar singletons under the given engine mode and run
    instrumentation (:func:`scalar_reason`)."""
    plan = Plan(engine=engine)
    groups: dict[tuple, PlanUnit] = {}
    for index, point in enumerate(points):
        reason = scalar_reason(point, engine, sanitize, traced)
        if reason is not None:
            plan.units.append(PlanUnit([index], [point], kernel=False))
            plan.reasons[index] = reason
            continue
        key = cohort_key(point)
        unit = groups.get(key)
        if unit is None:
            groups[key] = unit = PlanUnit([], [], kernel=True)
            plan.units.append(unit)
        unit.indices.append(index)
        unit.points.append(point)
    return plan
