"""Executing one simulation point — in-process or in a pool worker.

This is the single place that turns a :class:`SimPoint` into a finished
:class:`CoreStats`; the pool executor (:mod:`repro.orchestrator.pool`,
in-process or in its workers, under every campaign, experiment and the
service) and the :func:`repro.simulate` facade's kernel path all
delegate here, so the serial and parallel paths cannot drift apart.

Traces are interned (:mod:`repro.workloads.interning`) and steady-state
cache contents cloned from prewarmed templates (:mod:`repro.memory.prewarm`),
so sweeping many points over one profile pays trace generation and cache
warmup once per process. Pool workers run :func:`worker_init` on spawn,
which counts the (single) ``repro`` import per worker and pre-interns the
traces the campaign is about to sweep; the counter travels back in each
payload and surfaces in the campaign telemetry.
"""

from __future__ import annotations

import os
import time
from typing import Any

from repro.config import SANITIZE_ENV_VAR, sanitize_requested
from repro.memory.hierarchy import MemorySystem
from repro.memory.prewarm import declare_resident_extents, warmed_memory
from repro.memory.writebuffer import PersistOp
from repro.persistence.catalog import make_policy
from repro.pipeline.core import OoOCore
from repro.pipeline.stats import CoreStats
from repro.workloads.interning import interned_trace, region_extents
from repro.workloads.synthetic import TraceGenerator

from repro.orchestrator.points import SimPoint
from repro.orchestrator.serialize import payload_from_run

# Per-process worker accounting. ``imports`` counts worker_init calls in
# THIS process: exactly 1 in a pool worker whose initializer ran, 0 in the
# parent (serial runs never spawn).
_WORKER_STATE = {"imports": 0, "preloaded": 0}


def worker_init(preload_specs: tuple = (), engine: str | None = None,
                switches: dict[str, str | None] | None = None) -> None:
    """Process-pool initializer: one ``repro`` import per worker, plus
    up-front interning of the traces shared by the submitted points.

    Merely unpickling this function reference already imported the heavy
    ``repro`` modules (this module pulls in the core, memory, and policy
    stacks), so per-point submissions start hot.

    ``engine`` pins the worker's default engine (``REPRO_ENGINE``), so a
    campaign's explicit ``engine=`` choice governs per-point execution in
    workers too — not just the parent's cohort planning.

    ``switches`` pins ``REPRO_TRACE``/``REPRO_SANITIZE`` to the parent's
    values at pool creation (``None``: unset), and the sanitizer's probes
    with them. A forkserver worker otherwise inherits the environment the
    forkserver started under, which can predate the parent's.
    """
    from repro.workloads.interning import preload

    if engine is not None:
        from repro.engine import ENGINE_ENV_VAR

        os.environ[ENGINE_ENV_VAR] = engine
    for name, value in (switches or {}).items():
        if os.environ.get(name) == value:
            continue
        if value is None:
            del os.environ[name]
        else:
            os.environ[name] = value
        if name == SANITIZE_ENV_VAR:
            from repro import sanitizer

            if sanitize_requested():
                sanitizer.install()
            else:
                sanitizer.uninstall()
    _WORKER_STATE["imports"] += 1
    _WORKER_STATE["preloaded"] += preload(preload_specs)


def worker_info() -> dict[str, int]:
    """This process's worker accounting, for payload/telemetry plumbing."""
    return {"pid": os.getpid(),
            "imports": _WORKER_STATE["imports"],
            "preloaded": _WORKER_STATE["preloaded"]}


def declare_steady_state(memory: MemorySystem,
                         generator: TraceGenerator) -> None:
    """Mark non-streaming regions DRAM-cache resident: after the billions
    of instructions the paper fast-forwards, a sub-4 GB reused footprint
    sits in the direct-mapped DRAM cache, while streaming data outruns it."""
    declare_resident_extents(memory, generator.region_extents())


def simulate_point(point: SimPoint, engine: str | None = None) \
        -> tuple[CoreStats, list[PersistOp] | None]:
    """Run one point to completion; returns the stats and, when the point
    asks for it, the write buffer's persist-op log.

    ``engine`` follows the :mod:`repro.engine` contract (None resolves
    ``REPRO_ENGINE``, default ``auto``): under ``auto`` or ``batched`` a
    batchable point runs on the kernel as a one-lane cohort, unless an
    active tracer or sanitizer needs the scalar kernel."""
    stats, log, _ = _simulate_engine(point, engine)
    return stats, log


def _simulate_engine(point: SimPoint, engine: str | None) \
        -> tuple[CoreStats, list[PersistOp] | None, str]:
    """:func:`simulate_point` plus which engine actually produced the
    stats (``"scalar"``/``"batched"``) — the honest producer, so a
    diverged-and-fallen-back lane reports ``"scalar"``."""
    from repro.engine import resolve_engine, runtime_scalar_reason

    engine = resolve_engine(engine)
    if engine != "scalar" and runtime_scalar_reason() is None:
        from repro.engine.batched import run_cohort
        from repro.engine.plan import unbatchable_reason

        if unbatchable_reason(point) is None:
            lane = run_cohort([point])[0]
            if lane.error is not None:
                # lane.error is a picklable LaneError record, not a live
                # exception — re-raise it as the cohort error type.
                raise CohortLaneError(
                    f"point {point.name} failed under the batched kernel "
                    f"and its scalar fallback: {lane.error}")
            return lane.stats, None, lane.engine
    stats, log = _scalar_simulate(point)
    return stats, log, "scalar"


def _scalar_simulate(point: SimPoint) \
        -> tuple[CoreStats, list[PersistOp] | None]:
    """The scalar reference path (also the batched kernel's divergence
    fallback, via ``simulate_point(..., engine="scalar")``)."""
    trace = interned_trace(point.profile, point.length, seed=point.seed)
    if point.core == "inorder":
        # The in-order model always runs cold (the facade ignores warmup
        # and so does the batched in-order kernel).
        from repro.inorder.core import InOrderCore

        core = InOrderCore(point.config,
                           memory=MemorySystem(point.config.memory),
                           persistent=point.scheme == "ppa")
    else:
        if point.warmup > 0:
            memory = warmed_memory(point.config.memory,
                                   region_extents(point.profile))
        else:
            memory = MemorySystem(point.config.memory)
        core = OoOCore(point.config, make_policy(point.scheme),
                       memory=memory, track_values=point.track_values)
    stats = core.run(trace)
    log = core.wb.log if point.capture_persist_log else None
    return stats, log


def point_trace_filename(point: SimPoint) -> str:
    """The Chrome-trace filename a traced run writes for ``point``
    (shared with the scheduler's stitch manifest)."""
    return point.name.replace(":", "-").replace("/", "-") + ".json"


def run_point_payload(point: SimPoint, sanitize: bool = False,
                      trace_dir: str | None = None,
                      trace_ctx: dict[str, Any] | None = None) \
        -> dict[str, Any]:
    """Pool-worker entry: simulate and return a JSON payload.

    Returning the serialized form (rather than the live objects) keeps the
    parent<->worker contract identical to the disk-cache contract, so the
    round trip is exercised on every parallel run. With ``sanitize`` (or
    ``REPRO_SANITIZE=1`` in the worker's environment) the run executes
    under the persistency sanitizer's invariant probes; a violation
    surfaces as an ordinary worker failure carrying the offending event.
    With ``trace_dir``, the point runs under a fresh telemetry tracer and
    its Chrome trace is written to ``<trace_dir>/<point name>.json`` —
    including the events of a failed/violating run, which is exactly when
    the timeline is most wanted. ``trace_ctx`` (e.g. ``{"trace_id":
    "c0001", "span_id": "c0001/3"}``) is stamped into the trace as a
    ``trace-context`` instant so :mod:`repro.observe.stitch` can merge
    this worker's timeline with the submitting scheduler's spans."""
    if trace_dir is None:
        return _run_point_payload(point, sanitize)
    import pathlib

    from repro.telemetry import Tracer, tracing
    from repro.telemetry.export import write_chrome_trace

    tracer = Tracer()
    if trace_ctx:
        tracer.instant("meta", "trace-context", 0.0, cat="meta",
                       **trace_ctx)
    trace_path = pathlib.Path(trace_dir) / point_trace_filename(point)
    try:
        with tracing(tracer):
            return _run_point_payload(point, sanitize)
    finally:
        write_chrome_trace(tracer, trace_path)


def _run_point_payload(point: SimPoint, sanitize: bool) -> dict[str, Any]:
    if sanitize:
        from repro.sanitizer import sanitized

        # The context keeps an in-process (jobs=1) campaign from leaving
        # the probes patched in the caller; with REPRO_SANITIZE=1 they
        # were installed at import and simply stay.
        with sanitized():
            start = time.perf_counter()
            stats, log, engine = _simulate_engine(point, None)
    else:
        start = time.perf_counter()
        stats, log, engine = _simulate_engine(point, None)
    elapsed = time.perf_counter() - start
    payload = payload_from_run(stats, log, elapsed, engine=engine)
    # Worker accounting rides along and is stripped before the payload is
    # cached (pids are not deterministic; cached payloads must be). Only
    # initialized pool workers report — a serial in-process run is not a
    # worker and would always read 0 imports.
    if _WORKER_STATE["imports"]:
        payload["worker"] = worker_info()
    # Slow-point attribution (repro.observe.profiler): re-run offenders
    # under cProfile. The env check keeps the common path import-free.
    if os.environ.get("REPRO_SLOW_SIM_PROFILE"):
        from repro.observe.profiler import maybe_profile_slow_point

        maybe_profile_slow_point(point, elapsed,
                                 lambda: _simulate_engine(point, None))
    return payload


class CohortLaneError(RuntimeError):
    """One lane of a batched cohort failed (its scalar fallback raised
    too); the pool executor splits the cohort to singletons and
    retries."""


def run_cohort_payloads(points: list[SimPoint]) -> list[dict[str, Any]]:
    """Pool-worker entry for one planned cohort: run all lanes through the
    batched kernel, returning one payload per point in lane order.

    Sanitized or traced runs never plan cohorts
    (:func:`repro.engine.plan.plan_units`), but a worker whose environment
    sets ``REPRO_SANITIZE=1``/``REPRO_TRACE=1`` behind the planner's back
    still gets correct results: the runtime guard pushes every lane down
    the scalar per-point path.
    """
    from repro.engine import runtime_scalar_reason

    if runtime_scalar_reason() is not None:
        return [run_point_payload(point) for point in points]
    from repro.engine.batched import run_cohort

    start = time.perf_counter()
    lanes = run_cohort(points)
    # The cohort advanced in lockstep, so per-lane wall clock is the
    # kernel's elapsed time split evenly across lanes.
    share = (time.perf_counter() - start) / max(1, len(lanes))
    payloads = []
    for point, lane in zip(points, lanes):
        if lane.error is not None:
            # lane.error is a picklable LaneError record (type name,
            # message, traceback) — never a live exception object.
            raise CohortLaneError(
                f"lane {point.name} failed under the batched kernel and "
                f"its scalar fallback: {lane.error}")
        payload = payload_from_run(lane.stats, None, share,
                                   engine=lane.engine)
        if lane.diverged_at is not None:
            # Deterministic (the divergence point is a property of the
            # inputs), so it is safe in cached payloads; the scheduler's
            # cohort metrics count these as lanes retired to scalar.
            payload["diverged_at"] = lane.diverged_at
        if _WORKER_STATE["imports"]:
            payload["worker"] = worker_info()
        payloads.append(payload)
    return payloads
