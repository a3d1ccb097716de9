"""Executing simulation points — in-process or in a pool worker.

This is the single place that turns a :class:`SimPoint` into a finished
:class:`CoreStats`. The pool executor (:mod:`repro.orchestrator.pool`,
in-process or in its workers, under every campaign, experiment and the
service) runs every planned unit through one worker entry,
:func:`run_cohort_payloads`, which runs the unit the way the planner
marked it: a kernel unit on :func:`repro.engine.batched.run_cohort`, a
scalar unit on the scalar path. It asks nothing about engines itself.
:func:`simulate_point` and the :func:`repro.simulate` facade ask the
planner's :func:`repro.engine.plan.scalar_reason` once per point and run
it the same two ways. :func:`run_scalar` is the one place that builds a
scalar core for a run.

Traces are interned (:mod:`repro.workloads.interning`) and steady-state
cache contents cloned from prewarmed templates (:mod:`repro.memory.prewarm`),
so sweeping many points over one profile pays trace generation and cache
warmup once per process. Pool workers run :func:`worker_init` on spawn,
which counts the (single) ``repro`` import per worker; the counter
travels back in each payload and surfaces in the campaign telemetry.
"""

from __future__ import annotations

import contextlib
import os
import time
from typing import Any, Iterator

from repro.config import SANITIZE_ENV_VAR, sanitize_requested
from repro.memory.hierarchy import MemorySystem
from repro.memory.nvm import nvm_backend
from repro.memory.prewarm import warmed_memory
from repro.memory.writebuffer import PersistOp
from repro.persistence.catalog import make_policy
from repro.pipeline.core import OoOCore
from repro.pipeline.stats import CoreStats

from repro.orchestrator.points import SimPoint, point_inputs
from repro.orchestrator.serialize import payload_from_run

# Per-process worker accounting. ``imports`` counts worker_init calls in
# THIS process: exactly 1 in a pool worker whose initializer ran, 0 in the
# parent (serial runs never spawn).
_WORKER_STATE = {"imports": 0}


def worker_init(switches: dict[str, str | None] | None = None) -> None:
    """Process-pool initializer: one ``repro`` import per worker.

    Merely unpickling this function reference already imported the heavy
    ``repro`` modules (this module pulls in the core, memory, and policy
    stacks), so per-point submissions start hot.

    ``switches`` pins ``REPRO_TRACE``/``REPRO_SANITIZE`` to the parent's
    values at pool creation (``None``: unset), and the sanitizer's probes
    with them. A forkserver worker otherwise inherits the environment the
    forkserver started under, which can predate the parent's.
    """
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


def worker_info() -> dict[str, int]:
    """This process's worker accounting, for payload/telemetry plumbing."""
    return {"pid": os.getpid(), "imports": _WORKER_STATE["imports"]}


def simulate_point(point: SimPoint, engine: str | None = None) \
        -> tuple[CoreStats, list[PersistOp] | None]:
    """Run one point to completion; returns the stats and, when the point
    asks for it, the write buffer's persist-op log.

    ``engine`` follows the :mod:`repro.engine` contract (None resolves
    ``REPRO_ENGINE``, default ``auto``); the planner's
    :func:`~repro.engine.plan.scalar_reason` decides whether the point
    runs on the kernel as a one-lane unit or on the scalar kernel."""
    stats, log, _, _ = _simulate_engine(point, engine)
    return stats, log


def _simulate_engine(point: SimPoint, engine: str | None) \
        -> tuple[CoreStats, list[PersistOp] | None, str, Any]:
    """:func:`simulate_point` plus which engine actually produced the
    stats (``"scalar"``/``"batched"``) — the honest producer, so a
    diverged-and-fallen-back lane reports ``"scalar"`` — and the scalar
    object that ran the point (None when the kernel ran)."""
    from repro.engine import resolve_engine
    from repro.engine.plan import scalar_reason

    if scalar_reason(point, resolve_engine(engine)) is None:
        from repro.engine.batched import run_cohort

        lane = run_cohort([point])[0]
        if lane.error is not None:
            # lane.error is a picklable LaneError record, not a live
            # exception — re-raise it as the cohort error type.
            raise CohortLaneError(
                f"point {point.name} failed under the batched kernel "
                f"and its scalar fallback: {lane.error}")
        return lane.stats, None, lane.engine, None
    stats, log, runner = _scalar_simulate(point)
    return stats, log, "scalar", runner


def _scalar_simulate(point: SimPoint) \
        -> tuple[CoreStats, list[PersistOp] | None, Any]:
    """The scalar reference path (also the batched kernel's divergence
    fallback, ``batched._scalar_rerun``): the point's inputs, then
    :func:`run_scalar`. Returns the stats, the persist log
    when the point asks for it, and the object that ran."""
    trace, extents, share = point_inputs(point)
    cfg = point.config.memory
    nvm = nvm_backend(cfg.nvm, share)
    if extents is None:
        memory = MemorySystem(cfg, nvm=nvm)
    else:
        memory = warmed_memory(cfg, extents, nvm=nvm)
    stats, runner = run_scalar(trace, point.config, point.scheme,
                               core=point.core, memory=memory,
                               track_values=point.track_values)
    log = None
    if point.capture_persist_log:
        # The crash-capable processors wrap the core that owns the buffer.
        log = getattr(runner, "core", runner).wb.log
    return stats, log, runner


def run_scalar(trace, config, scheme: str, core: str = "ooo",
               memory: MemorySystem | None = None,
               track_values: bool = True) -> tuple[Any, Any]:
    """Run ``trace`` on the scalar model of ``core`` under ``scheme``,
    over ``memory`` (None: cold); returns the stats and the object that
    ran them.

    ``ppa`` gets the crash-capable processor (:class:`PersistentProcessor`
    when it tracks values, :class:`InOrderPersistentProcessor` in order),
    whose run is bit-exact with the bare core's; every other run is the
    bare core. The caller has checked ``core``/``scheme``
    (:func:`repro.orchestrator.points.check_run`)."""
    if core == "inorder":
        if scheme == "ppa":
            from repro.inorder.processor import InOrderPersistentProcessor

            runner = InOrderPersistentProcessor(config, memory=memory)
        else:
            from repro.inorder.core import InOrderCore

            runner = InOrderCore(config, memory=memory, persistent=False)
    elif scheme == "ppa" and track_values:
        from repro.core.processor import PersistentProcessor

        runner = PersistentProcessor(config, memory=memory)
    else:
        runner = OoOCore(config, make_policy(scheme), memory=memory,
                         track_values=track_values)
    return runner.run(trace), runner


def point_trace_filename(point: SimPoint) -> str:
    """The Chrome-trace filename a traced run writes for ``point``
    (shared with the scheduler's stitch manifest)."""
    return point.name.replace(":", "-").replace("/", "-") + ".json"


class CohortLaneError(RuntimeError):
    """One lane of a batched cohort failed (its scalar fallback raised
    too); the pool executor splits the cohort to singletons and
    retries."""


def run_cohort_payloads(points: list[SimPoint], kernel: bool = True,
                        sanitize: bool = False,
                        trace_dir: str | None = None,
                        trace_ctx: dict[str, Any] | None = None) \
        -> list[dict[str, Any]]:
    """Pool-worker entry for one planned unit: one JSON payload per
    point, in order.

    A ``kernel`` unit runs every lane through the batched kernel. A
    scalar unit is one point on the scalar path: with ``sanitize`` under
    the persistency sanitizer's probes (a violation surfaces as an
    ordinary worker failure carrying the offending event); with
    ``trace_dir`` under a fresh telemetry tracer whose Chrome trace is
    written to ``<trace_dir>/<point name>.json`` — including the events
    of a failed run, which is exactly when the timeline is most wanted.
    ``trace_ctx`` (e.g. ``{"trace_id": "c0001", "span_id": "c0001/3"}``)
    is stamped into that trace as a ``trace-context`` instant so
    :mod:`repro.observe.stitch` can merge it with the submitting
    scheduler's spans.

    Returning the serialized form (rather than the live objects) keeps
    the parent<->worker contract identical to the disk-cache contract,
    so the round trip is exercised on every parallel run.
    """
    if kernel:
        payloads = _kernel_payloads(points)
    else:
        [point] = points
        payloads = [_scalar_payload(point, sanitize, trace_dir, trace_ctx)]
    # Worker accounting rides along and is stripped before the payload is
    # cached (pids are not deterministic; cached payloads must be). Only
    # initialized pool workers report — a serial in-process run is not a
    # worker and would always read 0 imports.
    if _WORKER_STATE["imports"]:
        for payload in payloads:
            payload["worker"] = worker_info()
    # Slow-point attribution (repro.observe.profiler): re-run each slow
    # point under cProfile, a kernel lane alone as a one-lane cohort. The
    # env check keeps the common path import-free.
    if os.environ.get("REPRO_SLOW_SIM_PROFILE"):
        from repro.engine.batched import run_cohort
        from repro.observe.profiler import maybe_profile_slow_point

        for point, payload in zip(points, payloads):
            maybe_profile_slow_point(
                point, payload["wall_clock"],
                (lambda point=point: run_cohort([point])) if kernel
                else (lambda point=point: _scalar_simulate(point)))
    return payloads


def _kernel_payloads(points: list[SimPoint]) -> list[dict[str, Any]]:
    from repro.engine.batched import run_cohort

    lanes = run_cohort(points)
    payloads = []
    for point, lane in zip(points, lanes):
        if lane.error is not None:
            # lane.error is a picklable LaneError record (type name,
            # message, traceback) — never a live exception object.
            raise CohortLaneError(
                f"lane {point.name} failed under the batched kernel and "
                f"its scalar fallback: {lane.error}")
        payload = payload_from_run(lane.stats, None, lane.wall_clock,
                                   engine=lane.engine)
        if lane.diverged_at is not None:
            # Deterministic (the divergence point is a property of the
            # inputs), so it is safe in cached payloads; the scheduler's
            # cohort metrics count these as lanes retired to scalar.
            payload["diverged_at"] = lane.diverged_at
        payloads.append(payload)
    return payloads


def _scalar_payload(point: SimPoint, sanitize: bool,
                    trace_dir: str | None,
                    trace_ctx: dict[str, Any] | None) -> dict[str, Any]:
    with contextlib.ExitStack() as stack:
        if trace_dir is not None:
            stack.enter_context(_chrome_trace(point, trace_dir, trace_ctx))
        if sanitize:
            from repro.sanitizer import sanitized

            # The context keeps an in-process (jobs=1) campaign from
            # leaving the probes patched in the caller; with
            # REPRO_SANITIZE=1 they were installed at import and simply
            # stay.
            stack.enter_context(sanitized())
        start = time.perf_counter()
        stats, log, _ = _scalar_simulate(point)
        elapsed = time.perf_counter() - start
    return payload_from_run(stats, log, elapsed, engine="scalar")


@contextlib.contextmanager
def _chrome_trace(point: SimPoint, trace_dir: str,
                  trace_ctx: dict[str, Any] | None) -> Iterator[None]:
    """Record the block under a fresh tracer and write its Chrome trace
    to ``<trace_dir>/<point name>.json``, even when the block raises."""
    import pathlib

    from repro.telemetry import Tracer, tracing
    from repro.telemetry.export import write_chrome_trace

    tracer = Tracer()
    if trace_ctx:
        tracer.instant("meta", "trace-context", 0.0, cat="meta",
                       **trace_ctx)
    try:
        with tracing(tracer):
            yield
    finally:
        write_chrome_trace(tracer,
                           pathlib.Path(trace_dir)
                           / point_trace_filename(point))
