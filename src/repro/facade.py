"""The unified run API: one call simulates any core under any scheme.

A profile run is a :class:`~repro.orchestrator.points.SimPoint` run
through the same router as every campaign point
(:mod:`repro.orchestrator.execute`: the kernel, else the one scalar
runner); a raw trace runs on that scalar runner over cold caches; a
multicore run is thread points plus the barrier reduction
(:func:`repro.multicore.system.barrier_reduce`). Callers need not pick
an engine or a model class themselves:

>>> result = repro.simulate("gcc", scheme="ppa")   # runs on the kernel
>>> result.stats.ipc
>>> crash = result.crash_api.crash_at(result.stats.cycles / 2)  # replays
>>> traced = repro.simulate("gcc", scheme="ppa", trace=True)    # scalar
>>> traced.write_chrome_trace("gcc-ppa.json")      # open in Perfetto

``trace=True`` attaches a fresh :class:`repro.telemetry.Tracer` for this
run only (``REPRO_TRACE=1`` and an ambient ``tracing()`` context also
work); ``trace=False`` leaves the zero-overhead fast path untouched.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Callable

from repro.config import SystemConfig
from repro.isa.trace import Trace
from repro.statsbase import StatsBase
from repro.workloads.profiles import WorkloadProfile, profile_by_name

CORES = ("ooo", "inorder", "multicore")


@dataclass
class SimResult:
    """What one :func:`simulate` call produces.

    ``stats`` is the run's :class:`repro.statsbase.StatsBase` object
    (:class:`CoreStats`, :class:`InOrderStats`, or
    :class:`MulticoreStats`); ``telemetry`` is the run's tracer (or
    ``None`` when tracing was off); ``crash_api`` exposes the
    crash/recover life cycle when the core/scheme combination supports
    power-failure injection (``None`` otherwise). It is built on first
    read by ``make_crash_api``: a run on the kernel replays itself on the
    scalar processor only when a caller asks for it.
    """

    stats: StatsBase
    telemetry: Any = None
    make_crash_api: Callable[[], Any] | None = field(
        default=None, repr=False, compare=False)

    @cached_property
    def crash_api(self) -> Any:
        if self.make_crash_api is None:
            return None
        return self.make_crash_api()

    def write_chrome_trace(self, path) -> None:
        """Export the run's events as a Perfetto-loadable Chrome trace."""
        from repro.telemetry.export import write_chrome_trace

        self._require_telemetry()
        write_chrome_trace(self.telemetry, path)

    def write_jsonl(self, path) -> None:
        """Export the run's events as flat JSONL."""
        from repro.telemetry.export import write_jsonl

        self._require_telemetry()
        write_jsonl(self.telemetry, path)

    def _require_telemetry(self) -> None:
        if self.telemetry is None:
            raise RuntimeError(
                "this run was not traced; pass trace=True to simulate() "
                "or set REPRO_TRACE=1")


def _resolve_profile(spec) -> tuple[WorkloadProfile | None, Trace | None]:
    """``simulate`` accepts a profile, a profile name, or a ready trace."""
    if isinstance(spec, Trace):
        return None, spec
    if isinstance(spec, WorkloadProfile):
        return spec, None
    if isinstance(spec, str):
        return profile_by_name(spec), None
    raise TypeError(
        f"expected a Trace, WorkloadProfile, or profile name; "
        f"got {type(spec).__name__}")


def _run_multicore(profile, scheme, config, length, warmup, seed,
                   threads, engine, tracer) -> SimResult:
    """Thread points, then the barrier reduction; traced, thread ``tid``
    records into a ``core{tid}/`` scope."""
    from repro import telemetry
    from repro.multicore.system import barrier_reduce, thread_points
    from repro.orchestrator.execute import _simulate_engine

    points = thread_points(profile, scheme, threads, config=config,
                           length=length, warmup=warmup, seed=seed)
    per_thread = []
    for tid, point in enumerate(points):
        if tracer is None:
            per_thread.append(_simulate_engine(point, engine)[0])
            continue
        with telemetry.tracing(tracer.scope(f"core{tid}")):
            per_thread.append(_simulate_engine(point, engine)[0])
    stats = barrier_reduce(profile, scheme, length, per_thread,
                           tracer=tracer)
    return SimResult(stats=stats, telemetry=tracer)


def _run(profile, run_trace, scheme, core, config, length, warmup, seed,
         threads, engine, tracer) -> SimResult:
    from repro.orchestrator.execute import (
        _scalar_simulate,
        _simulate_engine,
        run_scalar,
    )
    from repro.orchestrator.points import check_run, make_point

    if core == "multicore":
        return _run_multicore(profile, scheme, config, length, warmup,
                              seed, threads, engine, tracer)
    if run_trace is not None:
        check_run(core, scheme)
        stats, runner = run_scalar(run_trace, config, scheme, core=core)
    else:
        # track_values=True matches the scalar OoOCore default, so the
        # stats (store values included) do not depend on the engine. On
        # the kernel it adds nothing to the walk: store values come from
        # the trace's value stream, built once per trace.
        point = make_point(profile, scheme, config, length=length,
                           warmup=warmup, seed=seed, track_values=True,
                           core=core)
        stats, _, _, runner = _simulate_engine(point, engine)
    if scheme != "ppa":
        return SimResult(stats=stats, telemetry=tracer)
    if runner is None:
        # The kernel ran: replay the point on the scalar processor the
        # first time the crash API is read (untraced, like the run).
        return SimResult(stats=stats, telemetry=tracer,
                         make_crash_api=lambda: _scalar_simulate(point)[2])
    return SimResult(stats=stats, telemetry=tracer,
                     make_crash_api=lambda: runner)


def simulate(trace_or_profile, *, scheme: str = "ppa", core: str = "ooo",
             config: SystemConfig | None = None, trace: bool = False,
             length: int = 20_000, warmup: int = 1, seed: int = 0,
             threads: int = 8, engine: str | None = None) -> SimResult:
    """Simulate one workload on one core model under one scheme.

    ``trace_or_profile`` is a :class:`~repro.isa.trace.Trace`, a
    :class:`~repro.workloads.profiles.WorkloadProfile`, or a profile name
    (``"gcc"``). ``core`` selects the model — ``"ooo"`` (Section 4),
    ``"inorder"`` (Section 6's value-CSQ variant, schemes ``ppa`` and
    ``baseline`` only), or ``"multicore"`` (Section 7.11, profile input
    only: ``threads`` out-of-order thread points, one simulation point
    each, barrier-reduced to a :class:`MulticoreStats`). ``trace=True``
    records cycle-level telemetry into ``result.telemetry`` without
    touching the configured environment.

    A profile run is the value-tracking :class:`SimPoint` of the same
    arguments, run like every other point
    (:func:`repro.orchestrator.execute.simulate_point`). ``engine``
    follows the :mod:`repro.engine` contract (``None`` resolves
    ``REPRO_ENGINE``, default ``"auto"``): under ``"auto"`` or
    ``"batched"`` a scheme with a kernel —
    ``ppa``/``baseline``/``eadr``/``dram-only``/``capri`` on the
    out-of-order core, ``ppa``/``baseline`` on the in-order core — runs
    on the one-lane kernel, bit-exact with the scalar kernel; so does
    each thread of a multicore run. Raw ``Trace`` input runs on the
    scalar kernel over cold caches, as do ``engine="scalar"`` and runs
    under an active tracer or sanitizer.

    For single-core ``ppa``, ``result.crash_api`` is the processor that
    ran when the scalar kernel ran (its checkpoint and recovery spans
    land on the run's tracer); after a kernel run, its first read
    replays the point on the scalar processor.
    """
    if core not in CORES:
        raise ValueError(f"unknown core {core!r}; options: {list(CORES)}")
    from repro import telemetry
    from repro.engine import resolve_engine
    from repro.orchestrator.points import config_for

    engine = resolve_engine(engine)
    profile, run_trace = _resolve_profile(trace_or_profile)
    if core == "multicore" and profile is None:
        raise ValueError(
            "the multicore system generates per-thread traces itself; "
            "pass a profile (or profile name), not a Trace")
    config = config_for(scheme, config)
    tracer = telemetry.Tracer() if trace else telemetry.tracer_for_run()
    args = (profile, run_trace, scheme, core, config, length, warmup, seed,
            threads, engine, tracer)
    if tracer is None:
        return _run(*args)
    with telemetry.tracing(tracer):
        return _run(*args)
