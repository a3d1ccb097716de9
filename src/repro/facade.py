"""The unified run API: one call simulates any core under any scheme.

It wraps the per-model classes (``PersistentProcessor``,
``InOrderPersistentProcessor``, ``MulticoreSystem``, ...) and the engine
layer, so callers need not pick one themselves:

>>> result = repro.simulate("gcc", scheme="ppa", trace=True)
>>> result.stats.ipc
>>> result.write_chrome_trace("gcc-ppa.json")      # open in Perfetto
>>> crash = result.crash_api.crash_at(result.stats.cycles / 2)

``trace=True`` attaches a fresh :class:`repro.telemetry.Tracer` for this
run only (``REPRO_TRACE=1`` and an ambient ``tracing()`` context also
work); ``trace=False`` leaves the zero-overhead fast path untouched.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.config import SystemConfig, skylake_default
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
    power-failure injection (``None`` otherwise).
    """

    stats: StatsBase
    telemetry: Any = None
    crash_api: Any = None

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


def _scheme_config(config: SystemConfig | None, scheme: str) -> SystemConfig:
    from dataclasses import replace

    from repro.persistence.catalog import scheme_backend

    if config is None:
        config = skylake_default()
    backend = scheme_backend(scheme)
    if config.memory.backend != backend:
        config = replace(config, memory=replace(config.memory,
                                                backend=backend))
    return config


def _run_ooo(profile, run_trace, scheme, config, length, warmup,
             seed, engine) -> SimResult:
    from repro.memory.hierarchy import MemorySystem
    from repro.persistence.catalog import make_policy
    from repro.pipeline.core import OoOCore

    if engine == "batched" and run_trace is None and scheme != "ppa":
        # A profile run with no crash API can go through the batched
        # kernel; ``ppa`` stays scalar here because ``result.crash_api``
        # needs the value-tracking PersistentProcessor. (The kernel
        # double-checks scheme compatibility and runtime guards itself.)
        from repro.engine import runtime_scalar_reason
        from repro.orchestrator.execute import simulate_point
        from repro.orchestrator.points import make_point

        if runtime_scalar_reason() is None:
            # track_values=True matches the facade's scalar path, which
            # runs OoOCore with its value-tracking default — the stats
            # (store values included) must not depend on the engine.
            point = make_point(profile=profile, scheme=scheme,
                               config=config, length=length, warmup=warmup,
                               seed=seed, track_values=True)
            stats, _ = simulate_point(point, engine="batched")
            return SimResult(stats=stats, telemetry=None, crash_api=None)
    if run_trace is None:
        # Profile runs intern the generated trace and clone prewarmed
        # cache state from a shared template — both deterministic, so
        # repeated runs are bit-identical to cold ones.
        from repro.memory.prewarm import warmed_memory
        from repro.workloads.interning import interned_trace, region_extents

        run_trace = interned_trace(profile, length, seed=seed)
        if warmup > 0:
            memory = warmed_memory(config.memory, region_extents(profile))
        else:
            memory = MemorySystem(config.memory)
    else:
        memory = MemorySystem(config.memory)
    if scheme == "ppa":
        # The full life cycle (run / crash_at / recover) needs the
        # value-tracking PPA processor.
        from repro.core.processor import PersistentProcessor

        proc = PersistentProcessor(config, memory=memory)
        stats = proc.run(run_trace)
        return SimResult(stats=stats, telemetry=proc.tracer,
                         crash_api=proc)
    core = OoOCore(config, make_policy(scheme), memory=memory)
    stats = core.run(run_trace)
    return SimResult(stats=stats, telemetry=core.tracer, crash_api=None)


def _run_inorder(profile, run_trace, scheme, config, length,
                 seed, engine) -> SimResult:
    from repro.workloads.interning import interned_trace

    if engine == "batched" and run_trace is None and scheme == "baseline":
        # A profile run can go through the batched in-order lane kernel;
        # ``ppa`` stays scalar here because ``result.crash_api`` needs
        # the value-CSQ processor.
        from repro.engine import runtime_scalar_reason
        from repro.orchestrator.execute import simulate_point
        from repro.orchestrator.points import make_point

        if runtime_scalar_reason() is None:
            point = make_point(profile=profile, scheme=scheme,
                               config=config, length=length, warmup=0,
                               seed=seed, core="inorder")
            stats, _ = simulate_point(point, engine="batched")
            return SimResult(stats=stats, telemetry=None, crash_api=None)
    if run_trace is None:
        run_trace = interned_trace(profile, length, seed=seed)
    if scheme == "ppa":
        from repro.inorder.processor import InOrderPersistentProcessor

        proc = InOrderPersistentProcessor(config)
        stats = proc.run(run_trace)
        return SimResult(stats=stats, telemetry=proc.core.tracer,
                         crash_api=proc)
    if scheme == "baseline":
        from repro.inorder.core import InOrderCore

        core = InOrderCore(config, persistent=False)
        stats = core.run(run_trace)
        return SimResult(stats=stats, telemetry=core.tracer,
                         crash_api=None)
    raise ValueError(
        f"the in-order core supports scheme 'ppa' or 'baseline', "
        f"not {scheme!r}")


def _run_multicore(profile, scheme, config, length, warmup, seed,
                   threads) -> SimResult:
    from repro.multicore.system import MulticoreSystem

    system = MulticoreSystem(config, scheme, threads=threads)
    stats = system.run_profile(profile, length=length, warmup=warmup,
                               seed=seed)
    return SimResult(stats=stats, telemetry=system.tracer, crash_api=None)


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
    only). ``trace=True`` records cycle-level telemetry into
    ``result.telemetry`` without touching the configured environment.

    ``engine`` follows the :mod:`repro.engine` contract (``None`` resolves
    ``REPRO_ENGINE``, default ``"auto"``): a single facade call batches
    only under ``engine="batched"`` — ``"auto"`` batches cohorts of >= 2
    points, which exist on the campaign paths. Batched runs return stats
    only (no telemetry, no crash API), bit-exact with the scalar kernel.
    That covers ``baseline``/``eadr``/``dram-only``/``capri`` on the
    out-of-order core and ``baseline`` on the in-order core; combinations
    that need the value-tracking processors for ``result.crash_api``
    (``ppa`` on either core), the multicore model, and raw ``Trace``
    input run scalar regardless.
    """
    if core not in CORES:
        raise ValueError(f"unknown core {core!r}; options: {list(CORES)}")
    from repro.engine import resolve_engine

    engine = resolve_engine(engine)
    profile, run_trace = _resolve_profile(trace_or_profile)
    if core == "multicore" and profile is None:
        raise ValueError(
            "the multicore system generates per-thread traces itself; "
            "pass a profile (or profile name), not a Trace")
    config = _scheme_config(config, scheme)

    if trace:
        from repro.telemetry import Tracer, tracing

        with tracing(Tracer()):
            return _dispatch(profile, run_trace, scheme, core, config,
                             length, warmup, seed, threads, engine)
    return _dispatch(profile, run_trace, scheme, core, config, length,
                     warmup, seed, threads, engine)


def _dispatch(profile, run_trace, scheme, core, config, length, warmup,
              seed, threads, engine) -> SimResult:
    if core == "ooo":
        return _run_ooo(profile, run_trace, scheme, config, length,
                        warmup, seed, engine)
    if core == "inorder":
        return _run_inorder(profile, run_trace, scheme, config, length,
                            seed, engine)
    return _run_multicore(profile, scheme, config, length, warmup, seed,
                          threads)
