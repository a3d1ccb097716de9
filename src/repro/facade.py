"""The unified run API: one call simulates any core under any scheme.

It wraps the per-model classes (``PersistentProcessor``,
``InOrderPersistentProcessor``, ``MulticoreSystem``, ...) and the engine
layer, so callers need not pick one themselves:

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


def _run_kernel(profile, scheme, core, config, length, warmup,
                seed, engine) -> SimResult | None:
    """Run a profile point on the one-lane kernel (bit-exact with the
    scalar kernel); None when the scheme has no kernel or an active
    tracer or sanitizer needs the scalar kernel's hooks."""
    from repro.engine import runtime_scalar_reason
    from repro.engine.plan import unbatchable_reason
    from repro.orchestrator.execute import simulate_point
    from repro.orchestrator.points import make_point

    # track_values=True matches the scalar OoOCore default, so the stats
    # (store values included) do not depend on the engine. The in-order
    # model always runs cold.
    point = make_point(profile=profile, scheme=scheme, config=config,
                       length=length,
                       warmup=warmup if core == "ooo" else 0, seed=seed,
                       track_values=True, core=core)
    if unbatchable_reason(point) or runtime_scalar_reason():
        return None
    stats, _ = simulate_point(point, engine=engine)
    if scheme != "ppa":
        return SimResult(stats=stats)
    # The crash API is the value-tracking processor, built on first read
    # by a scalar replay of the same trace, config and warm-up.
    return SimResult(stats=stats, make_crash_api=lambda: _dispatch(
        profile, None, scheme, core, config, length, warmup, seed,
        threads=0, engine="scalar").crash_api)


def _run_ooo(profile, run_trace, scheme, config, length, warmup,
             seed) -> SimResult:
    from repro.memory.hierarchy import MemorySystem
    from repro.persistence.catalog import make_policy
    from repro.pipeline.core import OoOCore

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
                         make_crash_api=lambda: proc)
    core = OoOCore(config, make_policy(scheme), memory=memory)
    stats = core.run(run_trace)
    return SimResult(stats=stats, telemetry=core.tracer)


def _run_inorder(profile, run_trace, scheme, config, length,
                 seed) -> SimResult:
    from repro.workloads.interning import interned_trace

    if run_trace is None:
        run_trace = interned_trace(profile, length, seed=seed)
    if scheme == "ppa":
        from repro.inorder.processor import InOrderPersistentProcessor

        proc = InOrderPersistentProcessor(config)
        stats = proc.run(run_trace)
        return SimResult(stats=stats, telemetry=proc.core.tracer,
                         make_crash_api=lambda: proc)
    if scheme == "baseline":
        from repro.inorder.core import InOrderCore

        core = InOrderCore(config, persistent=False)
        stats = core.run(run_trace)
        return SimResult(stats=stats, telemetry=core.tracer)
    raise ValueError(
        f"the in-order core supports scheme 'ppa' or 'baseline', "
        f"not {scheme!r}")


def _run_multicore(profile, scheme, config, length, warmup, seed,
                   threads) -> SimResult:
    from repro.multicore.system import MulticoreSystem

    system = MulticoreSystem(config, scheme, threads=threads)
    stats = system.run_profile(profile, length=length, warmup=warmup,
                               seed=seed)
    return SimResult(stats=stats, telemetry=system.tracer)


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
    ``REPRO_ENGINE``, default ``"auto"``): under ``"auto"`` or
    ``"batched"`` a profile run of a scheme with a kernel —
    ``ppa``/``baseline``/``eadr``/``dram-only``/``capri`` on the
    out-of-order core, ``ppa``/``baseline`` on the in-order core — runs
    on the one-lane kernel, bit-exact with the scalar kernel. For ``ppa``
    the first read of ``result.crash_api`` replays the run on the
    value-tracking processor. Raw ``Trace`` input, the multicore model,
    ``engine="scalar"`` and runs under an active tracer or sanitizer use
    the scalar kernel.
    """
    if core not in CORES:
        raise ValueError(f"unknown core {core!r}; options: {list(CORES)}")
    from repro.engine import resolve_engine
    from repro.orchestrator.points import config_for

    engine = resolve_engine(engine)
    profile, run_trace = _resolve_profile(trace_or_profile)
    if core == "multicore" and profile is None:
        raise ValueError(
            "the multicore system generates per-thread traces itself; "
            "pass a profile (or profile name), not a Trace")
    config = config_for(scheme, config)

    if trace:
        from repro.telemetry import Tracer, tracing

        with tracing(Tracer()):
            return _dispatch(profile, run_trace, scheme, core, config,
                             length, warmup, seed, threads, engine)
    return _dispatch(profile, run_trace, scheme, core, config, length,
                     warmup, seed, threads, engine)


def _dispatch(profile, run_trace, scheme, core, config, length, warmup,
              seed, threads, engine) -> SimResult:
    if core == "multicore":
        return _run_multicore(profile, scheme, config, length, warmup, seed,
                              threads)
    if engine != "scalar" and run_trace is None:
        result = _run_kernel(profile, scheme, core, config, length, warmup,
                             seed, engine)
        if result is not None:
            return result
    if core == "ooo":
        return _run_ooo(profile, run_trace, scheme, config, length,
                        warmup, seed)
    return _run_inorder(profile, run_trace, scheme, config, length, seed)
