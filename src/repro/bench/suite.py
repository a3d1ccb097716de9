"""The curated benchmark suites the harness measures.

Every benchmark is deterministic by construction — pinned seed, pinned
length, pinned configuration — so repeated runs must produce *identical*
simulated cycle and instruction counts; only wall-clock varies. The
``simulate`` group covers the core models x persistence policies the
figures exercise (OoO and in-order and multicore x PPA / Capri / software
logging); the ``campaign`` group measures orchestrator throughput over an
uncached in-process campaign, aggregating only simulated (non-cache-hit)
points.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from repro.statsbase import sim_volume


@dataclass(frozen=True)
class Benchmark:
    """One named, deterministic measurement unit."""

    name: str
    group: str                 # "simulate" | "campaign"
    description: str
    # One measured execution; returns (simulated cycles, instructions).
    run: Callable[[], tuple[float, int]]
    # The simulate() kwargs behind a "simulate" benchmark, kept so the
    # profiler can re-run the identical workload under cProfile/tracing.
    sim_kwargs: dict[str, Any] = field(default_factory=dict)


def _simulate_benchmark(name: str, description: str,
                        **kwargs: Any) -> Benchmark:
    """One ``simulate()`` call. The engine is pinned to the scalar kernel
    (never left to ``REPRO_ENGINE``), like a campaign benchmark's: the
    committed trajectory measures the scalar reference model, which a
    default call no longer runs for kernel schemes."""
    from repro.facade import simulate

    kwargs.setdefault("seed", 0)
    kwargs.setdefault("engine", "scalar")

    def run() -> tuple[float, int]:
        return sim_volume(simulate(**kwargs).stats)

    return Benchmark(name=name, group="simulate", description=description,
                     run=run, sim_kwargs=dict(kwargs))


def _campaign_benchmark(name: str, description: str, sweep: str,
                        apps: tuple[str, ...], length: int,
                        engine: str = "scalar") -> Benchmark:
    """Orchestrator throughput: an uncached, in-process sweep campaign.

    ``engine`` is pinned (never left to ``REPRO_ENGINE``) so each
    campaign benchmark measures one engine: the scalar kernel is the
    reference trajectory, ``engine="batched"`` measures the lockstep
    cohort kernel on the identical point set — counts must match the
    scalar run bit-exactly, so the determinism/drift gates apply to the
    batched engine too."""

    def run() -> tuple[float, int]:
        from repro.orchestrator.campaign import Campaign
        from repro.orchestrator.campaigns import build_sweep, sweep_spec

        campaign = Campaign(cache=None, jobs=1, sanitize=False,
                            engine=engine)
        campaign.extend(build_sweep(
            sweep_spec(sweep, apps=apps, length=length)))
        results = campaign.run()
        cycles = 0.0
        instructions = 0
        for result in results:
            if result.cache_hit or not result.ok:
                # Cache hits cost no simulation and must not inflate
                # throughput; a failed point would understate it, so it
                # is an error below instead.
                continue
            cycles += result.cycles
            instructions += result.instructions
        if campaign.telemetry.failures:
            raise RuntimeError(
                f"campaign benchmark {name}: "
                f"{campaign.telemetry.failures} points failed")
        return cycles, instructions

    return Benchmark(name=name, group="campaign",
                     description=description, run=run)


def _smoke_suite() -> list[Benchmark]:
    """Tiny suite for tests and CI plumbing checks (seconds, not minutes).
    """
    return [
        _simulate_benchmark(
            "sim:ooo:ppa:rb", "OoO core, PPA, red-black tree",
            trace_or_profile="rb", scheme="ppa", core="ooo", length=1_500),
        _simulate_benchmark(
            "sim:inorder:ppa:rb", "in-order value-CSQ core, PPA",
            trace_or_profile="rb", scheme="ppa", core="inorder",
            length=1_500),
        _campaign_benchmark(
            "campaign:fig16:rb", "orchestrator PRF sweep, 1 app",
            sweep="fig16", apps=("rb",), length=1_000),
    ]


def _quick_suite() -> list[Benchmark]:
    """The default suite: every core model x headline policy, plus
    orchestrator throughput — sized to finish in well under two minutes
    on a 1-CPU container."""
    return [
        _simulate_benchmark(
            "sim:ooo:baseline:gcc", "OoO core, no persistence (baseline)",
            trace_or_profile="gcc", scheme="baseline", core="ooo",
            length=12_000),
        _simulate_benchmark(
            "sim:ooo:ppa:gcc", "OoO core, PPA, gcc",
            trace_or_profile="gcc", scheme="ppa", core="ooo",
            length=12_000),
        _simulate_benchmark(
            "sim:ooo:ppa:mcf", "OoO core, PPA, memory-bound mcf",
            trace_or_profile="mcf", scheme="ppa", core="ooo",
            length=12_000),
        _simulate_benchmark(
            "sim:ooo:capri:gcc", "OoO core, Capri epoch persistence",
            trace_or_profile="gcc", scheme="capri", core="ooo",
            length=12_000),
        _simulate_benchmark(
            "sim:ooo:psp-undolog:rb", "OoO core, software undo logging",
            trace_or_profile="rb", scheme="psp-undolog", core="ooo",
            length=12_000),
        _simulate_benchmark(
            "sim:inorder:ppa:rb", "in-order value-CSQ core, PPA",
            trace_or_profile="rb", scheme="ppa", core="inorder",
            length=12_000),
        _simulate_benchmark(
            "sim:multicore:ppa:water-ns", "4-thread multicore, PPA",
            trace_or_profile="water-ns", scheme="ppa", core="multicore",
            threads=4, length=3_000),
        _campaign_benchmark(
            "campaign:fig16:rb", "orchestrator PRF sweep throughput",
            sweep="fig16", apps=("rb",), length=4_000),
        _campaign_benchmark(
            "campaign:fig16:rb:batched",
            "same PRF sweep through the batched cohort engine",
            sweep="fig16", apps=("rb",), length=4_000, engine="batched"),
    ]


def _full_suite() -> list[Benchmark]:
    """Quick plus longer traces, more applications, and a wider campaign.
    """
    return _quick_suite() + [
        _simulate_benchmark(
            "sim:ooo:ppa:lbm", "OoO core, PPA, streaming lbm",
            trace_or_profile="lbm", scheme="ppa", core="ooo",
            length=20_000),
        _simulate_benchmark(
            "sim:ooo:capri:mcf", "OoO core, Capri, memory-bound mcf",
            trace_or_profile="mcf", scheme="capri", core="ooo",
            length=20_000),
        _simulate_benchmark(
            "sim:ooo:psp-redolog:rb", "OoO core, software redo logging",
            trace_or_profile="rb", scheme="psp-redolog", core="ooo",
            length=12_000),
        _simulate_benchmark(
            "sim:ooo:replaycache:gcc", "OoO core, ReplayCache",
            trace_or_profile="gcc", scheme="replaycache", core="ooo",
            length=12_000),
        _simulate_benchmark(
            "sim:inorder:baseline:rb", "in-order core, no persistence",
            trace_or_profile="rb", scheme="baseline", core="inorder",
            length=12_000),
        _simulate_benchmark(
            "sim:multicore:ppa:barnes", "8-thread multicore, PPA",
            trace_or_profile="barnes", scheme="ppa", core="multicore",
            threads=8, length=4_000),
        _campaign_benchmark(
            "campaign:fig15:4apps", "orchestrator WPQ sweep, 4 apps",
            sweep="fig15", apps=("rb", "mcf", "lbm", "water-ns"),
            length=8_000),
    ]


def _batched_suite() -> list[Benchmark]:
    """Scalar-vs-batched engine head-to-head on identical sweeps: the
    CI engine gate runs this suite and compares the ``:batched``
    benchmarks against the best committed artifact — a throughput
    regression in the cohort kernel, or any count divergence from the
    scalar reference, fails the gate."""
    return [
        _campaign_benchmark(
            "campaign:fig16:rb", "orchestrator PRF sweep throughput",
            sweep="fig16", apps=("rb",), length=4_000),
        _campaign_benchmark(
            "campaign:fig16:rb:batched",
            "same PRF sweep through the batched cohort engine",
            sweep="fig16", apps=("rb",), length=4_000, engine="batched"),
        _campaign_benchmark(
            "campaign:fig15:4apps:batched",
            "WPQ sweep, 4 apps, batched cohort engine",
            sweep="fig15", apps=("rb", "mcf", "lbm", "water-ns"),
            length=4_000, engine="batched"),
    ]


SUITES: dict[str, Callable[[], list[Benchmark]]] = {
    "smoke": _smoke_suite,
    "quick": _quick_suite,
    "full": _full_suite,
    "batched": _batched_suite,
}


def suite_benchmarks(suite: str) -> list[Benchmark]:
    """The named suite's benchmark list (fresh closures each call)."""
    try:
        factory = SUITES[suite]
    except KeyError:
        raise ValueError(f"unknown suite {suite!r}; "
                         f"options: {sorted(SUITES)}") from None
    benchmarks = factory()
    names = [b.name for b in benchmarks]
    if len(set(names)) != len(names):
        raise ValueError(f"suite {suite!r} has duplicate benchmark names")
    return benchmarks
