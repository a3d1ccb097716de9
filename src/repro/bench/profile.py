"""Hot-path attribution: where does a simulation's wall-clock go?

Wraps ``cProfile`` around one suite benchmark and folds the flat function
profile into per-component buckets (WriteBuffer, NvmModel, rename/PRF,
checkpoint, ...), so an optimisation PR knows where to aim before it
touches anything. For ``simulate`` benchmarks a second, traced execution
attributes *simulated work* through the existing
:class:`repro.telemetry.MetricsRegistry` — events recorded per component —
next to the *software cost* the profiler measured.
"""

from __future__ import annotations

import cProfile
import pstats
from dataclasses import dataclass, field
from typing import Any

from repro.bench.suite import Benchmark, suite_benchmarks

# Ordered (path fragment -> component) mapping; first match wins. Paths
# are matched against the profiled function's source file, normalised to
# forward slashes.
COMPONENTS: tuple[tuple[str, str], ...] = (
    ("repro/memory/writebuffer", "WriteBuffer"),
    ("repro/memory/nvm", "NvmModel"),
    ("repro/memory/cache", "CacheModel"),
    ("repro/memory/hierarchy", "MemorySystem"),
    ("repro/memory/prewarm", "WarmTemplates"),
    ("repro/pipeline/regfile", "Rename/PRF"),
    ("repro/pipeline/resources", "PipelineResources"),
    ("repro/pipeline/core", "OoOCore"),
    ("repro/pipeline/stats", "Stats"),
    ("repro/core/checkpoint", "Checkpoint"),
    ("repro/core/recovery", "Recovery"),
    ("repro/core/csq", "CSQ"),
    ("repro/core/region", "RegionTracker"),
    ("repro/core/", "PersistentProcessor"),
    ("repro/persistence/", "PersistencePolicy"),
    ("repro/workloads/interning", "TraceInterning"),
    ("repro/workloads/", "TraceGenerator"),
    ("repro/isa/decoded", "Predecode"),
    ("repro/isa/", "ISA"),
    ("repro/inorder/", "InOrderCore"),
    ("repro/multicore/", "Multicore"),
    ("repro/telemetry/", "Telemetry"),
    ("repro/orchestrator/", "Orchestrator"),
    ("repro/engine/", "Engine"),
    ("repro/service/", "Service"),
    ("repro/observe/", "Observability"),
    ("repro/", "repro (other)"),
)


@dataclass
class ComponentSlice:
    """One component's share of the profiled run."""

    component: str
    self_time: float         # tottime summed over the bucket's functions
    calls: int

    def to_dict(self) -> dict[str, Any]:
        return {"component": self.component, "self_time": self.self_time,
                "calls": self.calls}


@dataclass
class ProfileReport:
    """Attribution tables for one profiled benchmark."""

    benchmark: str
    total_time: float
    components: list[ComponentSlice] = field(default_factory=list)
    # (function label, self time, calls) for the hottest functions.
    top_functions: list[tuple[str, float, int]] = field(
        default_factory=list)
    # Telemetry counter/histogram digests from a traced re-run, keyed by
    # metric name (empty when the benchmark can't run traced).
    metrics: dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        return {
            "benchmark": self.benchmark,
            "total_time": self.total_time,
            "components": [c.to_dict() for c in self.components],
            "top_functions": [
                {"function": name, "self_time": t, "calls": calls}
                for name, t, calls in self.top_functions],
            "metrics": self.metrics,
        }

    def to_text(self, top: int = 10) -> str:
        lines = [f"== profile: {self.benchmark} "
                 f"({self.total_time:.3f}s total) ==",
                 f"{'component':<20} {'self s':>8} {'% run':>7} "
                 f"{'calls':>10}"]
        for c in self.components:
            share = (100.0 * c.self_time / self.total_time
                     if self.total_time > 0 else 0.0)
            lines.append(f"{c.component:<20} {c.self_time:>8.3f} "
                         f"{share:>6.1f}% {c.calls:>10}")
        if self.top_functions:
            lines.append(f"hottest functions (top {top}):")
            for name, self_time, calls in self.top_functions[:top]:
                lines.append(f"  {self_time:>8.3f}s {calls:>9} calls  "
                             f"{name}")
        if self.metrics:
            lines.append("telemetry attribution (traced re-run):")
            for name in sorted(self.metrics):
                digest = self.metrics[name]
                if digest.get("type") == "histogram":
                    lines.append(
                        f"  {name:<36} n={digest.get('count', 0):<7} "
                        f"mean={digest.get('mean', 0.0):.2f}")
                else:
                    lines.append(
                        f"  {name:<36} {digest.get('value', 0.0):.0f}")
        return "\n".join(lines)


def component_for(filename: str) -> str:
    path = filename.replace("\\", "/")
    for fragment, component in COMPONENTS:
        if fragment in path:
            return component
    return "stdlib/other"


def _attribute(stats: pstats.Stats) -> tuple[list[ComponentSlice],
                                             list[tuple[str, float, int]],
                                             float]:
    buckets: dict[str, ComponentSlice] = {}
    functions: list[tuple[str, float, int]] = []
    total = 0.0
    for (filename, lineno, funcname), (cc, nc, tt, ct, callers) in \
            stats.stats.items():  # type: ignore[attr-defined]
        component = component_for(filename)
        bucket = buckets.get(component)
        if bucket is None:
            bucket = buckets[component] = ComponentSlice(component, 0.0, 0)
        bucket.self_time += tt
        bucket.calls += nc
        total += tt
        short = filename.replace("\\", "/").rpartition("repro/")[2] \
            or filename
        functions.append((f"{short}:{lineno}({funcname})", tt, nc))
    components = sorted(buckets.values(), key=lambda c: -c.self_time)
    functions.sort(key=lambda f: -f[1])
    return components, functions, total


def _traced_metrics(benchmark: Benchmark) -> dict[str, Any]:
    if benchmark.group != "simulate":
        return {}
    from repro.facade import simulate

    result = simulate(**dict(benchmark.sim_kwargs, trace=True))
    if result.telemetry is None:
        return {}
    return result.telemetry.metrics.to_dict()


def profile_benchmark(benchmark: Benchmark, top: int = 20,
                      with_metrics: bool = True) -> ProfileReport:
    """Profile one benchmark execution and attribute it per component."""
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        benchmark.run()
    finally:
        profiler.disable()
    stats = pstats.Stats(profiler)
    components, functions, total = _attribute(stats)
    return ProfileReport(
        benchmark=benchmark.name,
        total_time=total,
        components=components,
        top_functions=functions[:top],
        metrics=_traced_metrics(benchmark) if with_metrics else {},
    )


def profile_by_name(name: str, suite: str = "quick", top: int = 20,
                    with_metrics: bool = True) -> ProfileReport:
    """Profile the named benchmark from a suite."""
    for benchmark in suite_benchmarks(suite):
        if benchmark.name == name:
            return profile_benchmark(benchmark, top=top,
                                     with_metrics=with_metrics)
    known = [b.name for b in suite_benchmarks(suite)]
    raise ValueError(f"no benchmark {name!r} in suite {suite!r}; "
                     f"known: {known}")
