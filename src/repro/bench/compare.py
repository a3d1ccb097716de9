"""Diffing BENCH artifacts: the perf-trajectory regression gate.

``compare_reports`` matches two artifacts benchmark-by-benchmark and
flags, per benchmark:

* **regression** — wall-clock grew beyond the noise threshold (default
  25 %, generous because 1-CPU CI containers are noisy);
* **improvement** — wall-clock shrank beyond the same threshold;
* **model drift** — simulated cycle or instruction counts changed at
  all. Timing noise can never cause this (the suite pins every seed), so
  drift means the *model output* moved, which a perf PR must own up to
  explicitly — it fails the gate regardless of the timing threshold.

``gate`` mode exits nonzero on regressions/drift; warn-only mode reports
but passes, for repos that don't yet have two trustworthy trajectory
points.

The base of a comparison may also be a *directory* of committed
``BENCH_*.json`` artifacts: :func:`resolve_base` picks the strongest
trajectory point of the new report's suite (highest aggregate
instrs/s), so the CI gate always measures against the best the repo has
ever recorded for the same benchmarks rather than an arbitrary ancestor
or another suite's artifact.
"""

from __future__ import annotations

import pathlib
from dataclasses import dataclass, field
from typing import Any

from repro.bench.harness import BenchReport, load_report

DEFAULT_THRESHOLD = 0.25


def aggregate_instrs_per_sec(report: BenchReport) -> float:
    """Suite-level throughput: total retired instructions per second of
    measured wall-clock — the headline number a perf PR moves."""
    wall = sum(r.wall_clock for r in report.results)
    instrs = sum(r.instructions for r in report.results)
    return instrs / wall if wall > 0 else 0.0


def best_artifact(directory: str | pathlib.Path, suite: str,
                  exclude: str | pathlib.Path | None = None
                  ) -> pathlib.Path:
    """The committed ``BENCH_*.json`` of ``suite`` with the highest
    aggregate instrs/s — the strongest trajectory point to gate against.
    Other suites' artifacts measure other benchmarks, so they never
    qualify; ``exclude`` (the new report itself, when it was written
    into ``directory``) never qualifies either."""
    directory = pathlib.Path(directory)
    skip = pathlib.Path(exclude).resolve() if exclude else None
    throughput: dict[pathlib.Path, float] = {}
    for path in sorted(directory.glob("BENCH_*.json")):
        if path.resolve() == skip:
            continue
        report = load_report(path)
        if report.suite == suite:
            throughput[path] = aggregate_instrs_per_sec(report)
    if not throughput:
        raise FileNotFoundError(
            f"no BENCH_*.json artifact of suite {suite!r} in {directory}")
    return max(throughput, key=throughput.__getitem__)


def resolve_base(path: str | pathlib.Path, suite: str,
                 exclude: str | pathlib.Path | None = None
                 ) -> pathlib.Path:
    """Accept either one artifact or a directory of them (the best
    artifact of ``suite`` other than ``exclude`` wins)."""
    path = pathlib.Path(path)
    if path.is_dir():
        return best_artifact(path, suite, exclude)
    return path


@dataclass
class BenchDelta:
    """One benchmark's base-vs-new comparison."""

    name: str
    base_wall: float
    new_wall: float
    regressed: bool
    improved: bool
    model_drift: bool

    @property
    def ratio(self) -> float:
        return self.new_wall / self.base_wall if self.base_wall > 0 \
            else 0.0

    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "base_wall": self.base_wall,
            "new_wall": self.new_wall,
            "ratio": self.ratio,
            "regressed": self.regressed,
            "improved": self.improved,
            "model_drift": self.model_drift,
        }


@dataclass
class CompareReport:
    """Everything a trajectory diff found."""

    threshold: float
    deltas: list[BenchDelta] = field(default_factory=list)
    only_in_base: list[str] = field(default_factory=list)
    only_in_new: list[str] = field(default_factory=list)

    @property
    def regressions(self) -> list[BenchDelta]:
        return [d for d in self.deltas if d.regressed]

    @property
    def improvements(self) -> list[BenchDelta]:
        return [d for d in self.deltas if d.improved]

    @property
    def drifted(self) -> list[BenchDelta]:
        return [d for d in self.deltas if d.model_drift]

    @property
    def ok(self) -> bool:
        """Gate verdict: no regressions and no model drift."""
        return not self.regressions and not self.drifted

    def to_dict(self) -> dict[str, Any]:
        return {
            "threshold": self.threshold,
            "ok": self.ok,
            "deltas": [d.to_dict() for d in self.deltas],
            "only_in_base": list(self.only_in_base),
            "only_in_new": list(self.only_in_new),
        }

    def to_text(self) -> str:
        lines = [f"== bench compare (noise threshold "
                 f"{100 * self.threshold:.0f}%) ==",
                 f"{'benchmark':<30} {'base s':>8} {'new s':>8} "
                 f"{'ratio':>6}  verdict"]
        for d in self.deltas:
            verdict = []
            if d.regressed:
                verdict.append("REGRESSION")
            if d.improved:
                verdict.append("improved")
            if d.model_drift:
                verdict.append("MODEL-DRIFT")
            lines.append(f"{d.name:<30} {d.base_wall:>8.3f} "
                         f"{d.new_wall:>8.3f} {d.ratio:>6.2f}  "
                         f"{', '.join(verdict) or 'ok'}")
        for name in self.only_in_base:
            lines.append(f"{name:<30} only in base artifact")
        for name in self.only_in_new:
            lines.append(f"{name:<30} only in new artifact")
        lines.append(
            f"{len(self.regressions)} regressions, "
            f"{len(self.improvements)} improvements, "
            f"{len(self.drifted)} model drifts -> "
            f"{'OK' if self.ok else 'FAIL'}")
        return "\n".join(lines)


def compare_reports(base: BenchReport, new: BenchReport,
                    threshold: float = DEFAULT_THRESHOLD) -> CompareReport:
    """Diff two BENCH reports by benchmark name."""
    report = CompareReport(threshold=threshold)
    new_by_name = {r.name: r for r in new.results}
    seen = set()
    for base_result in base.results:
        new_result = new_by_name.get(base_result.name)
        if new_result is None:
            report.only_in_base.append(base_result.name)
            continue
        seen.add(base_result.name)
        base_wall = base_result.wall_clock
        new_wall = new_result.wall_clock
        report.deltas.append(BenchDelta(
            name=base_result.name,
            base_wall=base_wall,
            new_wall=new_wall,
            regressed=new_wall > base_wall * (1.0 + threshold),
            improved=new_wall < base_wall * (1.0 - threshold),
            model_drift=(
                base_result.cycles != new_result.cycles
                or base_result.instructions != new_result.instructions
                or not new_result.deterministic),
        ))
    report.only_in_new = [r.name for r in new.results
                          if r.name not in seen
                          and r.name not in report.only_in_base]
    return report
