"""The paper-fidelity scoreboard: perf work can't silently bend outputs.

Runs paper experiments through the experiments registry and scores the
reproduced trends against the claims recorded in EXPERIMENTS.md. Two
tiers:

* ``quick`` — a curated subset with reduced trace lengths and app
  subsets, checking the *shape* claims that hold even on tiny runs (the
  same calibration the tier-1 experiment tests use). This is what the CI
  bench job runs on every PR.
* ``full`` — every machine-checkable expectation in
  :data:`repro.analysis.report.PAPER_EXPECTATIONS` at the default
  figure lengths; minutes, not seconds.

A fidelity failure alongside a golden-count failure
(``tests/test_golden_counts.py``) is the observatory's core contract: a
perf PR that changes simulated outputs trips both, loudly.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable

QUICK_APPS = ("gcc", "rb")
QUICK_LENGTH = 2_000


@dataclass(frozen=True)
class FidelityCheck:
    """One scoreboard row: run an experiment, check its summary."""

    experiment_id: str
    claim: str
    check: Callable[[dict], bool]
    kwargs: dict = field(default_factory=dict)


# Quick-tier shape claims, calibrated to hold at QUICK_LENGTH with
# QUICK_APPS (mirrors tests/test_experiments.py's light assertions, with
# the margins EXPERIMENTS.md records).
QUICK_CHECKS: tuple[FidelityCheck, ...] = (
    FidelityCheck(
        "fig1", "ReplayCache costs multiples (paper ~5x)",
        lambda s: s["gmean_slowdown"] > 2.0,
        {"apps": QUICK_APPS, "length": QUICK_LENGTH}),
    FidelityCheck(
        "fig8", "PPA cheap, Capri clearly costlier (paper 2% vs 26%)",
        lambda s: 1.0 <= s["ppa_gmean"] < 1.2
        and s["capri_gmean"] > s["ppa_gmean"],
        {"apps": QUICK_APPS, "length": QUICK_LENGTH}),
    FidelityCheck(
        "fig10", "ideal PSP pays a large multiple over PPA (paper 1.39x)",
        lambda s: s["psp_gmean"] > s["ppa_gmean"],
        {"apps": ("mcf", "lbm"), "length": QUICK_LENGTH}),
    FidelityCheck(
        "fig13", "regions are mostly non-store instructions",
        lambda s: s["mean_others"] > s["mean_stores"],
        {"apps": QUICK_APPS, "length": QUICK_LENGTH}),
    FidelityCheck(
        "tab4", "PPA adds ~0.005% core area",
        lambda s: s["core_area_fraction_pct"] < 0.01),
    FidelityCheck(
        "sec713", "1838 B checkpoint in ~0.91us",
        lambda s: s["total_bytes"] == 1838.0
        and abs(s["total_us"] - 0.91) < 0.02),
    FidelityCheck(
        "litmus", "crash states are exactly the Px86-TSO-allowed ones",
        lambda s: s["soundness_violations"] == 0.0 and s["checked"] > 0
        and s["mean_coverage"] > 0.5),
)


@dataclass
class FidelityLine:
    """One graded scoreboard entry."""

    experiment_id: str
    claim: str
    holds: bool
    elapsed: float
    summary: dict[str, float] = field(default_factory=dict)
    error: str | None = None

    def to_dict(self) -> dict[str, Any]:
        return {
            "experiment_id": self.experiment_id,
            "claim": self.claim,
            "holds": self.holds,
            "elapsed": self.elapsed,
            "summary": dict(self.summary),
            "error": self.error,
        }


@dataclass
class FidelityReport:
    """A graded scoreboard: tier + per-claim verdicts."""

    tier: str
    lines: list[FidelityLine] = field(default_factory=list)

    @property
    def passed(self) -> int:
        return sum(1 for line in self.lines if line.holds)

    @property
    def ok(self) -> bool:
        return bool(self.lines) and self.passed == len(self.lines)

    def to_dict(self) -> dict[str, Any]:
        return {
            "tier": self.tier,
            "ok": self.ok,
            "passed": self.passed,
            "total": len(self.lines),
            "lines": [line.to_dict() for line in self.lines],
        }

    def to_text(self) -> str:
        lines = [f"== paper-fidelity scoreboard (tier: {self.tier}) =="]
        for line in self.lines:
            mark = "OK " if line.holds else "FAIL"
            lines.append(f"[{mark}] {line.experiment_id:8s} {line.claim} "
                         f"({line.elapsed:.1f}s)")
            if line.error:
                lines.append(f"       error: {line.error}")
        lines.append(f"{self.passed}/{len(self.lines)} claims hold -> "
                     f"{'OK' if self.ok else 'FAIL'}")
        return "\n".join(lines)

    def to_markdown(self) -> str:
        from repro.analysis.report import markdown_table

        rows = [["✅" if line.holds else "❌", line.experiment_id,
                 line.claim, f"{line.elapsed:.1f}s"]
                for line in self.lines]
        table = markdown_table(["", "exp", "claim", "time"], rows)
        return (f"### Paper-fidelity scoreboard ({self.tier}: "
                f"{self.passed}/{len(self.lines)})\n\n{table}")


ProgressFn = Callable[[str, int, int], None]


def _grade(check: FidelityCheck) -> FidelityLine:
    from repro.experiments.registry import get_experiment

    start = time.perf_counter()
    try:
        result = get_experiment(check.experiment_id)(**check.kwargs)
        holds = bool(check.check(result.summary))
        summary, error = result.summary, None
    except KeyError as exc:
        # A missing summary key means the experiment no longer reports
        # what the claim checks — that is a failure, not a crash.
        holds, summary, error = False, {}, f"missing summary key {exc}"
    return FidelityLine(
        experiment_id=check.experiment_id, claim=check.claim, holds=holds,
        elapsed=time.perf_counter() - start, summary=summary, error=error)


def _full_checks() -> tuple[FidelityCheck, ...]:
    """Every machine-checkable EXPERIMENTS.md claim, at default lengths.
    """
    from repro.analysis.report import PAPER_EXPECTATIONS

    return tuple(
        FidelityCheck(e.experiment_id, e.claim, e.check)
        for e in PAPER_EXPECTATIONS)


def run_fidelity(tier: str = "quick",
                 checks: tuple[FidelityCheck, ...] | None = None,
                 progress: ProgressFn | None = None) -> FidelityReport:
    """Run and grade the scoreboard for one tier.

    ``checks`` overrides the tier's check list (tests inject synthetic
    pass/fail claims through it).
    """
    if checks is None:
        if tier == "quick":
            checks = QUICK_CHECKS
        elif tier == "full":
            checks = _full_checks()
        else:
            raise ValueError(
                f"unknown fidelity tier {tier!r}; options: quick, full")
    report = FidelityReport(tier=tier)
    for index, check in enumerate(checks):
        if progress is not None:
            progress(check.experiment_id, index, len(checks))
        report.lines.append(_grade(check))
    return report
