"""Runnable reproductions of every evaluation figure in the paper.

Each ``run_figN`` returns an :class:`ExperimentResult` whose rows mirror the
figure's bars/series. The paper plots normalized slowdowns against the
baseline (original binaries on PMEM's memory mode); so do we.

Per-application figures run each application on one core of the Table 2
system (the paper runs the multithreaded suites under 8-core full-system
gem5; our multicore model is exercised separately in Figure 19 — see
DESIGN.md for the approximation inventory).
"""

from __future__ import annotations

from repro.analysis.cdf import fraction_with_at_least, merge_hists
from repro.analysis.stats import gmean
from repro.config import skylake_default
from repro.experiments.base import Experiment, ExperimentResult
from repro.experiments.registry import register
from repro.experiments.runner import run_point_results, run_points
from repro.multicore.system import barrier_reduce, thread_points
from repro.orchestrator.campaigns import (
    SWEEP_LENGTH,
    build_sweep,
    summarize_sweep,
    sweep_spec,
)
from repro.orchestrator.points import DEFAULT_WARMUP, make_point
from repro.workloads.profiles import (
    ALL_PROFILES,
    memory_intensive_profiles,
    profile_by_name,
)

FULL_LENGTH = 20_000

MULTITHREADED_APPS = ("water-ns", "rb", "barnes")


def _app_names(apps) -> list[str]:
    if apps is None:
        return [p.name for p in ALL_PROFILES]
    return list(apps)


def _run_per_app(names, schemes, length: int, config=None) -> list[tuple]:
    """Results of every (app, scheme) pair from one campaign: one tuple
    per app, in ``schemes`` order. A result's ``cycles`` needs no decode;
    its ``stats`` are decoded on first read."""
    results = run_point_results([make_point(name, scheme, config=config,
                                            length=length)
                                 for name in names for scheme in schemes])
    width = len(schemes)
    return [tuple(results[i:i + width])
            for i in range(0, len(results), width)]


def _over_baseline(schemes, names, length: int,
                   config=None) -> list[dict[str, float]]:
    """Per scheme, each app's cycles over its baseline's on the same
    configuration."""
    runs = _run_per_app(names, (*schemes, "baseline"), length, config)
    return [{name: run[i].cycles / run[-1].cycles
             for name, run in zip(names, runs)}
            for i in range(len(schemes))]


# ---------------------------------------------------------------------------
# Figure 1 — ReplayCache's slowdown on a server-class core
# ---------------------------------------------------------------------------

def run_fig1(apps=None, length: int = FULL_LENGTH) -> ExperimentResult:
    ratios, = _over_baseline(("replaycache",), _app_names(apps), length)
    rows = [[name, ratio] for name, ratio in ratios.items()]
    return ExperimentResult(
        experiment_id="fig1",
        title="ReplayCache slowdown vs PMEM memory mode",
        columns=["app", "slowdown"],
        rows=rows,
        summary={"gmean_slowdown": gmean(ratios.values())},
        notes="paper: ~5x average slowdown",
    )


# ---------------------------------------------------------------------------
# Figure 5 — CDF of free physical registers
# ---------------------------------------------------------------------------

def run_fig5(apps=None, length: int = FULL_LENGTH) -> ExperimentResult:
    names = _app_names(apps)
    runs = _run_per_app(names, ("baseline",), length)
    suites: dict[str, list] = {}
    for name, (result,) in zip(names, runs):
        suites.setdefault(profile_by_name(name).suite, []).append(
            result.stats)
    rows = []
    summary = {}
    for suite, stats_list in sorted(suites.items()):
        int_hist = merge_hists(s.free_reg_hist_int for s in stats_list)
        fp_hist = merge_hists(s.free_reg_hist_fp for s in stats_list)
        row = [suite]
        for threshold in (60, 100, 138):
            row.append(fraction_with_at_least(int_hist, threshold))
        row.append(fraction_with_at_least(fp_hist, 60))
        row.append(fraction_with_at_least(fp_hist, 110))
        rows.append(row)
        summary[f"{suite}_int_ge_60"] = row[1]
        summary[f"{suite}_int_ge_138"] = row[3]
    return ExperimentResult(
        experiment_id="fig5",
        title="Fraction of cycles with many free physical registers",
        columns=["suite", "int>=60", "int>=100", "int>=138", "fp>=60",
                 "fp>=110"],
        rows=rows,
        summary=summary,
        notes="paper: for CPU2006, 138 int / 110 fp registers are free "
              "for 75% of cycles; our core keeps more definitions in "
              "flight, shifting the CDF left (see EXPERIMENTS.md)",
    )


# ---------------------------------------------------------------------------
# Figure 8 — run-time overhead of PPA and Capri
# ---------------------------------------------------------------------------

def run_fig8(apps=None, length: int = FULL_LENGTH) -> ExperimentResult:
    from repro.analysis.stats import suite_means

    ppa, capri = _over_baseline(("ppa", "capri"), _app_names(apps), length)
    rows = [[name, ppa[name], capri[name]] for name in ppa]
    suites = {name: profile_by_name(name).suite for name in ppa}
    summary = {
        "ppa_gmean": gmean(ppa.values()),
        "capri_gmean": gmean(capri.values()),
    }
    for suite, mean in sorted(suite_means(ppa, suites).items()):
        summary[f"ppa_{suite}"] = mean
    return ExperimentResult(
        experiment_id="fig8",
        title="Normalized slowdown of PPA and Capri vs memory mode",
        columns=["app", "ppa", "capri"],
        rows=rows,
        summary=summary,
        notes="paper: PPA 2% mean overhead, Capri 26%",
    )


# ---------------------------------------------------------------------------
# Figure 9 — PPA and memory mode vs a DRAM-only system
# ---------------------------------------------------------------------------

def run_fig9(apps=None, length: int = FULL_LENGTH) -> ExperimentResult:
    rows = []
    ppa_ratios, base_ratios = [], []
    names = _app_names(apps)
    runs = _run_per_app(names, ("dram-only", "baseline", "ppa"), length)
    for name, (dram, base, ppa) in zip(names, runs):
        rows.append([name, ppa.cycles / dram.cycles,
                     base.cycles / dram.cycles])
        ppa_ratios.append(ppa.cycles / dram.cycles)
        base_ratios.append(base.cycles / dram.cycles)
    return ExperimentResult(
        experiment_id="fig9",
        title="Slowdown vs 32 GB DRAM-only system",
        columns=["app", "ppa", "memory-mode"],
        rows=rows,
        summary={
            "ppa_gmean": gmean(ppa_ratios),
            "memory_mode_gmean": gmean(base_ratios),
        },
        notes="paper: PPA 16% and memory mode 14% slower than DRAM-only; "
              "lbm/pc worst (44%/58% for memory mode)",
    )


# ---------------------------------------------------------------------------
# Figure 10 — PPA vs ideal PSP (eADR/BBB) on memory-intensive apps
# ---------------------------------------------------------------------------

def run_fig10(apps=None, length: int = FULL_LENGTH) -> ExperimentResult:
    if apps is None:
        apps = [p.name for p in memory_intensive_profiles()]
    rows = []
    ppa_ratios, psp_ratios = [], []
    runs = _run_per_app(apps, ("baseline", "ppa", "eadr"), length)
    for name, (base, ppa, psp) in zip(apps, runs):
        rows.append([name, ppa.cycles / base.cycles,
                     psp.cycles / base.cycles])
        ppa_ratios.append(ppa.cycles / base.cycles)
        psp_ratios.append(psp.cycles / base.cycles)
    return ExperimentResult(
        experiment_id="fig10",
        title="PPA vs ideal PSP (eADR/BBB, app-direct) on memory-"
              "intensive apps",
        columns=["app", "ppa", "eadr/bbb"],
        rows=rows,
        summary={
            "ppa_gmean": gmean(ppa_ratios),
            "psp_gmean": gmean(psp_ratios),
        },
        notes="paper: ideal PSP 1.39x mean / up to 2.4x; PPA 3%",
    )


# ---------------------------------------------------------------------------
# Figure 11 — stall cycles at region end
# ---------------------------------------------------------------------------

def run_fig11(apps=None, length: int = FULL_LENGTH) -> ExperimentResult:
    rows = []
    fractions = []
    names = _app_names(apps)
    for name, (result,) in zip(names, _run_per_app(names, ("ppa",), length)):
        frac = result.stats.region_end_stall_fraction
        rows.append([name, 100.0 * frac])
        fractions.append(frac)
    return ExperimentResult(
        experiment_id="fig11",
        title="Stall cycles at region end (% of execution)",
        columns=["app", "stall_pct"],
        rows=rows,
        summary={"mean_stall_pct": 100.0 * sum(fractions) / len(fractions)},
        notes="paper: 0.21% mean; water-ns 6.1%, water-sp 8.1% worst",
    )


# ---------------------------------------------------------------------------
# Figure 12 — extra rename stalls from PRF pressure
# ---------------------------------------------------------------------------

def run_fig12(apps=None, length: int = FULL_LENGTH) -> ExperimentResult:
    rows = []
    increases = []
    names = _app_names(apps)
    runs = _run_per_app(names, ("baseline", "ppa"), length)
    for name, (base, ppa) in zip(names, runs):
        base, ppa = base.stats, ppa.stats
        base_frac = base.rename_oor_stall_cycles / base.cycles
        ppa_frac = ppa.rename_oor_stall_cycles / ppa.cycles
        increase = max(0.0, ppa_frac - base_frac)
        rows.append([name, 100.0 * increase])
        increases.append(increase)
    return ExperimentResult(
        experiment_id="fig12",
        title="Increase in out-of-register rename stalls (% of cycles)",
        columns=["app", "stall_increase_pct"],
        rows=rows,
        summary={"mean_increase_pct":
                 100.0 * sum(increases) / len(increases)},
        notes="paper: 0.07% mean increase",
    )


# ---------------------------------------------------------------------------
# Figure 13 — region composition (stores vs others)
# ---------------------------------------------------------------------------

def run_fig13(apps=None, length: int = FULL_LENGTH) -> ExperimentResult:
    rows = []
    stores, others = [], []
    names = _app_names(apps)
    for name, (result,) in zip(names, _run_per_app(names, ("ppa",), length)):
        stats = result.stats
        rows.append([name, stats.mean_region_others,
                     stats.mean_region_stores])
        stores.append(stats.mean_region_stores)
        others.append(stats.mean_region_others)
    return ExperimentResult(
        experiment_id="fig13",
        title="Average instructions per dynamic region",
        columns=["app", "others", "stores"],
        rows=rows,
        summary={
            "mean_others": sum(others) / len(others),
            "mean_stores": sum(stores) / len(stores),
        },
        notes="paper: 301 others + 18 stores on average; Capri's regions "
              "average 29 instructions",
    )


# ---------------------------------------------------------------------------
# Figure 14 — deeper cache hierarchy (L3 atop the DRAM cache)
# ---------------------------------------------------------------------------

def run_fig14(apps=None, length: int = FULL_LENGTH) -> ExperimentResult:
    config = skylake_default().with_l3()
    ratios, = _over_baseline(("ppa",), _app_names(apps), length, config)
    rows = [[name, ratio] for name, ratio in ratios.items()]
    return ExperimentResult(
        experiment_id="fig14",
        title="PPA slowdown with an L3 atop the DRAM cache",
        columns=["app", "slowdown"],
        rows=rows,
        summary={"gmean": gmean(ratios.values())},
        notes="paper: ~1% overhead with the deeper hierarchy",
    )


# ---------------------------------------------------------------------------
# Figures 15-18 — sensitivity sweeps
# ---------------------------------------------------------------------------

def _sweep_figure(name: str, column: str, notes: str, apps,
                  length: int) -> ExperimentResult:
    """Run the named sweep (:mod:`repro.orchestrator.campaigns`) as one
    campaign; summary keys are the config values (``gmean_80_80``)."""
    spec = sweep_spec(name, apps=apps, length=length)
    # Only cycles are read: the results stay undecoded.
    rows = summarize_sweep(spec, run_point_results(build_sweep(spec)))
    return ExperimentResult(
        experiment_id=name, title=spec.title,
        columns=[column, "gmean_slowdown"],
        rows=[[label, mean] for label, mean in rows],
        summary={"gmean_" + label.split("=")[-1].replace("/", "_"): mean
                 for label, mean in rows},
        notes=notes,
    )


def run_fig15(apps=None, length: int = SWEEP_LENGTH) -> ExperimentResult:
    return _sweep_figure(
        "fig15", "wpq", "paper: 8-entry WPQ costs ~8%; 16 (default) ~2%",
        apps, length)


def run_fig16(apps=None, length: int = SWEEP_LENGTH) -> ExperimentResult:
    return _sweep_figure(
        "fig16", "int/fp PRF",
        "paper: 80/80 costs ~12% (some apps ~30%); benefit saturates "
        "beyond the 180/168 default", apps, length)


def run_fig17(apps=None, length: int = SWEEP_LENGTH) -> ExperimentResult:
    return _sweep_figure(
        "fig17", "csq",
        "paper: minimal impact from 10 to 50 entries; 40 default",
        apps, length)


def run_fig18(apps=None, length: int = SWEEP_LENGTH) -> ExperimentResult:
    return _sweep_figure(
        "fig18", "gbs",
        "paper: ~7% at 1 GB/s; ~2% at or beyond the default 2.3 GB/s",
        apps, length)


# ---------------------------------------------------------------------------
# Figure 19 — thread-count sweep on the multicore system
# ---------------------------------------------------------------------------

def fig19_runs(apps, threads, length: int) -> dict:
    """Fig 19's ``MulticoreStats``, keyed by (app, scheme, thread count).

    Every thread of every run is one point of a single campaign; thread
    ``tid`` of each width shares one cohort (see
    :func:`repro.engine.plan.cohort_key`)."""
    runs = {(name, scheme, count): thread_points(
                profile_by_name(name), scheme, count, length=length,
                warmup=DEFAULT_WARMUP)
            for name in apps for scheme in ("ppa", "baseline")
            for count in threads}
    stats = iter(run_points([point for run in runs.values()
                             for point in run]))
    return {key: barrier_reduce(run[0].profile, key[1], length,
                                [next(stats) for __ in run])
            for key, run in runs.items()}


def run_fig19(apps=None, threads=(8, 16, 32, 64),
              length: int = 4_000) -> ExperimentResult:
    apps = list(apps) if apps is not None else list(MULTITHREADED_APPS)
    runs = fig19_runs(apps, threads, length)
    rows = []
    summary = {}
    for count in threads:
        ratios = [runs[name, "ppa", count].makespan /
                  runs[name, "baseline", count].makespan for name in apps]
        mean = gmean(ratios)
        rows.append([count, mean])
        summary[f"gmean_t{count}"] = mean
    return ExperimentResult(
        experiment_id="fig19",
        title="PPA slowdown vs thread count (multithreaded apps)",
        columns=["threads", "gmean_slowdown"], rows=rows,
        summary=summary,
        notes="paper: 2%-6% mean overhead from 8 to 64 threads",
    )


for _experiment in (
    Experiment("fig1", "ReplayCache slowdown", "~5x mean", run_fig1),
    Experiment("fig5", "Free-register CDF",
               "138/110 int/fp free for 75% of cycles (CPU2006)", run_fig5),
    Experiment("fig8", "PPA & Capri overhead", "2% vs 26%", run_fig8),
    Experiment("fig9", "vs DRAM-only", "16%/14% slower", run_fig9),
    Experiment("fig10", "vs ideal PSP", "PSP 1.39x mean, 2.4x max",
               run_fig10),
    Experiment("fig11", "Region-end stalls", "0.21% mean", run_fig11),
    Experiment("fig12", "PRF-pressure stalls", "+0.07%", run_fig12),
    Experiment("fig13", "Region composition", "301 + 18 per region",
               run_fig13),
    Experiment("fig14", "Deeper hierarchy", "~1% overhead", run_fig14),
    Experiment("fig15", "WPQ sweep", "8-entry ~8%", run_fig15),
    Experiment("fig16", "PRF sweep", "80/80 ~12%", run_fig16),
    Experiment("fig17", "CSQ sweep", "minimal impact", run_fig17),
    Experiment("fig18", "Write-bandwidth sweep", "1 GB/s ~7%", run_fig18),
    Experiment("fig19", "Thread sweep", "2%-6% for 8-64 threads",
               run_fig19),
):
    register(_experiment)
