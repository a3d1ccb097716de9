"""Ablations of the design choices DESIGN.md calls out.

These are not paper figures; they isolate the contribution of individual
PPA mechanisms:

* asynchronous writeback vs. draining synchronously at every store commit
  (Section 3.2's motivation);
* persist coalescing on vs. off (Section 4.3);
* eager vs. patient region boundaries (how many masked registers must be
  stranded before a rename stall escalates to a persist barrier);
* store integrity on vs. off — with masking disabled, post-failure replay
  reads whatever later value overwrote the store's physical register, and
  recovery corrupts memory (the negative result motivating the paper).
"""

from __future__ import annotations

from dataclasses import replace

from repro.analysis.stats import gmean
from repro.config import skylake_default
from repro.core.processor import PersistentProcessor
from repro.experiments.base import Experiment, ExperimentResult
from repro.experiments.registry import register
from repro.experiments.runner import run_points
from repro.failure.consistency import verify_recovery
from repro.orchestrator.points import make_point
from repro.workloads.profiles import profile_by_name
from repro.workloads.synthetic import generate_trace

ABLATION_APPS = ("gcc", "rb", "water-ns", "lbm")
ABLATION_LENGTH = 10_000


def _gmean_overheads(configs, apps, length) -> list[float]:
    """PPA's gmean slowdown over the baseline on each configuration, all
    from one campaign."""
    stats = run_points([make_point(name, scheme, config=config,
                                   length=length)
                        for config in configs for name in apps
                        for scheme in ("ppa", "baseline")])
    ratios = [ppa.cycles / base.cycles
              for ppa, base in zip(stats[::2], stats[1::2])]
    width = len(apps)
    return [gmean(ratios[i:i + width])
            for i in range(0, len(ratios), width)]


def run_ablation_async(apps=ABLATION_APPS,
                       length: int = ABLATION_LENGTH) -> ExperimentResult:
    base = skylake_default()
    sync_cfg = replace(base, ppa=replace(base.ppa, async_writeback=False))
    overheads = _gmean_overheads((base, sync_cfg), apps, length)
    rows = [["async (PPA)", overheads[0]], ["synchronous", overheads[1]]]
    return ExperimentResult(
        experiment_id="ablation-async",
        title="Asynchronous vs synchronous store persistence",
        columns=["mode", "gmean_slowdown"], rows=rows,
        notes="synchronous draining at each store commit forfeits the "
              "overlap that makes PPA cheap",
    )


def run_ablation_coalescing(apps=ABLATION_APPS,
                            length: int = ABLATION_LENGTH
                            ) -> ExperimentResult:
    base = skylake_default()
    no_coalesce = replace(base, ppa=replace(base.ppa,
                                            persist_coalescing=False))
    overheads = _gmean_overheads((base, no_coalesce), apps, length)
    rows = [["coalescing (PPA)", overheads[0]],
            ["no coalescing", overheads[1]]]
    return ExperimentResult(
        experiment_id="ablation-coalescing",
        title="Persist coalescing on vs off",
        columns=["mode", "gmean_slowdown"], rows=rows,
        notes="without coalescing every store is one NVM line write and "
              "the 2.3 GB/s write port saturates",
    )


def run_ablation_boundary(apps=ABLATION_APPS,
                          length: int = ABLATION_LENGTH) -> ExperimentResult:
    base = skylake_default()
    thresholds = (0, 8, 24, 64)
    configs = [replace(base, ppa=replace(
        base.ppa, min_deferred_for_boundary=threshold))
        for threshold in thresholds]
    rows = [list(row) for row in
            zip(thresholds, _gmean_overheads(configs, apps, length))]
    return ExperimentResult(
        experiment_id="ablation-boundary",
        title="Rename-stall escalation threshold (deferred registers)",
        columns=["min_deferred", "gmean_slowdown"], rows=rows,
        notes="0 = every rename stall becomes a persist barrier (eager); "
              "larger values ride out transient in-flight spikes",
    )


def run_ablation_integrity(app: str = "gcc", length: int = 4_000,
                           failure_points: int = 25) -> ExperimentResult:
    """Disable MaskReg and count corrupted recoveries."""
    rows = []
    for enforce in (True, False):
        processor = PersistentProcessor(
            enforce_store_integrity=enforce)
        trace = generate_trace(profile_by_name(app), length=length)
        stats = processor.run(trace)
        corrupted = 0
        for index in range(1, failure_points + 1):
            fail_time = stats.cycles * index / (failure_points + 1)
            crash = processor.crash_at(fail_time)
            try:
                result = processor.recover(crash)
            except KeyError:
                corrupted += 1
                continue
            report = verify_recovery(stats, result.nvm_image,
                                     crash.last_committed_seq)
            if not report.consistent:
                corrupted += 1
        rows.append(["masking on" if enforce else "masking off",
                     corrupted, failure_points])
    return ExperimentResult(
        experiment_id="ablation-integrity",
        title="Store integrity on vs off: corrupted recoveries",
        columns=["mode", "corrupted", "failure_points"], rows=rows,
        notes="with MaskReg disabled, replayed stores read reclaimed "
              "registers and recovery diverges from the reference",
    )


for _experiment in (
    Experiment("ablation-async", "Async writeback ablation",
               "sync draining is much slower", run_ablation_async),
    Experiment("ablation-coalescing", "Persist coalescing ablation",
               "uncoalesced writes saturate NVM", run_ablation_coalescing),
    Experiment("ablation-boundary", "Boundary threshold ablation",
               "eager barriers pay ROB drains", run_ablation_boundary),
    Experiment("ablation-integrity", "Store integrity ablation",
               "masking off corrupts recovery", run_ablation_integrity),
):
    register(_experiment)
