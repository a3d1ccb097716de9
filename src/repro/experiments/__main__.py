"""Command-line experiment runner.

Usage::

    python -m repro.experiments list
    python -m repro.experiments fig8 [--length N] [--apps gcc,rb,...]
    python -m repro.experiments all [--length N]

Figures run their points as campaigns on the same content-addressed disk
cache as ``python -m repro.orchestrator`` (``$REPRO_CACHE_DIR``, default
``~/.cache/repro-sim``), so a figure already swept there is all cache
hits here.
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.cli import reject_bad_limits
from repro.experiments.registry import all_experiments, get_experiment
from repro.experiments.runner import configure_disk_cache, disk_cache
from repro.orchestrator.cache import default_cache_dir
from repro.workloads.profiles import profile_by_name


def _run_one(experiment_id: str, kwargs: dict,
             chart: bool = False) -> None:
    experiment = get_experiment(experiment_id)
    print(f"running {experiment_id}: {experiment.title} "
          f"(paper: {experiment.paper_claim})")
    counters = disk_cache().counters
    hits, misses = counters.hits, counters.misses
    start = time.time()
    result = experiment(**kwargs)
    elapsed = time.time() - start
    print(result.to_text())
    if chart:
        from repro.analysis.charts import bar_chart
        print()
        print(bar_chart(result))
    # Every campaign point is one cache lookup; each miss was simulated.
    hits, misses = counters.hits - hits, counters.misses - misses
    print(f"[{elapsed:.1f}s, campaign points: L2 {hits} hit / {misses} "
          f"miss, {misses} simulated]\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Reproduce the paper's figures and tables.")
    parser.add_argument("experiment",
                        help="experiment id (e.g. fig8, tab5), "
                             "'list', or 'all'")
    parser.add_argument("--length", type=int, default=None,
                        help="instructions per trace (figures only)")
    parser.add_argument("--apps", type=str, default=None,
                        help="comma-separated application subset")
    parser.add_argument("--chart", action="store_true",
                        help="render an ASCII bar chart of the result")
    args = parser.parse_args(argv)
    if reject_bad_limits(args):
        return 2

    if args.experiment == "list":
        for experiment_id, experiment in sorted(all_experiments().items()):
            print(f"{experiment_id:22s} {experiment.title} "
                  f"(paper: {experiment.paper_claim})")
        return 0

    try:
        if args.experiment != "all":
            get_experiment(args.experiment)
        apps = args.apps.split(",") if args.apps is not None else []
        for app in apps:
            profile_by_name(app)
    except ValueError as error:
        print(error, file=sys.stderr)
        return 2
    configure_disk_cache(default_cache_dir())

    kwargs: dict = {}
    if args.length is not None:
        kwargs["length"] = args.length
    if apps:
        kwargs["apps"] = tuple(apps)

    if args.experiment == "all":
        for experiment_id in sorted(all_experiments()):
            per_experiment = dict(kwargs)
            if experiment_id.startswith(("tab", "sec", "ablation")):
                per_experiment.pop("length", None)
                per_experiment.pop("apps", None)
            if experiment_id == "fig19":
                per_experiment.pop("length", None)
            _run_one(experiment_id, per_experiment, chart=args.chart)
        return 0

    per_experiment = dict(kwargs)
    if args.experiment.startswith(("tab", "sec")):
        per_experiment = {}
    _run_one(args.experiment, per_experiment, chart=args.chart)
    return 0


if __name__ == "__main__":
    sys.exit(main())
