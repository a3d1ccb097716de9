#!/usr/bin/env python3
"""Figure 8 in miniature: PPA vs Capri vs ReplayCache across suites.

Reproduces the paper's headline comparison — PPA's ~2 % overhead against
Capri's ~26 % and ReplayCache's ~5x — on a representative subset of the 41
applications (pass --all for the full set; expect a few minutes).

All (app x scheme) points run as one campaign, so compatible points share
a cohort of the batched kernel; set $REPRO_CACHE_DIR to keep the results in
the disk cache the experiments and the orchestrator share.

Run:  python examples/overhead_study.py [--all] [--length N]
"""

import argparse

from repro.analysis.stats import gmean
from repro.experiments.runner import run_points
from repro.orchestrator.points import make_point
from repro.workloads.profiles import ALL_PROFILES, profile_by_name

REPRESENTATIVE = ("gcc", "bzip2", "mcf", "lbm", "libquantum", "namd",
                  "rb", "pc", "water-ns", "lulesh", "xsbench", "sjeng")
SCHEMES = ("ppa", "capri", "replaycache")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--all", action="store_true",
                        help="run all 41 applications")
    parser.add_argument("--length", type=int, default=12_000,
                        help="instructions per trace")
    args = parser.parse_args()

    apps = ([p.name for p in ALL_PROFILES] if args.all
            else list(REPRESENTATIVE))
    columns = ("baseline", *SCHEMES)
    stats = run_points([make_point(app, scheme, length=args.length)
                        for app in apps for scheme in columns])
    runs = {(app, scheme): stats[i * len(columns) + j]
            for i, app in enumerate(apps)
            for j, scheme in enumerate(columns)}

    header = f"{'app':14s} {'suite':10s}" + "".join(
        f"{scheme:>13s}" for scheme in SCHEMES)
    print(header)
    print("-" * len(header))
    ratios: dict[str, list[float]] = {scheme: [] for scheme in SCHEMES}
    for app in apps:
        suite = profile_by_name(app).suite
        row = f"{app:14s} {suite:10s}"
        for scheme in SCHEMES:
            ratio = runs[app, scheme].cycles / runs[app, "baseline"].cycles
            ratios[scheme].append(ratio)
            row += f"{ratio:13.3f}"
        print(row)

    print("-" * len(header))
    summary = f"{'gmean':14s} {'':10s}"
    for scheme in SCHEMES:
        summary += f"{gmean(ratios[scheme]):13.3f}"
    print(summary)
    print("\npaper: PPA 1.02x, Capri 1.26x, ReplayCache ~5x")

    # Why PPA wins: region length vs the comparators.
    ppa, capri = runs["gcc", "ppa"], runs["gcc", "capri"]
    print(f"\ngcc region length: PPA {ppa.mean_region_instrs:.0f} "
          f"instructions vs Capri {capri.mean_region_instrs:.0f} "
          "(the paper reports 11x longer regions for PPA)")


if __name__ == "__main__":
    main()
