"""Workload inventory CLI.

Usage::

    python -m repro.workloads                 # the 41-application table
    python -m repro.workloads gcc             # one profile in detail
    python -m repro.workloads --suite WHISPER # one suite (Table 3 flavour)
    python -m repro.workloads --json          # machine-readable inventory
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

from repro.cli import add_json_flag, emit_json
from repro.workloads.profiles import (
    ALL_PROFILES,
    SUITES,
    WorkloadProfile,
    profile_by_name,
    profiles_in_suite,
)


def _mb(size_bytes: int) -> str:
    return f"{size_bytes / (1 << 20):.0f}MB"


def _summary_row(profile: WorkloadProfile) -> str:
    return (f"{profile.name:14s} {profile.suite:10s} "
            f"ld={profile.load_frac:4.0%} st={profile.store_frac:5.1%} "
            f"br={profile.branch_frac:4.0%} fp={profile.fp_frac:4.0%} "
            f"fp_ws={profile.fp_workset:2d} thr={profile.threads} "
            f"foot={_mb(profile.footprint_bytes):>7s}")


def _detail(profile: WorkloadProfile) -> str:
    lines = [f"{profile.name} ({profile.suite})",
             f"  mix: {profile.load_frac:.0%} loads, "
             f"{profile.store_frac:.1%} stores, "
             f"{profile.branch_frac:.0%} branches, "
             f"{profile.fp_frac:.0%} FP compute, "
             f"{profile.cmp_frac:.0%} compares",
             f"  registers: int workset {profile.int_workset}, "
             f"fp workset {profile.fp_workset}, "
             f"store-reg turnover {profile.store_reg_turnover:.2f}",
             f"  control: {profile.mispredict_rate:.1%} mispredicts, "
             f"dep window {profile.dep_window}",
             f"  threads: {profile.threads}"
             + (f", sync every {profile.sync_interval} instructions"
                if profile.sync_interval else ""),
             "  memory regions:"]
    for region in profile.regions:
        lines.append(
            f"    {region.name:7s} {_mb(region.size_bytes):>7s}  "
            f"load_w={region.load_weight:<5g} "
            f"store_w={region.store_weight:<5g} "
            f"seq={region.seq_prob:.2f}")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.workloads",
        description="Inspect the 41 calibrated application profiles.")
    parser.add_argument("name", nargs="?", help="one application to detail")
    parser.add_argument("--suite", choices=SUITES, default=None)
    add_json_flag(parser, "the profile inventory")
    args = parser.parse_args(argv)

    if args.name:
        try:
            profile = profile_by_name(args.name)
        except ValueError as error:
            print(error, file=sys.stderr)
            return 2
        if args.json:
            emit_json(dataclasses.asdict(profile))
        else:
            print(_detail(profile))
        return 0
    profiles = (profiles_in_suite(args.suite) if args.suite
                else list(ALL_PROFILES))
    if args.json:
        emit_json({"suite": args.suite,
                   "profiles": [dataclasses.asdict(p) for p in profiles]})
        return 0
    for profile in profiles:
        print(_summary_row(profile))
    print(f"\n{len(profiles)} applications"
          + (f" in {args.suite}" if args.suite else " across 6 suites"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
