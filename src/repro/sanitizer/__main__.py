"""Persistency-sanitizer CLI: sweep workloads under the invariant probes
and the crash-sweep oracle.

Usage::

    python -m repro.sanitizer [--profiles rb,mcf,gcc] [--schemes ppa]
        [--length N] [--seed S] [--sweeps K] [--json]

Every (profile, scheme) pair is simulated with the probes installed — any
invariant violation aborts the run with the offending event — and, when
the scheme is PPA, its logs are swept with randomized and boundary-
targeted power-cut points re-verifying the Section 2.4 recovery claim.
Exit status is non-zero if any run violates an invariant or any crash
point recovers inconsistently.
"""

from __future__ import annotations

import argparse
import sys
from typing import Any

from repro.cli import add_json_flag, emit_json, reject_bad_limits
from repro.orchestrator.execute import simulate_point
from repro.orchestrator.points import make_point
from repro.sanitizer.oracle import crash_sweep
from repro.sanitizer.probes import SanitizerError, sanitized

DEFAULT_PROFILES = "rb,mcf,gcc"
# Only PPA's recovery story (CSQ replay over the surviving image) is what
# the oracle checks; other schemes still run under the probes.
ORACLE_SCHEMES = frozenset({"ppa"})


def run_one(profile: str, scheme: str, length: int, seed: int,
            sweeps: int, quiet: bool = False) -> dict[str, Any]:
    """Simulate one pair under the probes (+ oracle for PPA); prints a
    verdict line (unless ``quiet``) and returns the run record."""
    wants_oracle = scheme in ORACLE_SCHEMES and sweeps > 0
    point = make_point(profile, scheme, length=length, seed=seed,
                       track_values=wants_oracle,
                       capture_persist_log=wants_oracle)
    tag = f"{profile}:{scheme}"
    record: dict[str, Any] = {"profile": profile, "scheme": scheme,
                              "ok": False}
    try:
        with sanitized() as probe_state:
            stats, persist_log = simulate_point(point)
    except SanitizerError as exc:
        record["violation"] = str(exc)
        if not quiet:
            print(f"  {tag:24s} VIOLATION {exc}")
        return record
    record.update(ok=True, checks=probe_state.total_checks,
                  ipc=stats.ipc)
    line = (f"  {tag:24s} ok  {probe_state.total_checks} checks, "
            f"ipc {stats.ipc:.3f}")
    if wants_oracle:
        report = crash_sweep(stats, persist_log, samples=sweeps, seed=seed)
        line += f", sweep: {report.summary()}"
        record["sweep"] = report.summary()
        if not report.consistent:
            worst = report.failures[0]
            record["ok"] = False
            record["inconsistent_at"] = worst.fail_time
            record["mismatches"] = worst.mismatches
            if not quiet:
                print(line)
                print(f"  {tag:24s} INCONSISTENT at cycle "
                      f"{worst.fail_time:.2f}: {worst.mismatches} "
                      f"mismatches")
            return record
    if not quiet:
        print(line)
    return record


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.sanitizer",
        description="Run workloads under the persistency sanitizer and "
                    "the crash-sweep oracle.")
    parser.add_argument("--profiles", type=str, default=DEFAULT_PROFILES,
                        help="comma-separated workload profiles "
                             f"(default: {DEFAULT_PROFILES})")
    parser.add_argument("--schemes", type=str, default="ppa",
                        help="comma-separated schemes (default: ppa)")
    parser.add_argument("--length", type=int, default=8_000,
                        help="instructions per trace")
    parser.add_argument("--seed", type=int, default=0,
                        help="trace and sweep seed")
    parser.add_argument("--sweeps", type=int, default=64,
                        help="random power-cut samples per PPA run "
                             "(0 disables the oracle)")
    add_json_flag(parser, "per-run verdicts")
    args = parser.parse_args(argv)
    if reject_bad_limits(args):
        return 2
    profiles = [name.strip() for name in args.profiles.split(",")]
    schemes = [name.strip() for name in args.schemes.split(",")]
    try:
        for profile in profiles:
            for scheme in schemes:
                make_point(profile, scheme)
    except ValueError as error:
        print(error, file=sys.stderr)
        return 2

    records = []
    for profile in profiles:
        for scheme in schemes:
            records.append(run_one(profile, scheme, args.length, args.seed,
                                   args.sweeps, quiet=args.json))
    failures = sum(1 for record in records if not record["ok"])
    if args.json:
        emit_json({"runs": records, "failures": failures})
    else:
        verdict = "clean" if failures == 0 else f"{failures} FAILING run(s)"
        print(f"[sanitizer] {verdict}")
    return 0 if failures == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
