"""``python -m repro.bench`` — the simulator performance observatory CLI.

Usage::

    python -m repro.bench run [--suite quick|full|smoke] [--reps N]
        [--warmup N] [--out PATH | --no-artifact] [--json]
    python -m repro.bench profile sim:ooo:ppa:gcc [--suite quick]
        [--top N] [--no-metrics] [--json]
    python -m repro.bench compare BASE.json NEW.json [--threshold F]
        [--json]
    python -m repro.bench gate BASE.json NEW.json [--threshold F]
        [--warn-only]

``compare``/``gate`` also accept a *directory* as BASE (e.g. the repo
root): the committed ``BENCH_*.json`` of NEW's suite with the best
aggregate instrs/s becomes the base, so the gate measures against the
strongest recorded trajectory point for the same benchmarks. ``gate``
exits 2 when no such artifact exists or the two reports share no
benchmark: a gate that compared nothing must not pass.
    python -m repro.bench fidelity [--tier quick|full] [--json]
        [--markdown]

``run`` writes a schema-versioned ``BENCH_<date>_<shortsha>.json`` in the
current directory (the repo root, in CI) to extend the perf trajectory;
``compare``/``gate`` diff two trajectory points; ``fidelity`` scores the
reproduction against the paper claims in EXPERIMENTS.md.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

from repro.cli import add_json_flag
from repro.bench.compare import (
    DEFAULT_THRESHOLD,
    aggregate_instrs_per_sec,
    compare_reports,
    resolve_base,
)
from repro.bench.fidelity import run_fidelity
from repro.bench.harness import (
    DEFAULT_REPETITIONS,
    DEFAULT_WARMUP,
    load_report,
    run_suite,
)
from repro.bench.profile import profile_by_name
from repro.bench.suite import SUITES


def _progress(name: str, index: int, total: int) -> None:
    print(f"  [{index + 1:2d}/{total}] {name}", flush=True,
          file=sys.stderr)


def _cmd_run(args) -> int:
    report = run_suite(suite=args.suite, repetitions=args.reps,
                       warmup=args.warmup,
                       progress=None if args.json else _progress)
    path = None
    if not args.no_artifact:
        path = pathlib.Path(args.out) if args.out \
            else pathlib.Path.cwd() / report.artifact_name()
        report.write(path)
    if args.json:
        out = report.to_dict()
        out["artifact"] = str(path) if path else None
        print(json.dumps(out, indent=2, allow_nan=False))
    else:
        print(report.to_text())
        if path:
            print(f"[artifact] {path}")
    return 0 if report.deterministic else 1


def _cmd_profile(args) -> int:
    report = profile_by_name(args.benchmark, suite=args.suite,
                             top=args.top,
                             with_metrics=not args.no_metrics)
    if args.json:
        print(json.dumps(report.to_dict(), indent=2, allow_nan=False))
    else:
        print(report.to_text(top=args.top))
    return 0


def _compare(args):
    new = load_report(args.new)
    base_path = resolve_base(args.base, new.suite, exclude=args.new)
    base = load_report(base_path)
    report = compare_reports(base, new, threshold=args.threshold)
    aggregate = (f"aggregate instrs/s: base "
                 f"{aggregate_instrs_per_sec(base):,.0f} "
                 f"({base_path}) -> new "
                 f"{aggregate_instrs_per_sec(new):,.0f}")
    return report, aggregate


def _cmd_compare(args) -> int:
    report, aggregate = _compare(args)
    if args.json:
        print(json.dumps(report.to_dict(), indent=2, allow_nan=False))
    else:
        print(report.to_text())
        print(aggregate)
    return 0


def _cmd_gate(args) -> int:
    try:
        report, aggregate = _compare(args)
    except FileNotFoundError as exc:
        print(f"[gate] error: {exc}", file=sys.stderr)
        return 2
    if not report.deltas:
        print(f"[gate] error: base and new share no benchmark "
              f"({len(report.only_in_base)} only in base, "
              f"{len(report.only_in_new)} only in new); nothing to gate",
              file=sys.stderr)
        return 2
    print(report.to_text())
    print(aggregate)
    if report.ok:
        return 0
    if args.warn_only:
        print("[gate] FAIL downgraded to warning (--warn-only)")
        return 0
    return 1


def _cmd_fidelity(args) -> int:
    report = run_fidelity(tier=args.tier,
                          progress=None if args.json else _progress)
    if args.json:
        print(json.dumps(report.to_dict(), indent=2, allow_nan=False))
    elif args.markdown:
        print(report.to_markdown())
    else:
        print(report.to_text())
    return 0 if report.ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Benchmark, profile, and fidelity-check the "
                    "simulator itself.")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="measure a benchmark suite and "
                                     "write a BENCH_*.json artifact")
    run.add_argument("--suite", default="quick", choices=sorted(SUITES))
    run.add_argument("--reps", type=int, default=DEFAULT_REPETITIONS,
                     help="counted repetitions per benchmark "
                          f"(default: {DEFAULT_REPETITIONS}, min-of-N)")
    run.add_argument("--warmup", type=int, default=DEFAULT_WARMUP,
                     help="uncounted warmup passes per benchmark "
                          f"(default: {DEFAULT_WARMUP})")
    run.add_argument("--out", default=None, metavar="PATH",
                     help="artifact path (default: "
                          "./BENCH_<date>_<shortsha>.json)")
    run.add_argument("--no-artifact", action="store_true",
                     help="measure and print, but write nothing")
    add_json_flag(run)
    run.set_defaults(func=_cmd_run)

    prof = sub.add_parser("profile", help="cProfile one benchmark with "
                                          "per-component attribution")
    prof.add_argument("benchmark",
                      help="benchmark name (see `run`), e.g. "
                           "sim:ooo:ppa:gcc")
    prof.add_argument("--suite", default="quick", choices=sorted(SUITES))
    prof.add_argument("--top", type=int, default=10,
                      help="hottest functions to list (default: 10)")
    prof.add_argument("--no-metrics", action="store_true",
                      help="skip the traced re-run (telemetry metric "
                           "attribution)")
    add_json_flag(prof)
    prof.set_defaults(func=_cmd_profile)

    comp = sub.add_parser("compare", help="diff two BENCH artifacts")
    comp.add_argument("base",
                      help="base artifact, or a directory of BENCH_*.json "
                           "(the best same-suite throughput point wins)")
    comp.add_argument("new")
    comp.add_argument("--threshold", type=float,
                      default=DEFAULT_THRESHOLD,
                      help="relative wall-clock noise threshold "
                           f"(default: {DEFAULT_THRESHOLD})")
    add_json_flag(comp)
    comp.set_defaults(func=_cmd_compare)

    gate = sub.add_parser("gate", help="compare and exit nonzero on "
                                       "regressions or model drift")
    gate.add_argument("base",
                      help="base artifact, or a directory of BENCH_*.json "
                           "(the best same-suite throughput point wins)")
    gate.add_argument("new")
    gate.add_argument("--threshold", type=float,
                      default=DEFAULT_THRESHOLD)
    gate.add_argument("--warn-only", action="store_true",
                      help="report failures but exit 0 (bootstrap mode "
                           "until two trajectory points exist)")
    gate.set_defaults(func=_cmd_gate)

    fid = sub.add_parser("fidelity", help="score the reproduction "
                                          "against the paper's claims")
    fid.add_argument("--tier", default="quick", choices=("quick", "full"))
    add_json_flag(fid)
    fid.add_argument("--markdown", action="store_true",
                     help="render the scoreboard as a markdown table")
    fid.set_defaults(func=_cmd_fidelity)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
