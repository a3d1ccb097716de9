"""``python -m repro.bench`` — profile and fidelity-check the simulator.

Usage::

    python -m repro.bench profile sim:ooo:ppa:gcc [--top N]
        [--no-metrics] [--json]
    python -m repro.bench fidelity [--tier quick|full] [--json]
        [--markdown]

``profile`` attributes one default ``repro.simulate`` call's wall-clock
per component; ``fidelity`` scores the reproduction against the paper
claims in EXPERIMENTS.md. Speed is measured by ``perfbench/run.py``.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.cli import add_json_flag
from repro.bench.fidelity import run_fidelity
from repro.bench.profile import parse_spec, profile_spec


def _progress(name: str, index: int, total: int) -> None:
    print(f"  [{index + 1:2d}/{total}] {name}", flush=True,
          file=sys.stderr)


def _cmd_profile(args) -> int:
    try:
        parse_spec(args.spec)
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 2
    report = profile_spec(args.spec, top=args.top,
                          with_metrics=not args.no_metrics)
    if args.json:
        print(json.dumps(report.to_dict(), indent=2, allow_nan=False))
    else:
        print(report.to_text(top=args.top))
    return 0


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
        description="Profile and fidelity-check the simulator itself.")
    sub = parser.add_subparsers(dest="command", required=True)

    prof = sub.add_parser("profile", help="cProfile one simulate() call "
                                          "with per-component attribution")
    prof.add_argument("spec",
                      help="sim:<core>:<scheme>:<app>, e.g. "
                           "sim:ooo:ppa:gcc (seed 0, 12,000 instructions; "
                           "multicore: 4 threads x 3,000)")
    prof.add_argument("--top", type=int, default=10,
                      help="hottest functions to list (default: 10)")
    prof.add_argument("--no-metrics", action="store_true",
                      help="skip the traced re-run (telemetry metric "
                           "attribution)")
    add_json_flag(prof)
    prof.set_defaults(func=_cmd_profile)

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
