"""``python -m repro.telemetry`` — trace one run and summarize its timeline.

Runs a workload profile under a scheme with tracing on, prints the
timeline digest and the top-N longest persistence regions, and optionally
exports the Perfetto-loadable Chrome trace and/or the flat JSONL stream::

    python -m repro.telemetry rb --scheme ppa --length 2000 \\
        --out rb-ppa.json --top 5

    python -m repro.telemetry gcc --scheme capri --crash 0.5
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.cli import add_json_flag, reject_bad_limits
from repro.facade import CORES, simulate
from repro.orchestrator.points import check_run
from repro.persistence.catalog import scheme_names
from repro.workloads.profiles import profile_by_name
from repro.telemetry.export import timeline_summary, top_regions


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.telemetry",
        description="Trace one simulation and summarize its timeline.")
    parser.add_argument("profile",
                        help="workload profile name (e.g. gcc, rb)")
    parser.add_argument("--scheme", default="ppa", choices=scheme_names(),
                        help="persistence scheme (default: ppa)")
    parser.add_argument("--core", default="ooo", choices=list(CORES),
                        help="core model (default: ooo)")
    parser.add_argument("--length", type=int, default=20_000,
                        help="dynamic instructions (default: 20000)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--threads", type=int, default=8,
                        help="thread count for --core multicore")
    parser.add_argument("--crash", type=float, default=None,
                        metavar="FRACTION",
                        help="inject a power failure at this fraction of "
                             "the run and trace checkpoint + recovery "
                             "(requires a crash-capable core/scheme)")
    parser.add_argument("--out", default=None, metavar="PATH",
                        help="write the Chrome trace JSON here")
    parser.add_argument("--jsonl", default=None, metavar="PATH",
                        help="write the flat JSONL event stream here")
    parser.add_argument("--top", type=int, default=10,
                        help="longest regions to list (default: 10)")
    add_json_flag(parser)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    if reject_bad_limits(args):
        return 2
    try:
        profile_by_name(args.profile)
        if args.core != "multicore":
            check_run(args.core, args.scheme)
    except ValueError as error:
        print(error, file=sys.stderr)
        return 2
    result = simulate(args.profile, scheme=args.scheme, core=args.core,
                      length=args.length, seed=args.seed,
                      threads=args.threads, trace=True)
    if args.crash is not None:
        if result.crash_api is None:
            print(f"--crash: core={args.core} scheme={args.scheme} has no "
                  "crash/recover API", file=sys.stderr)
            return 2
        cycles = getattr(result.stats, "cycles", 0.0)
        crash = result.crash_api.crash_at(cycles * args.crash)
        result.crash_api.recover(crash)

    tracer = result.telemetry
    summary = timeline_summary(tracer)
    if args.json:
        regions = top_regions(tracer, n=args.top)
        print(json.dumps({
            "run": {"profile": args.profile, "scheme": args.scheme,
                    "core": args.core, "length": args.length,
                    "seed": args.seed},
            "summary": summary,
            "top_regions": [
                {"name": event.name, "track": event.track,
                 "open": event.ts, "cycles": event.dur,
                 "args": dict(event.args)}
                for event in regions],
        }, indent=2, allow_nan=False))
        if args.out:
            result.write_chrome_trace(args.out)
        if args.jsonl:
            result.write_jsonl(args.jsonl)
        return 0
    print(f"run: {args.profile} scheme={args.scheme} core={args.core} "
          f"length={args.length}")
    print(f"events: {summary['events']}  spans: {summary['spans']}  "
          f"open spans: {summary['open_spans']}  "
          f"span cycles: {summary['span_cycles']:.0f}")
    print("tracks:")
    for track, count in sorted(summary["tracks"].items()):
        print(f"  {track:<24} {count:>8} events")
    if summary["region_close_causes"]:
        causes = ", ".join(f"{cause}={count}" for cause, count in
                           sorted(summary["region_close_causes"].items()))
        print(f"region close causes: {causes}")

    regions = top_regions(tracer, n=args.top)
    if regions:
        print(f"top {len(regions)} longest regions:")
        print(f"  {'region':<20} {'track':<16} {'open':>10} "
              f"{'cycles':>9} {'stores':>7} {'cause':>9}")
        for event in regions:
            print(f"  {event.name:<20} {event.track:<16} "
                  f"{event.ts:>10.0f} {event.dur:>9.1f} "
                  f"{event.args.get('stores', '?'):>7} "
                  f"{str(event.args.get('cause', '?')):>9}")

    interesting = ("region.drain_wait", "store.commit_to_durable",
                   "wb.store_persist_latency")
    metrics = summary["metrics"]
    shown = [name for name in interesting if name in metrics]
    if shown:
        print("latency histograms (cycles):")
        for name in shown:
            h = metrics[name]
            print(f"  {name:<28} n={h['count']:<6} mean={h['mean']:<8.2f} "
                  f"p50={h['p50']:<8.2f} p99={h['p99']:<8.2f} "
                  f"max={h['max']:.2f}")

    if args.out:
        result.write_chrome_trace(args.out)
        print(f"chrome trace: {args.out}")
    if args.jsonl:
        result.write_jsonl(args.jsonl)
        print(f"jsonl: {args.jsonl}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
