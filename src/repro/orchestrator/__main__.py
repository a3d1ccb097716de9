"""Campaign orchestrator CLI.

Usage::

    python -m repro.orchestrator run fig16 --jobs 4 [--length N]
        [--apps a,b] [--no-cache] [--timeout S] [--retries K]
    python -m repro.orchestrator run matrix --apps mcf,lbm \\
        --schemes ppa,baseline [--jobs N]
    python -m repro.orchestrator status [--cache-dir DIR]
        [--plan SWEEP] [--engine MODE]
    python -m repro.orchestrator gc [--all] [--cache-dir DIR]

``run fig16`` (or capri/fig15/fig17/fig18/inorder) executes the figure's
sweep as a campaign: a cold run simulates every point across the pool; a
warm rerun resolves everything from the disk cache and simulates nothing.
``status --plan fig16`` previews how that sweep would batch — cohort
widths plus a histogram of why any point would stay on the scalar kernel
— without simulating anything.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

from repro.cli import add_json_flag, reject_bad_limits
from repro.orchestrator.cache import ResultCache, default_cache_dir
from repro.orchestrator.campaign import Campaign
from repro.orchestrator.campaigns import (
    SWEEPS,
    build_matrix,
    build_sweep,
    summarize_sweep,
    sweep_spec,
)


def _progress(telemetry, result) -> None:
    tag = "hit " if result.cache_hit else ("fail" if not result.ok
                                           else "sim ")
    print(f"  [{telemetry.done:4d}/{telemetry.total}] {tag} "
          f"{result.point.name}"
          + (f"  ({result.wall_clock:.2f}s)" if not result.cache_hit
             and result.ok else ""),
          flush=True)


def _make_campaign(args) -> Campaign:
    cache = None
    if not args.no_cache:
        cache = ResultCache(pathlib.Path(args.cache_dir)
                            if args.cache_dir else default_cache_dir())
    trace_dir = None
    if args.trace or args.trace_dir:
        trace_dir = args.trace_dir or "traces"
    return Campaign(cache=cache, jobs=args.jobs, timeout=args.timeout,
                    retries=args.retries,
                    progress=_progress if args.verbose else None,
                    sanitize=True if args.sanitize else None,
                    trace_dir=trace_dir, engine=args.engine)


def _cmd_run(args) -> int:
    apps = args.apps.split(",") if args.apps else None
    summary_rows: list[tuple[str, float]] = []
    if args.campaign == "matrix" and (not apps or not args.schemes):
        print("matrix campaigns need --apps and --schemes", file=sys.stderr)
        return 2
    if args.campaign != "matrix" and args.campaign not in SWEEPS:
        known = ", ".join(sorted(SWEEPS)) + ", matrix"
        print(f"unknown campaign {args.campaign!r} (known: {known})",
              file=sys.stderr)
        return 2
    try:
        if args.campaign == "matrix":
            points = build_matrix(apps, args.schemes.split(","),
                                  length=args.length or 12_000)
        else:
            spec = sweep_spec(args.campaign, apps=apps, length=args.length)
            points = build_sweep(spec)
    except ValueError as error:       # an unknown app or scheme
        print(error, file=sys.stderr)
        return 2

    campaign = _make_campaign(args)
    campaign.extend(points)
    results = campaign.run()
    failed = [result for result in results if not result.ok]
    if args.campaign == "matrix":
        if not args.json:
            print(f"{'point':32s} {'cycles':>12s} {'ipc':>6s} {'src':>5s}")
            for result in results:
                if not result.ok:
                    print(f"{result.point.name:32s} FAILED: "
                          f"{result.error}")
                    continue
                print(f"{result.point.name:32s} "
                      f"{result.stats.cycles:12.0f} "
                      f"{result.stats.ipc:6.2f} "
                      f"{'cache' if result.cache_hit else 'sim':>5s}")
    elif not failed:
        # PointResult.cycles reads the payload: nothing is decoded.
        summary_rows = summarize_sweep(spec, results)
        if not args.json:
            print(f"== {spec.name}: {spec.title} ==")
            for label, mean in summary_rows:
                print(f"  {label:12s} {mean:.3f}")
    elif not args.json:
        # A sweep summary needs every point: report the failures instead.
        for result in failed:
            print(f"{result.point.name} FAILED after {result.attempts} "
                  f"attempts: {result.error}")

    telemetry = campaign.telemetry
    if args.json:
        print(json.dumps({
            "campaign": args.campaign,
            "results": [result.to_dict() for result in results],
            "summary": [{"label": label, "gmean_slowdown": mean}
                        for label, mean in summary_rows],
            "telemetry": telemetry.to_dict(),
            "cache_root": (str(campaign.cache.root)
                           if campaign.cache is not None else None),
            "trace_dir": campaign.trace_dir,
        }, indent=2, allow_nan=False))
        return 0 if telemetry.failures == 0 else 1
    print(f"[campaign] {telemetry.summary_line()}")
    if campaign.cache is not None:
        print(f"[cache] {campaign.cache.root}")
    if campaign.trace_dir is not None:
        print(f"[trace] {campaign.trace_dir}")
    return 0 if telemetry.failures == 0 else 1


def _plan_preview(campaign: str, engine: str | None) -> dict:
    """How a named sweep would batch, without simulating anything: the
    plan ``run`` would make under this environment."""
    from repro.config import sanitize_requested
    from repro.engine import resolve_engine
    from repro.engine.plan import plan_points

    spec = sweep_spec(campaign)
    plan = plan_points(build_sweep(spec), resolve_engine(engine),
                       sanitize_requested())
    summary = plan.summary()
    summary["campaign"] = campaign
    summary["points"] = summary["batched_points"] + summary["scalar_points"]
    return summary


def _cmd_status(args) -> int:
    if args.plan is not None and args.plan not in SWEEPS:
        known = ", ".join(sorted(SWEEPS))
        if args.plan == "matrix":
            print(f"matrix campaigns have no fixed grid to preview "
                  f"(--plan takes a sweep: {known})", file=sys.stderr)
        else:
            print(f"unknown sweep {args.plan!r} (known: {known})",
                  file=sys.stderr)
        return 2
    cache = ResultCache(pathlib.Path(args.cache_dir)
                        if args.cache_dir else default_cache_dir())
    info = cache.inventory()
    if args.plan:
        info["plan"] = _plan_preview(args.plan, args.engine)
    if args.json:
        print(json.dumps(info, indent=2, allow_nan=False))
        return 0
    print(f"cache root:    {info['root']}")
    print(f"entries:       {info['entries']}")
    print(f"bytes:         {info['bytes']}")
    print(f"current salt:  {info['current_salt']}")
    for salt, count in sorted(info["salts"].items()):
        marker = " (current)" if salt == info["current_salt"] else " (stale)"
        print(f"  salt {salt}: {count} entries{marker}")
    for engine, count in sorted(info["engines"].items()):
        print(f"  engine {engine}: {count} entries (current salt)")
    if info["stale_schema"]:
        print(f"stale schema:  {info['stale_schema']} entries "
              f"(orphaned payload schema — 'gc' reclaims them)")
    if info["tmp_orphans"]:
        print(f"tmp orphans:   {info['tmp_orphans']} "
              f"({info['tmp_bytes']} bytes) — 'gc' reaps ones older "
              f"than an hour")
    seconds = info["sim_seconds"]
    print(f"banked sim:    {info['sim_cycles']:.0f} cycles, "
          f"{info['sim_instructions']} instructions, "
          f"{seconds:.2f}s simulation time")
    if seconds > 0:
        print(f"throughput:    {info['sim_cycles'] / seconds:.0f} "
              f"cycles/s, {info['sim_instructions'] / seconds:.0f} "
              f"instrs/s (over current-salt entries)")
    if args.plan:
        plan = info["plan"]
        print(f"plan preview:  {plan['campaign']} under "
              f"engine={plan['engine']}: {plan['points']} points -> "
              f"{plan['batched_points']} batched in {plan['cohorts']} "
              f"cohorts (widths {plan['cohort_widths']}), "
              f"{plan['scalar_points']} scalar")
        for reason, count in sorted(plan["scalar_reasons"].items()):
            print(f"  scalar x{count}: {reason}")
    return 0


def _cmd_gc(args) -> int:
    cache = ResultCache(pathlib.Path(args.cache_dir)
                        if args.cache_dir else default_cache_dir())
    removed = cache.gc(all_entries=args.all)
    what = "entries" if args.all else "stale entries + tmp orphans"
    print(f"removed {removed} {what} from {cache.root}")
    if args.evict_bytes is not None:
        report = cache.evict(max_bytes=args.evict_bytes)
        print(f"evicted {report['evicted_shards']} shards "
              f"({report['removed_entries']} entries, "
              f"{report['removed_bytes']} bytes"
              + (f", {report['corrupt_removed']} corrupt"
                 if report["corrupt_removed"] else "")
              + f"); {report['bytes']} bytes remain "
              f"(budget {report['max_bytes']})")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.orchestrator",
        description="Run simulation campaigns in parallel with a "
                    "persistent result cache.")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute a named campaign")
    run.add_argument("campaign",
                     help="capri|fig15|fig16|fig17|fig18|inorder sweep, "
                          "or 'matrix'")
    run.add_argument("--jobs", type=int, default=1,
                     help="worker processes (1 = in-process serial)")
    run.add_argument("--length", type=int, default=None,
                     help="instructions per trace")
    run.add_argument("--apps", type=str, default=None,
                     help="comma-separated application subset")
    run.add_argument("--schemes", type=str, default=None,
                     help="comma-separated schemes (matrix campaigns)")
    run.add_argument("--no-cache", action="store_true",
                     help="bypass the disk result cache")
    run.add_argument("--cache-dir", type=str, default=None,
                     help="cache directory (default: $REPRO_CACHE_DIR or "
                          "~/.cache/repro-sim)")
    run.add_argument("--timeout", type=float, default=None,
                     help="per-point timeout in seconds")
    run.add_argument("--retries", type=int, default=1,
                     help="retries per point on worker failure")
    run.add_argument("--trace", action="store_true",
                     help="capture cycle-level telemetry for every "
                          "simulated point and write Perfetto-loadable "
                          "Chrome traces (default directory: ./traces)")
    run.add_argument("--trace-dir", type=str, default=None,
                     help="trace output directory (implies --trace)")
    run.add_argument("--sanitize", action="store_true",
                     help="run simulated points under the persistency "
                          "sanitizer (repro.sanitizer); also enabled by "
                          "REPRO_SANITIZE=1")
    run.add_argument("--engine", type=str, default=None,
                     choices=("auto", "scalar", "batched"),
                     help="simulation engine (default: $REPRO_ENGINE or "
                          "'auto'; 'auto' runs compatible points as "
                          "cohorts of the batched kernel, which share "
                          "one trace and memory script)")
    run.add_argument("--verbose", action="store_true",
                     help="print per-point progress lines")
    add_json_flag(run)
    run.set_defaults(func=_cmd_run)

    status = sub.add_parser("status", help="show cache inventory")
    status.add_argument("--cache-dir", type=str, default=None)
    status.add_argument("--plan", type=str, default=None,
                        metavar="SWEEP",
                        help="also preview how the named sweep would "
                             "batch: cohort widths plus per-reason "
                             "scalar-fallback counts")
    status.add_argument("--engine", type=str, default=None,
                        choices=("auto", "scalar", "batched"),
                        help="engine mode for --plan (default: "
                             "$REPRO_ENGINE or 'auto')")
    add_json_flag(status)
    status.set_defaults(func=_cmd_status)

    gc = sub.add_parser("gc", help="drop stale cache entries")
    gc.add_argument("--all", action="store_true",
                    help="drop everything, not just stale-salt entries")
    gc.add_argument("--evict-bytes", type=int, default=None,
                    help="after gc, evict oldest shards until the cache "
                         "fits this byte budget")
    gc.add_argument("--cache-dir", type=str, default=None)
    gc.set_defaults(func=_cmd_gc)

    args = parser.parse_args(argv)
    if reject_bad_limits(args):
        return 2
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
