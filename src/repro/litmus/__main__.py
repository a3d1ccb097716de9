"""``python -m repro.litmus`` — run the persistency litmus engine.

Subcommands::

    list                      name, shape, and allowed-set size of every
                              curated program
    enumerate PROGRAM         the formal Px86-TSO allowed crash states
    run [...]                 conformance suite; exits non-zero on any
                              soundness violation

``run`` defaults to the full curated suite over every (core, scheme)
target; ``--json`` emits the machine-readable report CI consumes.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.cli import add_json_flag, reject_bad_limits


def _cmd_list(args) -> int:
    from repro.litmus.families import curated_suite
    from repro.litmus.px86 import allowed_crash_states

    rows = []
    for program in curated_suite():
        allowed = allowed_crash_states(program)
        rows.append({
            "name": program.name,
            "threads": len(program.threads),
            "allowed_states": len(allowed),
            "shape": program.describe(),
        })
    if args.json:
        json.dump(rows, sys.stdout, indent=2)
        print()
        return 0
    width = max(len(r["name"]) for r in rows)
    for r in rows:
        print(f"{r['name']:{width}s}  {r['threads']} thread(s), "
              f"{r['allowed_states']:3d} allowed  {r['shape']}")
    return 0


def _cmd_enumerate(args) -> int:
    from repro.litmus.families import program_by_name
    from repro.litmus.px86 import allowed_crash_states, format_state

    try:
        program = program_by_name(args.program)
    except ValueError as error:
        print(error, file=sys.stderr)
        return 2
    allowed = sorted(allowed_crash_states(program))
    if args.json:
        json.dump({
            "program": program.name,
            "locations": list(program.locations),
            "allowed": [list(state) for state in allowed],
        }, sys.stdout, indent=2)
        print()
        return 0
    print(f"{program.name}: {program.describe()}")
    print(f"{len(allowed)} allowed crash states:")
    for state in allowed:
        print(f"  [{format_state(program, state)}]")
    return 0


def _cmd_run(args) -> int:
    from repro.litmus.families import curated_suite, program_by_name
    from repro.litmus.harness import run_suite, target_matrix

    cores = (tuple(c.strip() for c in args.cores.split(","))
             if args.cores else None)
    schemes = (tuple(s.strip() for s in args.schemes.split(","))
               if args.schemes else None)
    try:
        if args.programs:
            programs = tuple(program_by_name(name.strip())
                             for name in args.programs.split(","))
        else:
            programs = curated_suite()
        targets = target_matrix(cores, schemes)
    except ValueError as error:       # an unknown program, core or scheme
        print(error, file=sys.stderr)
        return 2

    cache = None
    if args.cache_dir:
        from repro.orchestrator.cache import ResultCache

        cache = ResultCache(args.cache_dir)

    progress = None
    if not args.json and not args.quiet:
        def progress(name, index, total):      # noqa: ANN001
            print(f"[{index + 1}/{total}] {name}", file=sys.stderr)

    report = run_suite(
        programs, targets, max_interleavings=args.max_interleavings,
        jobs=args.jobs, cache=cache, progress=progress)
    if args.json:
        json.dump(report.to_dict(), sys.stdout, indent=2)
        print()
    else:
        print(report.to_text(verbose=args.verbose))
    return 0 if report.ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.litmus",
        description="Px86-TSO persistency litmus engine")
    sub = parser.add_subparsers(dest="command", required=True)

    p_list = sub.add_parser("list", help="curated litmus programs")
    add_json_flag(p_list)
    p_list.set_defaults(func=_cmd_list)

    p_enum = sub.add_parser(
        "enumerate", help="formal allowed crash states of one program")
    p_enum.add_argument("program")
    add_json_flag(p_enum)
    p_enum.set_defaults(func=_cmd_enumerate)

    p_run = sub.add_parser("run", help="conformance suite")
    p_run.add_argument("--programs", default="",
                       help="comma-separated curated names (default: all)")
    p_run.add_argument("--cores", default="",
                       help="comma-separated cores (default: "
                            "ooo,inorder,multicore)")
    p_run.add_argument("--schemes", default="",
                       help="comma-separated schemes (default: all)")
    p_run.add_argument("--jobs", type=int, default=1,
                       help="campaign pool size for the OoO runs")
    p_run.add_argument("--cache-dir", default="",
                       help="orchestrator L2 cache directory")
    p_run.add_argument("--max-interleavings", type=int, default=24)
    add_json_flag(p_run)
    p_run.add_argument("--verbose", action="store_true",
                       help="list unreached allowed states per check")
    p_run.add_argument("--quiet", action="store_true")
    p_run.set_defaults(func=_cmd_run)

    args = parser.parse_args(argv)
    if reject_bad_limits(args):
        return 2
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
