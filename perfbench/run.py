"""Benchmark of the three user paths: one ``repro.simulate`` point, the
fig16 sweep through ``Campaign`` (cold and warm), and the same kind of
sweep served by the ``repro.service`` daemon.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload point|sweep|service --seed N \\
        --seconds S --trace 0|1

``--trace 0`` measures the end-to-end metrics untraced; ``--trace 1``
repeats the workload on the same seed with every layer's entry points
wrapped in spans and reports the per-layer metrics, with a ledger whose
rows sum to the traced wall time.  Host times are calibrated against a
fixed slice of Python work (see ``calib.py``).  The output checks run
without re-simulating anything; a mismatch makes the run exit 1.  The
last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import pathlib
import signal
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
WORKLOADS = ("point", "sweep", "service")
HASH_SEED = "0"


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-pins", action="store_true",
                        help="store this run's result digests as the pins "
                             "for its workload (seed 0 only)")
    return parser.parse_args(argv)


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def collect(spec: dict, outcome, module, trace: bool) -> dict:
    """The metrics BENCHMARK.json declares for this mode, by name."""
    out = {}
    if trace:
        bypassed = getattr(module, "BYPASSED", ())
        for declared in spec["per_layer"]:
            name = declared["name"]
            if name in outcome.layers:
                value = outcome.layers[name]
            elif name in bypassed:
                value = 0
            else:
                raise KeyError(f"workload produced no per-layer {name}")
            out[name] = {"value": value, "unit": declared["unit"]}
        return out
    for declared in spec["end_to_end"]:
        name = declared["name"]
        metric = outcome.metrics[name]
        if metric.unit != declared["unit"]:
            raise ValueError(f"{name}: unit {metric.unit} != declared "
                             f"{declared['unit']}")
        out[name] = {"value": metric.value, "unit": metric.unit}
    return out


def report(workload: str, outcome, metrics: dict, trace: bool) -> None:
    """The human-readable part of the output: metrics with units and
    sample counts, and the layer ledger of a traced run."""
    from perfbench.ledger import LAYERS

    print(f"== {workload} ({'traced' if trace else 'untraced'})")
    for key, value in outcome.info.items():
        print(f"   {key}: {value}")
    if not trace:
        print(f"   {'metric':<16}{'unit':<6}{'calibrated':>12}"
              f"{'raw':>12}{'samples':>9}")
        for name, metric in outcome.metrics.items():
            raw = "-" if metric.raw is None else _fmt(metric.raw)
            print(f"   {name:<16}{metric.unit:<6}{_fmt(metric.value):>12}"
                  f"{raw:>12}{metric.samples:>9}")
    else:
        print(f"   ledger over {outcome.ledger_wall:.4f} s traced wall "
              "(self time; rows sum to the wall)")
        total = 0.0
        for name, seconds, calls in outcome.ledger_rows:
            layer, moves = LAYERS.get(name, ("-", "-"))
            total += seconds
            print(f"   {name:<18}{seconds:>10.4f} s{calls:>8}  "
                  f"{layer:<34}{moves}")
        print(f"   {'sum':<18}{total:>10.4f} s")
        for name, metric in metrics.items():
            print(f"   {name:<30}{metric['unit']:<10}"
                  f"{_fmt(metric['value'])}")
    for error in outcome.errors:
        print(f"   FAILED: {error}")


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if argv is None and os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        # String hashing is randomized per process, which moves dict
        # layouts and with them the timings; run under one fixed seed.
        os.execve(sys.executable, [sys.executable] + sys.argv,
                  dict(os.environ, PYTHONHASHSEED=HASH_SEED))
    # A terminated run still stops its daemon and removes its scratch.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    # The sandbox's CPUs drift in speed independently of each other, and a
    # calibration slice only measures the CPU it ran on: keep the
    # benchmark and every process it starts on one CPU.
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    module = importlib.import_module(f"perfbench.{args.workload}")
    from perfbench.common import PINNED_SEED, PINS, SCRATCH, remove_scratch

    try:
        outcome = module.run(args.seed, args.seconds, bool(args.trace),
                             check_pins=not args.write_pins)
    finally:
        remove_scratch(SCRATCH)
    outcome.info["cpu"] = cpu
    metrics = collect(spec, outcome, module, bool(args.trace))
    report(args.workload, outcome, metrics, bool(args.trace))
    if args.write_pins:
        if args.seed != PINNED_SEED or outcome.failed:
            print("pins are written from a clean seed-0 run only",
                  file=sys.stderr)
            return 2
        pins = json.loads(PINS.read_text()) if PINS.exists() else {}
        pins[args.workload] = outcome.pins
        PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    correct = outcome.failed == 0
    print(json.dumps({"correct": correct, "attempted": outcome.attempted,
                      "failed": outcome.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
