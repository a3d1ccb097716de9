"""``point``: one caller making single ``repro.simulate`` calls back to back.

Each block is every (app, scheme, core) combination once, in one fixed
order, each with a fresh trace seed drawn from the workload seed; the
block is then replayed with the same arguments (``warm``: its traces are
interned).  The first block only warms the process up.  Trace
generation, ``memory.prewarm`` and the scalar kernels do nearly all of
the work; the batched engine, the orchestrator and the service do none.
The order is fixed because the order decides where the garbage
collector's pauses land; the seed decides the traces.
"""

from __future__ import annotations

import contextlib
import random
import statistics
import time

from perfbench import ledger as ledger_mod
from perfbench.calib import Calibrator
from perfbench.common import (
    PINNED_SEED,
    SERVICE_ONLY,
    Metric,
    Outcome,
    import_code,
    load_pins,
    peak_rss_mb,
    percentile,
    sim_volume,
    stats_digest,
    time_setup,
)

APPS = ("mcf", "lbm", "libquantum", "rb", "pc", "water-ns", "lulesh",
        "xsbench")
KINDS = (("ppa", "ooo"), ("baseline", "ooo"), ("capri", "ooo"),
         ("eadr", "ooo"), ("ppa", "inorder"), ("baseline", "inorder"))
LENGTH = 2_000
# A block and its warm replay take about this long on the reference host;
# --seconds buys that many blocks.
BLOCK_SECONDS = 7.5
SETUP_REPEATS = 5
BYPASSED = SERVICE_ONLY


def blocks_for(seconds: float) -> int:
    return max(1, round(seconds / BLOCK_SECONDS))


def calls_for(seed: int, blocks: int) -> list[list[tuple]]:
    """Per block, the (app, scheme, core, trace seed) calls in order.  The
    first k blocks do not depend on how many blocks follow."""
    rng = random.Random(seed)
    combos = [(app, scheme, core) for app in APPS for scheme, core in KINDS]
    random.Random(0).shuffle(combos)
    return [[(app, scheme, core, rng.randrange(1, 2 ** 31))
             for app, scheme, core in combos] for _ in range(blocks)]


def call_key(call: tuple) -> str:
    return ":".join(str(part) for part in call)


def _warm_up(block) -> None:
    """Run one block untimed: it loads every lazy module, builds every
    prewarm template and fills the trace-interning cache, so the garbage
    collector sees a heap of steady size.  A user pays for that once per
    process, not per call; while the heap still grows, gen2 collections
    come several times as often and the first blocks read slower."""
    import repro

    for app, scheme, core, trace_seed in block:
        repro.simulate(app, scheme=scheme, core=core, length=LENGTH,
                       seed=trace_seed)


def _loop(blocks, cal: Calibrator, check=None):
    """Run every block fresh and then warm; returns per-call records
    ``(key, phase, start, end, digest, (cycles, instructions))``.  Stats
    are digested between calls and dropped, so the benchmark does not
    grow the heap the garbage collector has to walk."""
    import repro

    check = check or contextlib.nullcontext
    records = []
    for block in blocks:
        for phase in ("fresh", "warm"):
            for call in block:
                app, scheme, core, trace_seed = call
                cal.maybe()
                start = time.perf_counter()
                result = repro.simulate(app, scheme=scheme, core=core,
                                        length=LENGTH, seed=trace_seed)
                end = time.perf_counter()
                with check():
                    records.append((call_key(call), phase, start, end,
                                    stats_digest(result.stats),
                                    sim_volume(result.stats)))
                del result
    cal.tick()
    return records


def _digests(records) -> dict[tuple[str, str], str]:
    return {(key, phase): digest
            for key, phase, _, _, digest, _ in records}


def _check(outcome: Outcome, records, digests, pinned: bool) -> None:
    """Warm replays must equal their fresh runs; on the pinned seed, fresh
    runs must equal the pinned digests."""
    pins = load_pins("point") if pinned else {}
    if pinned and not pins:
        outcome.fail("no pinned digests for the pinned seed")
    checked = 0
    for key, phase, *_ in records:
        outcome.attempted += 1
        digest = digests[(key, phase)]
        if phase == "warm":
            if digest != digests[(key, "fresh")]:
                outcome.fail(f"warm replay of {key} differs from its "
                             "fresh run")
        elif key in pins:
            checked += 1
            if pins[key] != digest:
                outcome.fail(f"{key}: digest {digest} != pinned "
                             f"{pins[key]}")
        outcome.pins[key] = digests[(key, "fresh")]
    outcome.info["pinned_calls_checked"] = checked


def _fresh_caches() -> None:
    """Drop interned traces and memory scripts but keep the prewarm
    templates, so that after the warm-up block a second loop starts from
    the first loop's state."""
    import gc

    from repro.engine.memscript import clear_scripts
    from repro.workloads import interning

    interning.clear()
    clear_scripts()
    gc.collect()


def run(seed: int, seconds: float, trace: bool,
        check_pins: bool = True) -> Outcome:
    outcome = Outcome()
    count = blocks_for(seconds)
    if trace:
        count = max(1, count // 2)          # the loop runs twice when traced
    warm_up, *blocks = calls_for(seed, 1 + count)
    outcome.info = {"blocks": len(blocks), "calls_per_block": len(blocks[0]),
                    "length": LENGTH, "loop": "closed, 1 caller"}
    cal = Calibrator()
    if not trace:
        setup = time_setup(cal, import_code(), SETUP_REPEATS)
    _warm_up(warm_up)
    records = _loop(blocks, cal)
    digests = _digests(records)
    _check(outcome, records, digests, check_pins and seed == PINNED_SEED)

    fresh = [(s, e) for _, phase, s, e, *_ in records if phase == "fresh"]
    warm = [(s, e) for _, phase, s, e, *_ in records if phase == "warm"]
    raw = [e - s for s, e in fresh]
    lat = [(e - s) * cal.factor(s, e) for s, e in fresh]
    warm_lat = [(e - s) * cal.factor(s, e) for s, e in warm]
    # Latency percentiles cover every call the caller made, replays too.
    every = lat + warm_lat
    every_raw = raw + [e - s for s, e in warm]
    if not trace:
        outcome.metrics = {
            "setup_s": setup,
            "wall_s": Metric(sum(lat), "s", len(lat), sum(raw)),
            "warm_s": Metric(sum(warm_lat), "s", len(warm_lat),
                             sum(e - s for s, e in warm)),
            "latency_p50_s": Metric(statistics.median(every), "s",
                                    len(every), statistics.median(every_raw)),
            "latency_p90_s": Metric(percentile(every, 90), "s", len(every),
                                    percentile(every_raw, 90)),
            "peak_rss_mb": Metric(peak_rss_mb(), "MB", 1),
        }
        return outcome

    # Traced run on the same inputs, from the same process-cache state.
    untraced_wall = sum(e - s for _, _, s, e, *_ in records)
    _fresh_caches()
    _warm_up(warm_up)
    ledger = ledger_mod.Ledger()
    traced_cal = Calibrator(on_slice=ledger.slice_span)
    with ledger_mod.installed(ledger) as patch:
        traced = _loop(blocks, traced_cal,
                       check=lambda: ledger.span("check"))
        wall = time.perf_counter() - patch.started
    outcome.info["untraced_targets"] = patch.missing
    traced_digests = _digests(traced)
    for key_phase, digest in traced_digests.items():
        if digests.get(key_phase) != digest:
            outcome.fail(f"traced {key_phase} differs from untraced")
    traced_calls = sum(e - s for _, _, s, e, *_ in traced)
    cycles = sum(volume[0] for *_, volume in records)
    instructions = sum(volume[1] for *_, volume in records)
    outcome.layers = ledger_mod.layer_metrics(ledger, wall)
    outcome.layers.update({
        "sim.instructions": instructions,
        "sim.cycles": cycles,
        "host.speed_factor": cal.speed_factor(),
        "host.raw_wall_s": sum(raw),
        "trace.overhead_ratio": traced_calls / untraced_wall,
    })
    outcome.ledger_rows = ledger.rows(wall)
    outcome.ledger_wall = wall
    return outcome
