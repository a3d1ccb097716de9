"""``sweep``: the shipped fig16 PRF sweep (96 points) through one
in-process ``Campaign(jobs=1, engine="auto")``, cold and then warm.

Each cold pass starts from cleared process caches and an empty
``ResultCache``; warm passes then read every point back from that cache.
The batched list kernel, ``engine.memscript`` and cache writes carry the
cold pass; cache reads and ``stats_from_payload`` carry the warm ones.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import statistics
import time

from perfbench import ledger as ledger_mod
from perfbench.calib import Calibrator
from perfbench.common import (
    PINNED_SEED,
    SERVICE_ONLY,
    Metric,
    Outcome,
    clear_process_caches,
    import_code,
    load_pins,
    peak_rss_mb,
    percentile,
    remove_scratch,
    scratch_dir,
    sim_volume,
    stats_digest,
    time_setup,
)

SWEEP = "fig16"
# One cold pass (plus its warm passes) takes about this long on the
# reference host; --seconds buys that many cold passes.
PASS_SECONDS = 8.0
# Every other warm pass carries a gen2 collection, so warm_s is the mean
# over several passes, not a median that would sit between the two modes.
WARM_PASSES = 4
SETUP_REPEATS = 5
BYPASSED = SERVICE_ONLY


def sweep_points(seed: int):
    """The shipped sweep with the workload seed as every point's trace
    seed."""
    from repro.orchestrator.campaigns import build_sweep, sweep_spec

    return [dataclasses.replace(point, seed=seed)
            for point in build_sweep(sweep_spec(SWEEP))]


def _campaign_pass(points, cache, cal: Calibrator):
    """One Campaign over ``points``; returns (results, start, end, per-point
    arrival times).  Calibration slices run from the progress callback."""
    from repro.orchestrator import Campaign

    arrivals = [0.0] * len(points)

    def progress(_telemetry, result) -> None:
        arrivals[result.index] = time.perf_counter()
        cal.maybe()

    campaign = Campaign(cache=cache, jobs=1, engine="auto",
                        progress=progress)
    campaign.extend(points)
    start = time.perf_counter()
    results = campaign.run()
    end = time.perf_counter()
    return results, start, end, arrivals


def _passes(points, cold_passes: int, cal: Calibrator, outcome: Outcome,
            traced=None):
    """Cold passes, each followed by WARM_PASSES warm ones over its cache.
    Returns (cold timings, warm timings, cold digests, cold (cycles,
    instructions)).  With ``traced`` (a :class:`ledger_mod.installed`),
    the ledger is installed once the caches are cleared and the output
    checks run inside a ``check`` span."""
    from repro.orchestrator.cache import ResultCache

    check = (traced.ledger.span if traced is not None
             else lambda _name: contextlib.nullcontext())
    cold, warm = [], []
    digests: list[str] = []
    volume = (0.0, 0)
    for _ in range(cold_passes):
        clear_process_caches()
        cache_dir = scratch_dir("sweep-")
        try:
            cache = ResultCache(cache_dir)
            cal.tick()
            if traced is not None:
                traced.__enter__()
            results, start, end, arrivals = _campaign_pass(points, cache,
                                                           cal)
            cal.tick()
            cold.append((start, end, arrivals))
            with check("check"):
                digests, volume = _check_pass(outcome, results, None)
            for _ in range(WARM_PASSES):
                results, w_start, w_end, _ = _campaign_pass(points, cache,
                                                             cal)
                cal.tick()
                warm.append((w_start, w_end))
                with check("check"):
                    _check_pass(outcome, results, digests)
        finally:
            remove_scratch(cache_dir)
    return cold, warm, digests, volume


def _check_pass(outcome: Outcome, results, cold_digests):
    """Check one pass; ``cold_digests`` is None for a cold pass.  Returns
    the pass's digests and (cycles, instructions)."""
    digests = []
    cycles = instructions = 0
    for result in results:
        outcome.attempted += 1
        if not result.ok:
            outcome.fail(f"{result.point.name}: {result.error}")
            digests.append("")
            continue
        digest = stats_digest(result.stats)
        digests.append(digest)
        c, i = sim_volume(result.stats)
        cycles += c
        instructions += i
        if cold_digests is None:
            if result.cache_hit:
                outcome.fail(f"{result.point.name}: cache hit in a cold "
                             "pass")
        elif not result.cache_hit:
            outcome.fail(f"{result.point.name}: miss in a warm pass")
        elif digest != cold_digests[result.index]:
            outcome.fail(f"{result.point.name}: warm result differs from "
                         "the cold pass")
    return digests, (cycles, instructions)


def sweep_digest(digests: list[str]) -> str:
    return hashlib.sha256("\n".join(digests).encode()).hexdigest()[:20]


def _check_pins(outcome: Outcome, digests: list[str], pinned: bool) -> None:
    outcome.pins = {"digest": sweep_digest(digests)}
    if not pinned:
        return
    pinned = load_pins("sweep").get("digest")
    if pinned != sweep_digest(digests):
        outcome.fail(f"cold pass digest {sweep_digest(digests)} != pinned "
                     f"{pinned}")


def run(seed: int, seconds: float, trace: bool,
        check_pins: bool = True) -> Outcome:
    outcome = Outcome()
    cold_passes = max(1, round(seconds / PASS_SECONDS))
    if trace:
        cold_passes = 1
    outcome.info = {"sweep": SWEEP, "cold_passes": cold_passes,
                    "warm_passes_per_cold": WARM_PASSES, "jobs": 1,
                    "engine": "auto"}
    cal = Calibrator()
    if not trace:
        setup = time_setup(
            cal, import_code(
                "from repro.orchestrator.campaigns import build_sweep, "
                f"sweep_spec\nbuild_sweep(sweep_spec({SWEEP!r}))"),
            SETUP_REPEATS)
    points = sweep_points(seed)
    cold, warm, digests, volume = _passes(points, cold_passes, cal, outcome)
    _check_pins(outcome, digests, check_pins and seed == PINNED_SEED)

    walls = [cal.calibrate(s, e) for s, e, _ in cold]
    warms = [cal.calibrate(s, e) for s, e in warm]
    lat, raw_lat = [], []
    for start, _, arrivals in cold:
        for arrival in arrivals:
            raw, calibrated = cal.calibrate(start, arrival)
            raw_lat.append(raw)
            lat.append(calibrated)
    if not trace:
        outcome.metrics = {
            "setup_s": setup,
            "wall_s": Metric(statistics.median(c for _, c in walls), "s",
                             len(walls),
                             statistics.median(r for r, _ in walls)),
            "warm_s": Metric(statistics.fmean(c for _, c in warms), "s",
                             len(warms),
                             statistics.fmean(r for r, _ in warms)),
            "latency_p50_s": Metric(statistics.median(lat), "s", len(lat),
                                    statistics.median(raw_lat)),
            "latency_p90_s": Metric(percentile(lat, 90), "s", len(lat),
                                    percentile(raw_lat, 90)),
            "peak_rss_mb": Metric(peak_rss_mb(), "MB", 1),
        }
        return outcome

    # Traced run on the same seed: one more cold pass and its warm passes.
    ledger = ledger_mod.Ledger()
    traced_cal = Calibrator(on_slice=ledger.slice_span)
    patch = ledger_mod.installed(ledger)
    try:
        t_cold, t_warm, t_digests, _ = _passes(points, 1, traced_cal,
                                               outcome, traced=patch)
        wall = time.perf_counter() - patch.started
    finally:
        patch.__exit__(None, None, None)
    outcome.info["untraced_targets"] = patch.missing
    if t_digests != digests:
        outcome.fail("traced cold pass differs from the untraced one")
    untraced = (cold[0][1] - cold[0][0]) + sum(e - s for s, e in warm)
    traced = (t_cold[0][1] - t_cold[0][0]) + sum(e - s for s, e in t_warm)
    outcome.layers = ledger_mod.layer_metrics(ledger, wall)
    outcome.layers.update({
        "sim.cycles": volume[0],
        "sim.instructions": volume[1],
        "host.speed_factor": cal.speed_factor(),
        "host.raw_wall_s": walls[0][0],
        "trace.overhead_ratio": traced / untraced,
    })
    outcome.ledger_rows = ledger.rows(wall)
    outcome.ledger_wall = wall
    return outcome
