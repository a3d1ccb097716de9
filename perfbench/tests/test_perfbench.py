"""Tests of the benchmark itself.

Run from the root of a checkout::

    PYTHONPATH=src python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import dataclasses
import json
import pathlib
import statistics
import sys
import threading
import time

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import calib, point, run, service, sweep  # noqa: E402
from perfbench import ledger as ledger_mod  # noqa: E402
from perfbench.common import (  # noqa: E402
    Metric,
    Outcome,
    clear_process_caches,
    stats_digest,
)

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _small_sweep(seed: int):
    from repro.orchestrator.campaigns import build_sweep, sweep_spec

    return [dataclasses.replace(p, seed=seed)
            for p in build_sweep(sweep_spec("fig16", apps=["rb"],
                                            length=1000))]


@pytest.fixture
def small(monkeypatch):
    """Shrink every workload so one run takes seconds."""
    monkeypatch.setattr(point, "APPS", ("rb", "mcf"))
    monkeypatch.setattr(point, "SETUP_REPEATS", 2)
    monkeypatch.setattr(sweep, "sweep_points", _small_sweep)
    monkeypatch.setattr(sweep, "WARM_PASSES", 1)
    monkeypatch.setattr(sweep, "SETUP_REPEATS", 2)
    monkeypatch.setattr(service, "APPS", ("rb", "mcf"))
    monkeypatch.setattr(service, "SETUP_REPEATS", 1)


# -- a traced run's stats equal an untraced run's ----------------------------

def test_traced_point_calls_equal_untraced():
    calls = point.calls_for(5, 1)[0][:8]
    untraced = point._loop([calls], calib.Calibrator())
    point._fresh_caches()
    ledger = ledger_mod.Ledger()
    with ledger_mod.installed(ledger) as patch:
        traced = point._loop([calls], calib.Calibrator())
    assert patch.missing == []
    strip = [(key, phase, digest, volume)
             for key, phase, _, _, digest, volume in untraced]
    assert strip == [(key, phase, digest, volume)
                     for key, phase, _, _, digest, volume in traced]
    totals, calls_seen, _ = ledger.self_times()
    assert calls_seen["kernel.scalar"] == 16
    assert calls_seen["workloads.trace"] == 16
    assert totals["kernel.scalar"] > 0


def test_traced_campaign_equals_untraced_and_patches_are_undone():
    from repro.orchestrator import Campaign
    from repro.orchestrator import campaign as campaign_mod

    points = _small_sweep(3)
    original = campaign_mod.run_cohort_payloads

    def digests() -> list[str]:
        clear_process_caches()
        campaign = Campaign(jobs=1, engine="auto")
        campaign.extend(points)
        results = campaign.run()
        return [stats_digest(r.stats) for r in results]

    untraced = digests()
    ledger = ledger_mod.Ledger()
    with ledger_mod.installed(ledger):
        assert campaign_mod.run_cohort_payloads is not original
        traced = digests()
    assert campaign_mod.run_cohort_payloads is original
    assert traced == untraced
    assert ledger.counts["kernel.batched_lanes"] == len(points)
    assert ledger.counts["plan.cohorts"] == 2


# -- the calibration slice ----------------------------------------------------

def _median_slice(count: int = 9) -> float:
    return statistics.median(calib.run_slice() for _ in range(count))


def test_slice_cost_ignores_heap_and_busy_thread():
    calib.run_slice()
    quiet_before = _median_slice()
    heap = [[i] for i in range(1_000_000)]
    stop = threading.Event()
    spins = [0]

    def spin() -> None:
        x = 0
        while not stop.is_set():
            x = (x * 31 + 7) % 1_000_003
            spins[0] += 1

    busy = threading.Thread(target=spin)
    busy.start()
    try:
        loaded = _median_slice()
    finally:
        stop.set()
        busy.join(timeout=10)
    assert not busy.is_alive()
    assert spins[0] > 0
    quiet_after = _median_slice()
    del heap
    low = min(quiet_before, quiet_after)
    high = max(quiet_before, quiet_after)
    assert 0.75 * low <= loaded <= 1.25 * high


def test_calibrator_scales_by_nearby_slices():
    cal = calib.Calibrator()
    cal.slices = [(0.0, 0.01, 0.02), (1.0, 1.01, 0.01), (9.0, 9.01, 0.04),
                  (20.0, 20.01, 0.03)]
    # Slices within WINDOW_S of the interval count, and at least the
    # nearest one on each side.
    assert cal.factor(0.2, 0.8) == pytest.approx(
        calib.REF_SLICE_S / 0.015)
    assert cal.factor(12.0, 13.0) == pytest.approx(
        calib.REF_SLICE_S / 0.035)
    # The slice at 1.0 lies inside and is subtracted; 9.0 is the nearest
    # one after the interval.
    raw, calibrated = cal.calibrate(0.5, 1.5)
    assert raw == pytest.approx(1.0 - 0.01)
    assert calibrated == pytest.approx(raw * calib.REF_SLICE_S / 0.02)


# -- the ledger ---------------------------------------------------------------

def test_ledger_rows_sum_to_wall():
    import gc

    import repro

    ledger = ledger_mod.Ledger()
    with ledger_mod.installed(ledger) as patch:
        with ledger.span("outer"):
            repro.simulate("rb", scheme="baseline", length=500, seed=9)
            gc.collect()
            time.sleep(0.01)
        repro.simulate("rb", scheme="ppa", core="inorder", length=500,
                       seed=9)
        gc.collect()
        wall = time.perf_counter() - patch.started
    rows = ledger.rows(wall)
    names = [name for name, _, _ in rows]
    assert names[-2:] == ["gc", "unattributed"]
    assert {"kernel.scalar", "workloads.trace", "outer"} <= set(names)
    assert sum(seconds for _, seconds, _ in rows) == pytest.approx(
        wall, rel=1e-9)
    assert all(seconds >= 0 for _, seconds, _ in rows)
    assert dict((n, s) for n, s, _ in rows)["outer"] >= 0.009


# -- every metric printed matches BENCHMARK.json ------------------------------

@pytest.mark.parametrize("workload", ["point", "sweep", "service"])
@pytest.mark.parametrize("trace", [0, 1])
def test_printed_metrics_match_benchmark_json(small, capsys, workload,
                                              trace):
    code = run.main(["--workload", workload, "--seed", "7", "--seconds",
                     "2", "--trace", str(trace)])
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for metric in declared:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
    printed = "\n".join(lines[:-1])
    for metric in declared:
        assert f"{metric['name']} " in printed


def test_collect_rejects_missing_metrics():
    outcome = Outcome(metrics={"setup_s": Metric(1.0, "s", 1)})
    with pytest.raises(KeyError):
        run.collect(SPEC, outcome, point, trace=False)
    with pytest.raises(KeyError):
        run.collect(SPEC, Outcome(), sweep, trace=True)


def test_schedule_is_prefix_stable_and_balanced():
    short = service.schedule(4, 8)
    long = service.schedule(4, 32)
    assert long[:len(short)] == short
    kinds = [s.kind for s in long]
    assert kinds.count("fresh") == 96
    assert kinds.count("dup") == kinds.count("repeat") == 32
    fresh = {s.key for s in long if s.kind == "fresh"}
    assert all(s.key in fresh for s in long)
    dup_apps = [s.key[0] for s in long if s.kind == "dup"]
    assert all(dup_apps.count(app) == 4 for app in service.APPS)
    assert point.calls_for(4, 3)[:2] == point.calls_for(4, 2)
