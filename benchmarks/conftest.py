"""Benchmark-suite configuration.

Unlike the unit tests, benchmarks share results across files: most
figures reuse the same baseline/PPA runs, and the whole suite would
otherwise re-simulate them dozens of times. The suite points the
experiments' campaigns at a repo-local copy of the orchestrator's on-disk
result cache, so later figures and repeat runs of the benchmarks resolve
shared points from disk (set ``REPRO_NO_DISK_CACHE=1`` to opt out, e.g.
when timing the simulator itself). The cache is salted with a hash of the
``repro`` sources, so editing the simulator invalidates it automatically.
"""

from __future__ import annotations

import os
import pathlib

import pytest

from repro.experiments.runner import configure_disk_cache, disk_cache

RESULTS_DIR = pathlib.Path(__file__).parent / "results"
SIMCACHE_DIR = RESULTS_DIR / ".simcache"


@pytest.fixture(scope="session", autouse=True)
def _disk_result_cache():
    """Point the runner's disk cache at a repo-local directory for the
    whole session."""
    if os.environ.get("REPRO_NO_DISK_CACHE"):
        configure_disk_cache(None)
        yield
        return
    RESULTS_DIR.mkdir(exist_ok=True)
    configure_disk_cache(SIMCACHE_DIR)
    yield
    counters = disk_cache().counters
    print(f"\n[simcache] L2 {counters.hits} hit / "
          f"{counters.misses} miss at {SIMCACHE_DIR}")
    configure_disk_cache(None)


@pytest.fixture(scope="session")
def results_dir() -> pathlib.Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


@pytest.fixture
def record_result(results_dir):
    """Persist an ExperimentResult so EXPERIMENTS.md can cite it."""
    def _record(result):
        path = results_dir / f"{result.experiment_id}.txt"
        path.write_text(result.to_text() + "\n")
        return result
    return _record
