"""Shared pieces of the three workloads: results, digests, percentiles,
process-cache hygiene and set-up timing."""

from __future__ import annotations

import gc
import hashlib
import json
import math
import os
import pathlib
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from dataclasses import dataclass, field
from typing import Any

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# Scratch space for caches, sockets and daemons; removed after each use.
SCRATCH = ROOT / ".perfbench_tmp"
PINS = pathlib.Path(__file__).resolve().parent / "pins.json"

# The workload seed whose results are pinned in pins.json.
PINNED_SEED = 0

# Per-layer metrics only the service workload produces; the in-process
# workloads report them as zero.
SERVICE_ONLY = ("service.submit_s", "service.queue_wait_p50_s",
                "service.queue_wait_p95_s", "service.dedup_hits",
                "service.cache_hits", "service.pool_rebuilds",
                "service.quota_deferred", "loadgen.late_max_s")

# The modules `repro.simulate` and `Campaign` import lazily on first use;
# a set-up child imports them so that set-up covers all of the loading.
LAZY_IMPORTS = (
    "repro.facade", "repro.pipeline.core", "repro.core.processor",
    "repro.inorder.core", "repro.inorder.processor",
    "repro.memory.prewarm", "repro.persistence.catalog",
    "repro.engine.plan", "repro.engine.batched",
    "repro.engine.inorder_lanes", "repro.orchestrator",
)


@dataclass
class Metric:
    """One measured figure: calibrated value, raw value, sample count."""

    value: float
    unit: str
    samples: int
    raw: float | None = None


@dataclass
class Outcome:
    """What one workload run produced."""

    metrics: dict[str, Metric] = field(default_factory=dict)
    layers: dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    ledger_rows: list[tuple[str, float, int]] = field(default_factory=list)
    ledger_wall: float = 0.0
    info: dict[str, Any] = field(default_factory=dict)
    # Result digests keyed by input, as pins.json stores them.
    pins: dict[str, Any] = field(default_factory=dict)

    def fail(self, message: str, count: int = 1) -> None:
        self.failed += count
        if len(self.errors) < 20:
            self.errors.append(message)


def child_env() -> dict[str, str]:
    """Environment for processes the benchmark starts: the checkout's
    sources first on the path, no inherited engine/trace/sanitize knobs,
    and the fixed string-hash seed the benchmark itself runs under."""
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_")}
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


def scratch_dir(prefix: str) -> pathlib.Path:
    SCRATCH.mkdir(exist_ok=True)
    return pathlib.Path(tempfile.mkdtemp(prefix=prefix, dir=SCRATCH))


def remove_scratch(path: pathlib.Path) -> None:
    shutil.rmtree(path, ignore_errors=True)
    try:
        SCRATCH.rmdir()                       # only when nothing else is left
    except OSError:
        pass


def payload_digest(stats_envelope: dict[str, Any]) -> str:
    """Digest of a stats envelope (``repro.statsbase.stats_to_dict``)."""
    text = json.dumps(stats_envelope, sort_keys=True, allow_nan=True)
    return hashlib.sha256(text.encode()).hexdigest()[:20]


def stats_digest(stats) -> str:
    from repro.statsbase import stats_to_dict

    return payload_digest(stats_to_dict(stats))


def sim_volume(stats) -> tuple[float, int]:
    from repro.statsbase import sim_volume as volume

    return volume(stats)


def percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def load_pins(workload: str) -> dict[str, Any]:
    try:
        return json.loads(PINS.read_text()).get(workload, {})
    except FileNotFoundError:
        return {}


def clear_process_caches() -> None:
    """Drop every process-level cache the program keeps, then collect."""
    from repro.engine.memscript import clear_scripts
    from repro.memory import prewarm
    from repro.workloads import interning

    interning.clear()
    clear_scripts()
    prewarm.clear()
    gc.collect()


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def time_setup(cal, code: str, repeats: int) -> Metric:
    """Median calibrated wall time of ``repeats`` fresh interpreters each
    running ``code``; a calibration slice runs between them."""
    import time

    raws, calibrated = [], []
    cal.tick()
    for _ in range(repeats):
        start = time.perf_counter()
        done = subprocess.run([sys.executable, "-c", code], env=child_env(),
                              cwd=ROOT, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, timeout=120)
        end = time.perf_counter()
        if done.returncode != 0:
            raise RuntimeError("set-up child failed: "
                               + done.stderr.decode(errors="replace")[-400:])
        cal.tick()
        raw = end - start
        raws.append(raw)
        calibrated.append(raw * cal.factor(start, end))
    return Metric(statistics.median(calibrated), "s", repeats,
                  statistics.median(raws))


def import_code(extra: str = "") -> str:
    lines = ["import repro"] + [f"import {name}" for name in LAZY_IMPORTS]
    if extra:
        lines.append(extra)
    return "\n".join(lines)
