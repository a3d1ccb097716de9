"""``service``: one-app fig16 columns sent open-loop to a ``repro.service``
daemon with one pool worker and a fresh cache.

Two tenants submit 12-point columns (two 6-lane cohorts each) at a fixed
rate that keeps the worker about half busy.  The seeded mix is fresh
columns, overlapping duplicates of a fresh column from the other tenant,
and repeats of a column that finished earlier (cache hits).  One thread
submits on schedule; a second follows every campaign on its NDJSON stream
in submission order, so at most two connections are open.  A campaign is
timed from its *due* time to the daemon's ``finished_at`` stamp, which is
taken as its final ``campaign`` event is recorded.  HTTP, scheduler
queueing, pool IPC and cache hits are a visible share of latency here and
nowhere else.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import queue
import random
import signal
import statistics
import subprocess
import sys
import threading
import time

from perfbench import ledger as ledger_mod
from perfbench.calib import Calibrator
from perfbench.common import (
    PINNED_SEED,
    ROOT,
    Metric,
    Outcome,
    child_env,
    load_pins,
    payload_digest,
    percentile,
    remove_scratch,
    scratch_dir,
)

APPS = ("mcf", "lbm", "libquantum", "rb", "pc", "water-ns", "lulesh",
        "xsbench")
TENANTS = ("alice", "bob")
LENGTH = 1_000
WORKERS = 1
# Campaigns per second, nominal.  A fresh or duplicate column costs the
# worker about 0.12 s on the reference host; at 8 of every 10 campaigns
# that keeps the worker about half busy.
RATE = 5.0
# One round is 10 campaigns in 8 submission slots: 4 fresh, 2 fresh each
# followed at once by the other tenant's duplicate, and 2 repeats.  The
# order is fixed, so every seed loads the queue in the same pattern; the
# seed picks the columns.
ROUND_SLOTS = ("fresh", "fresh+dup", "fresh", "repeat",
               "fresh", "fresh+dup", "fresh", "repeat")
ROUND_CAMPAIGNS = 10
# Rounds per block: a block gives every app the same slots (see schedule).
BLOCK_ROUNDS = 4
# A repeat names a column that was due at least this long before it.
REPEAT_AGE_S = 1.5
SETUP_REPEATS = 3
READY_TIMEOUT_S = 60.0
DRAIN_TIMEOUT_S = 90.0


@dataclasses.dataclass
class Submission:
    offset: float          # due time, seconds after the schedule starts
    tenant: str
    kind: str              # fresh | dup | repeat
    key: tuple[str, int]   # (app, trace seed)


def schedule(seed: int, seconds: float) -> list[Submission]:
    """The seeded open-loop schedule.  Every block of BLOCK_ROUNDS rounds
    gives each app one duplicated fresh slot and two plain ones, in a
    seeded order, so seeds differ in which columns run where but not in
    how much work each kind of slot carries.  The first k blocks do not
    depend on how many blocks follow."""
    rng = random.Random(seed)
    blocks = max(1, round(seconds * RATE
                          / (ROUND_CAMPAIGNS * BLOCK_ROUNDS)))
    slot = ROUND_CAMPAIGNS / RATE / len(ROUND_SLOTS)
    out: list[Submission] = []
    fresh: list[Submission] = []
    for block in range(blocks):
        apps = {}
        for kind in ("fresh", "fresh+dup"):
            slots = BLOCK_ROUNDS * ROUND_SLOTS.count(kind)
            apps[kind] = [APPS[i % len(APPS)] for i in range(slots)]
            rng.shuffle(apps[kind])
        for index in range(block * BLOCK_ROUNDS, (block + 1) * BLOCK_ROUNDS):
            for position, kind in enumerate(ROUND_SLOTS):
                offset = (index * len(ROUND_SLOTS) + position) * slot
                if kind == "repeat":
                    old = [s for s in fresh
                           if s.offset <= offset - REPEAT_AGE_S]
                    source = rng.choice(old) if old else fresh[0]
                    # From the tenant that did not send the last column, so
                    # the hit does not queue behind that tenant's own work
                    # (the per-tenant quota is one worker).
                    tenant = TENANTS[1 - TENANTS.index(fresh[-1].tenant)]
                    out.append(Submission(offset, tenant, "repeat",
                                          source.key))
                    continue
                key = (apps[kind].pop(), rng.randrange(1, 2 ** 31))
                tenant = TENANTS[len(fresh) % 2]
                sub = Submission(offset, tenant, "fresh", key)
                fresh.append(sub)
                out.append(sub)
                if kind == "fresh+dup":
                    other = TENANTS[1 - TENANTS.index(tenant)]
                    out.append(Submission(offset, other, "dup", key))
    return out


def column_points(key: tuple[str, int]) -> list[dict]:
    """The wire form of one app's fig16 column with the given trace
    seed."""
    from repro.orchestrator.campaigns import build_sweep, sweep_spec
    from repro.orchestrator.serialize import point_to_dict

    app, trace_seed = key
    return [point_to_dict(dataclasses.replace(point, seed=trace_seed))
            for point in build_sweep(sweep_spec("fig16", apps=[app],
                                                length=LENGTH))]


def _descendants(pid: int) -> list[int]:
    parents: dict[int, int] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        parents[int(entry)] = int(fields[1])
    found, frontier = [], [pid]
    while frontier:
        parent = frontier.pop()
        children = [p for p, pp in parents.items() if pp == parent]
        found.extend(children)
        frontier.extend(children)
    return found


def _hwm_mb(pid: int) -> float:
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


class Daemon:
    """One ``repro.service`` daemon in its own process, on a socket and a
    cache in a scratch directory of the checkout."""

    def __init__(self) -> None:
        self.dir = scratch_dir("svc-")
        self.socket = os.path.relpath(self.dir / "s.sock", ROOT)
        self.proc: subprocess.Popen | None = None
        self.client = None

    def start(self) -> float:
        """Spawn the daemon; returns seconds until ``/healthz`` answers and
        a first point has run on the pool worker."""
        from repro.orchestrator.points import make_point
        from repro.orchestrator.serialize import point_to_dict
        from repro.service.client import ServiceClient

        start = time.perf_counter()
        self._log = open(self.dir / "daemon.log", "wb")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.service", "serve", "--socket",
             self.socket, "--workers", str(WORKERS), "--cache-dir",
             str(self.dir / "cache"), "--heartbeat", "0"],
            cwd=ROOT, env=child_env(), stdout=subprocess.DEVNULL,
            stderr=self._log)
        self.client = ServiceClient(
            socket_path=os.path.relpath(ROOT / self.socket), timeout=60.0)
        deadline = start + READY_TIMEOUT_S
        while True:
            try:
                self.client.healthz()
                break
            except OSError:
                if self.proc.poll() is not None or \
                        time.perf_counter() > deadline:
                    raise RuntimeError("service daemon did not come up: "
                                       + self.log_tail())
                time.sleep(0.005)
        ready = make_point("rb", "baseline", core="inorder", length=200,
                           warmup=0)
        self._wait(self.client.submit("setup",
                                      points=[point_to_dict(ready)]))
        return time.perf_counter() - start

    def warm_templates(self) -> None:
        """Build every app's prewarm template in the worker (untimed): a
        long-running daemon has them, and the first column per app would
        otherwise pay for one."""
        from repro.orchestrator.campaigns import build_sweep, sweep_spec
        from repro.orchestrator.serialize import point_to_dict

        points = [point_to_dict(build_sweep(sweep_spec(
            "fig16", apps=[app], length=200))[0]) for app in APPS]
        self._wait(self.client.submit("setup", points=points))

    def _wait(self, job: dict) -> None:
        for event in self.client.events(job["id"]):
            if event.get("type") == "campaign":
                if event.get("state") != "done":
                    raise RuntimeError(f"set-up campaign {event}")
                return
        raise RuntimeError("set-up campaign stream ended early")

    def peak_rss_mb(self) -> float:
        """Peak RSS of the daemon plus its pool worker(s): the processes
        the forkserver started."""
        pids = [self.proc.pid]
        for child in _descendants(self.proc.pid):
            if _descendants(child):
                pids.extend(_descendants(child))   # forkserver -> workers
        return sum(_hwm_mb(pid) for pid in pids)

    def log_tail(self) -> str:
        try:
            return (self.dir / "daemon.log").read_bytes()[-600:].decode(
                errors="replace")
        except OSError:
            return ""

    def stop(self) -> None:
        """Shut the daemon down and wait until it and every process it
        started have exited."""
        if self.proc is None:
            return
        family = _descendants(self.proc.pid)
        try:
            self.client.shutdown()
        except Exception:  # noqa: BLE001 — fall back to signals below
            pass
        try:
            self.proc.wait(timeout=20)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait(timeout=20)
        deadline = time.monotonic() + 20
        for pid in family:
            while os.path.exists(f"/proc/{pid}") and \
                    time.monotonic() < deadline:
                time.sleep(0.02)
            if os.path.exists(f"/proc/{pid}"):
                try:
                    os.kill(pid, signal.SIGKILL)
                except OSError:
                    pass
        self._log.close()
        remove_scratch(self.dir)
        self.proc = None


@dataclasses.dataclass
class Record:
    sub: Submission
    due: float             # wall clock (time.time())
    sent: float = 0.0
    job: str = ""
    finished: float = 0.0
    digests: list[str] = dataclasses.field(default_factory=list)
    volume: tuple[float, int] = (0.0, 0)
    error: str | None = None


def _follow(client, work: queue.Queue) -> None:
    """Follower thread: each campaign's event stream to its final event,
    then its results with stats; the campaign is dropped afterwards."""
    while True:
        record = work.get()
        if record is None:
            return
        try:
            _follow_one(client, record)
        except Exception as exc:  # noqa: BLE001 — counted as a failure
            record.error = repr(exc)


def _follow_one(client, record: Record) -> None:
    final = None
    for event in client.events(record.job):
        if event.get("type") == "campaign":
            final = event
            break
    if final is None or final.get("state") != "done":
        raise RuntimeError(f"campaign ended as {final}")
    results = client.results(record.job, include_stats=True)
    record.finished = results["campaign"]["finished_at"]
    payloads = results["payloads"]
    record.digests = [payload_digest(payloads[str(i)]["stats"])
                      for i in range(len(payloads))]
    record.volume = (sum(p.get("cycles", 0.0) for p in payloads.values()),
                     sum(p.get("instructions", 0)
                         for p in payloads.values()))
    client.drop(record.job)


def _generate(daemon: Daemon, subs, bodies, cal: Calibrator,
              ledger=None):
    """Submit ``subs`` on schedule from this thread while a follower thread
    tracks them.  Returns (records, wall-clock start, perf_counter offset,
    max lateness, follower thread)."""
    from repro.service.client import ServiceClient

    follower_client = ServiceClient(socket_path=daemon.client.socket_path,
                                    timeout=60.0)
    work: queue.Queue = queue.Queue()
    follower = threading.Thread(target=_follow, name="follower",
                                args=(follower_client, work),
                                daemon=True)
    follower.start()
    records = []
    late_max = 0.0
    idle = ledger.span if ledger is not None else None
    cal.tick()
    start = time.time() + 0.1
    try:
        for sub in subs:
            due = start + sub.offset
            if idle is not None:
                with idle("idle"):
                    _wait_until(due, cal)
            else:
                _wait_until(due, cal)
            record = Record(sub=sub, due=due)
            record.sent = time.time()
            late_max = max(late_max, record.sent - due)
            try:
                if ledger is not None:
                    with ledger.span("service.submit"):
                        job = daemon.client.submit(sub.tenant,
                                                   points=bodies[sub.key])
                else:
                    job = daemon.client.submit(sub.tenant,
                                               points=bodies[sub.key])
                record.job = job["id"]
                work.put(record)
            except Exception as exc:  # noqa: BLE001 — a refused submission
                record.error = repr(exc)
            records.append(record)
    finally:
        work.put(None)
        drain_until = time.monotonic() + DRAIN_TIMEOUT_S
        while follower.is_alive() and time.monotonic() < drain_until:
            if idle is not None:
                with idle("idle"):
                    _wait_until(time.time() + 0.25, cal)
            else:
                _wait_until(time.time() + 0.25, cal)
        cal.tick()
    if follower.is_alive():
        for record in records:
            if not record.finished and record.error is None:
                record.error = "not finished before the drain timeout"
    offset = time.perf_counter() - time.time()
    return records, start, offset, late_max, follower


def _wait_until(due: float, cal: Calibrator) -> None:
    """Idle until ``due``, running calibration slices in the gap."""
    while True:
        remaining = due - time.time()
        if remaining <= 0:
            return
        if remaining > 0.03 and cal.maybe():
            continue
        time.sleep(min(remaining, 0.05))


def column_digest(digests: list[str]) -> str:
    return hashlib.sha256("\n".join(digests).encode()).hexdigest()[:20]


def _check(outcome: Outcome, records, pinned: bool) -> dict:
    """Every campaign must finish without failures; duplicates and repeats
    must equal their fresh column; on the pinned seed, fresh columns must
    equal the pins.  Returns the fresh digests by key."""
    pins = load_pins("service") if pinned else {}
    if pinned and not pins:
        outcome.fail("no pinned digests for the pinned seed")
    fresh: dict[str, str] = {}
    checked = 0
    for record in records:
        outcome.attempted += 1
        name = f"{record.sub.key[0]}:{record.sub.key[1]}"
        if record.error is not None:
            outcome.fail(f"{record.sub.kind} {name}: {record.error}")
            continue
        digest = column_digest(record.digests)
        if record.sub.kind == "fresh":
            fresh[name] = digest
            if name in pins:
                checked += 1
                if pins[name] != digest:
                    outcome.fail(f"fresh {name} differs from its pin")
        elif digest != fresh.get(name):
            outcome.fail(f"{record.sub.kind} {name} differs from the "
                         "fresh column")
    outcome.info["pinned_columns_checked"] = checked
    return fresh


def _scrape(daemon: Daemon):
    from repro.observe.prometheus import parse_prometheus

    return parse_prometheus(daemon.client.metrics())


def _counter(parsed, name: str) -> float:
    return sum(value for _, value in parsed.series(name))


def _server_layers(before, after) -> dict[str, float]:
    """Per-layer numbers from the daemon's ``/metrics``: counters as the
    difference over the run, percentiles as the daemon reports them."""
    def delta(name: str) -> float:
        return _counter(after, name) - _counter(before, name)

    def gauge(name: str) -> float:
        return _counter(after, name)

    hits, misses = delta("repro_cache_hits"), delta("repro_cache_misses")
    return {
        "service.queue_wait_p50_s": gauge(
            "repro_service_queue_wait_seconds_p50"),
        "service.queue_wait_p95_s": gauge(
            "repro_service_queue_wait_seconds_p95"),
        "service.dedup_hits": delta("repro_service_single_flight_dedup"),
        "service.cache_hits": delta("repro_tenant_cache_hits"),
        "service.pool_rebuilds": delta("repro_service_pool_resets"),
        "service.quota_deferred": delta("repro_tenant_quota_deferred"),
        "cache.hits": hits,
        "cache.misses": misses,
        "cache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "plan.cohorts": delta("repro_service_cohorts"),
        "plan.batched_points": delta("repro_service_cohort_width_sum"),
        "plan.scalar_points": delta("repro_service_scalar_reason"),
        "kernel.batched_lanes": delta("repro_service_lanes_batched"),
        "kernel.divergences": delta("repro_service_lane_divergences"),
        "kernel.scalar_calls": delta("repro_service_lanes_scalar"),
        "_sim_seconds": delta("repro_service_sim_seconds_sum"),
    }


def _measure(subs, cal: Calibrator, setup_repeats: int, ledger=None):
    """Set the daemon up (``setup_repeats`` times, keeping the last one),
    run the schedule against it and stop it."""
    setups, raw_setups = [], []
    bodies = {sub.key: column_points(sub.key) for sub in subs}
    daemon = None
    try:
        for index in range(setup_repeats):
            cal.tick()
            daemon = Daemon()
            start = time.perf_counter()
            seconds = daemon.start()
            cal.tick()
            raw_setups.append(seconds)
            setups.append(seconds * cal.factor(start, start + seconds))
            if index < setup_repeats - 1:
                daemon.stop()
        daemon.warm_templates()
        before = _scrape(daemon)
        patch = ledger_mod.installed(ledger) if ledger is not None else None
        if patch is not None:
            patch.__enter__()
        try:
            records, start, offset, late_max, follower = _generate(
                daemon, subs, bodies, cal, ledger)
            end = time.perf_counter()
        finally:
            if patch is not None:
                patch.__exit__(None, None, None)
        after = _scrape(daemon)
        rss = daemon.peak_rss_mb()
    finally:
        if daemon is not None:
            daemon.stop()
    follower.join(timeout=30)
    if follower.is_alive():
        raise RuntimeError("follower thread did not stop")
    timing = {"start": start, "offset": offset, "late_max": late_max,
              "rss": rss, "setups": setups, "raw_setups": raw_setups,
              "end": end, "patch": patch}
    return records, timing, _server_layers(before, after)


def run(seed: int, seconds: float, trace: bool,
        check_pins: bool = True) -> Outcome:
    outcome = Outcome()
    # A traced run drives the daemon twice, untraced and traced.
    subs = schedule(seed, seconds / 2 if trace else seconds)
    kinds = {kind: sum(s.kind == kind for s in subs)
             for kind in ("fresh", "dup", "repeat")}
    outcome.info = {"loop": "open", "rate_per_s": RATE,
                    "campaigns": len(subs), "mix": kinds,
                    "tenants": list(TENANTS), "workers": WORKERS,
                    "points_per_campaign": 12, "length": LENGTH}
    cal = Calibrator()
    records, timing, server = _measure(subs, cal,
                                       1 if trace else SETUP_REPEATS)
    pinned = check_pins and seed == PINNED_SEED
    fresh = _check(outcome, records, pinned)
    outcome.pins = fresh
    offset = timing["offset"]
    done = [r for r in records if r.error is None]
    lat, raw = [], []
    for record in done:
        latency = record.finished - record.due
        raw.append(latency)
        lat.append(latency * cal.factor(record.due + offset,
                                        record.finished + offset))
    # The schedule's own span is an input, not host time: only the tail
    # after the last due time is calibrated.
    first_due = timing["start"]
    last_due = max(r.due for r in records)
    last = max((r.finished for r in done), default=last_due)
    tail = max(0.0, last - last_due)
    wall_raw = last - first_due
    wall = (last_due - first_due) + tail * cal.factor(last_due + offset,
                                                      last + offset)
    outcome.info["late_max_s"] = round(timing["late_max"], 4)
    outcome.info["worker_busy"] = round(
        server.pop("_sim_seconds") / wall_raw, 3)
    if not trace:
        warm = [c for c, r in zip(lat, done) if r.sub.kind == "repeat"]
        warm_raw = [c for c, r in zip(raw, done) if r.sub.kind == "repeat"]
        outcome.metrics = {
            "setup_s": Metric(statistics.median(timing["setups"]), "s",
                              len(timing["setups"]),
                              statistics.median(timing["raw_setups"])),
            "wall_s": Metric(wall, "s", 1, wall_raw),
            "warm_s": Metric(statistics.median(warm), "s", len(warm),
                             statistics.median(warm_raw)),
            "latency_p50_s": Metric(statistics.median(lat), "s", len(lat),
                                    statistics.median(raw)),
            "latency_p90_s": Metric(percentile(lat, 90), "s", len(lat),
                                    percentile(raw, 90)),
            "peak_rss_mb": Metric(timing["rss"], "MB", 1),
        }
        return outcome

    # Traced run on the same seed against a second, fresh daemon.
    ledger = ledger_mod.Ledger()
    traced_cal = Calibrator(on_slice=ledger.slice_span)
    t_records, t_timing, t_server = _measure(subs, traced_cal, 1, ledger)
    t_fresh = _check(Outcome(), t_records, pinned)
    if t_fresh != fresh:
        outcome.fail("traced run's columns differ from the untraced run's")
    t_done = [r for r in t_records if r.error is None]
    t_last = max((r.finished for r in t_done), default=t_timing["start"])
    wall_traced = t_timing["end"] - t_timing["patch"].started
    outcome.layers = ledger_mod.layer_metrics(ledger, wall_traced)
    t_server.pop("_sim_seconds")
    outcome.layers.update(t_server)
    submits = ledger.self_times()[0].get("service.submit", 0.0)
    outcome.layers.update({
        "service.submit_s": submits,
        "sim.cycles": sum(r.volume[0] for r in t_done),
        "sim.instructions": sum(r.volume[1] for r in t_done),
        "host.speed_factor": cal.speed_factor(),
        "host.raw_wall_s": wall_raw,
        "loadgen.late_max_s": t_timing["late_max"],
        "trace.overhead_ratio": (t_last - t_timing["start"]) / wall_raw,
    })
    outcome.ledger_rows = ledger.rows(wall_traced)
    outcome.ledger_wall = wall_traced
    return outcome
