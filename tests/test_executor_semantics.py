"""One table of executor rules, run against both front ends.

``Campaign`` (synchronous) and ``FleetScheduler`` (asyncio, driven here
directly, without HTTP) share the pool executor core
(:mod:`repro.orchestrator.pool`), so every row must hold on both. The
worker entry is swapped for a fake at the core's one seam,
``pool.run_cohort_payloads``; a point's label
ends in the behaviour its fake acts out before running the real worker:

* ``ok`` — nothing;
* ``raise`` — raise, alone or in a cohort;
* ``sleep=S`` — sleep S seconds;
* ``slowcohort`` — wedge for a minute inside a cohort, run fine alone;
* ``exit`` — kill the worker process (``os._exit``);
* ``exit-once=PATH`` — kill the worker the first time (PATH marks it).
"""

from __future__ import annotations

import asyncio
import os
import time
from dataclasses import dataclass, field
from typing import Callable

import pytest

from repro.config import skylake_default
from repro.orchestrator.campaign import Campaign
from repro.orchestrator.execute import run_cohort_payloads
from repro.orchestrator.points import make_point
from repro.service.scheduler import FleetScheduler

LENGTH = 300
PRF_SIZES = ((180, 168), (120, 112), (256, 238), (90, 90))


# -- the fake worker (module level: pool workers unpickle it by name) -------

def _act(point, in_cohort: bool) -> None:
    behaviour = point.label.rsplit(":", 1)[1]
    if behaviour == "raise":
        raise RuntimeError(f"injected failure in {point.label}")
    if behaviour.startswith("sleep="):
        time.sleep(float(behaviour.split("=", 1)[1]))
    elif behaviour == "slowcohort" and in_cohort:
        time.sleep(60.0)
    elif behaviour == "exit":
        os._exit(3)
    elif behaviour.startswith("exit-once="):
        marker = behaviour.split("=", 1)[1]
        if not os.path.exists(marker):
            open(marker, "w").close()
            os._exit(3)


def _fake_unit(points, *args):
    for point in points:
        _act(point, in_cohort=len(points) > 1)
    return run_cohort_payloads(points, *args)


@pytest.fixture(autouse=True)
def _fake_worker(monkeypatch, untraced_unsanitized):
    """The fake worker, with tracing and the sanitizer off: either one
    rightly plans every point scalar, and the cohort rows need cohorts."""
    import repro.orchestrator.pool as pool_module

    monkeypatch.setattr(pool_module, "run_cohort_payloads", _fake_unit)


# -- points -------------------------------------------------------------------

def _point(behaviour: str, seed: int = 0, app: str = "rb"):
    """A scalar singleton (distinct seeds keep digests apart)."""
    return make_point(app, "baseline", core="inorder", length=LENGTH,
                      warmup=0, seed=seed,
                      label=f"{app}/{seed}:{behaviour}")


def _lanes(*behaviours: str):
    """One lockstep cohort: fig16-style PRF variants of one trace."""
    base = skylake_default()
    return [make_point("rb", "ppa", config=base.with_prf(*PRF_SIZES[i]),
                       length=LENGTH, warmup=0,
                       label=f"prf{i}:{behaviour}")
            for i, behaviour in enumerate(behaviours)]


# -- the two front ends -------------------------------------------------------

@dataclass
class Row:
    """A scenario: (tenant, point) pairs in submission order plus the
    executor settings; a Campaign runs every point in one campaign."""

    points: list
    workers: int = 1
    timeout: float | None = None
    retries: int = 0
    engine: str = "scalar"


@dataclass
class Seen:
    """What a front end reported, in the row's point order."""

    ok: list[bool]
    attempts: list[int]
    errors: list[str | None]
    counters: dict[str, float] = field(default_factory=dict)


def _run_campaign(row: Row) -> Seen:
    campaign = Campaign(cache=None, jobs=row.workers, timeout=row.timeout,
                        retries=row.retries, engine=row.engine,
                        sanitize=False)
    campaign.extend(point for _, point in row.points)
    results = campaign.run()
    telemetry = campaign.telemetry
    return Seen([r.ok for r in results], [r.attempts for r in results],
                [r.error for r in results],
                {"timeouts": telemetry.timeouts,
                 "retries": telemetry.retries,
                 "cohorts": telemetry.cohorts})


async def _warm(scheduler: FleetScheduler) -> None:
    """Boot the fleet before the row's deadlines apply: worker start-up
    is not the row's subject."""
    timeout, scheduler.executor.timeout = scheduler.executor.timeout, None
    job = await scheduler.submit("warmup", [_point("ok", seed=999)])
    await asyncio.wait_for(job.finished.wait(), 60)
    scheduler.executor.timeout = timeout


async def _drive_scheduler(row: Row) -> Seen:
    scheduler = FleetScheduler(cache=None, workers=row.workers,
                               timeout=row.timeout, retries=row.retries,
                               engine=row.engine, sanitize=False,
                               heartbeat=0)
    await scheduler.start()
    try:
        await _warm(scheduler)
        by_tenant: dict[str, list[int]] = {}
        for position, (tenant, _) in enumerate(row.points):
            by_tenant.setdefault(tenant, []).append(position)
        jobs = {tenant: await scheduler.submit(
                    tenant, [row.points[i][1] for i in positions])
                for tenant, positions in by_tenant.items()}
        await asyncio.wait_for(asyncio.gather(
            *(job.finished.wait() for job in jobs.values())), 120)
    finally:
        await scheduler.close()
    outcomes = [None] * len(row.points)
    for tenant, positions in by_tenant.items():
        for local, position in enumerate(positions):
            outcomes[position] = jobs[tenant].outcomes[local]
    metrics = scheduler.metrics.to_dict()

    def total(suffix: str) -> float:
        return sum(metrics.get(f"tenant.{tenant}.{suffix}",
                               {}).get("value", 0) for tenant in by_tenant)

    return Seen([o["ok"] for o in outcomes],
                [o["attempts"] for o in outcomes],
                [o["error"] for o in outcomes],
                {"timeouts": total("timeouts"),
                 "retries": total("retries"),
                 "cohorts": metrics.get("service.cohorts",
                                        {}).get("value", 0)})


def _run_scheduler(row: Row) -> Seen:
    return asyncio.run(_drive_scheduler(row))


FRONT_ENDS = {"campaign": _run_campaign, "scheduler": _run_scheduler}


# -- the table ------------------------------------------------------------------

def _worker_raises(tmp_path) -> tuple[Row, Callable]:
    row = Row([("alice", _point("raise", seed=1)),
               ("alice", _point("ok", seed=2))], retries=2)

    def check(seen: Seen) -> None:
        assert seen.ok == [False, True]
        assert seen.attempts == [3, 1]          # retries + 1, then 1
        assert "injected failure" in seen.errors[0]
        assert seen.counters["retries"] == 2
    return row, check


def _wedged_point(tmp_path) -> tuple[Row, Callable]:
    row = Row([("alice", _point("sleep=60", seed=1)),
               ("alice", _point("ok", seed=2))], timeout=2.0)

    def check(seen: Seen) -> None:
        assert seen.ok == [False, True], "the slot never came back"
        assert "deadline exceeded" in seen.errors[0]
        assert seen.counters["timeouts"] == 1
    return row, check


def _queued_budget(tmp_path) -> tuple[Row, Callable]:
    # One worker, two tenants, 0.6 s points under a 1.0 s deadline: a
    # deadline that started while a point still queued would expire.
    row = Row([(tenant, _point("sleep=0.6", seed=seed))
               for seed, tenant in enumerate(("alice", "bob") * 2)],
              timeout=1.0)

    def check(seen: Seen) -> None:
        assert seen.ok == [True] * 4, seen.errors
        assert seen.attempts == [1] * 4
        assert seen.counters["timeouts"] == 0
    return row, check


def _worker_dies(tmp_path) -> tuple[Row, Callable]:
    marker = tmp_path / "died"
    row = Row([("alice", _point(f"exit-once={marker}", seed=1)),
               ("alice", _point("sleep=1.0", seed=2))], workers=2)

    def check(seen: Seen) -> None:
        assert marker.exists()
        assert seen.ok == [True, True], seen.errors
        assert seen.attempts == [1, 1]          # bounced, never charged
    return row, check


def _kept_dying(tmp_path) -> tuple[Row, Callable]:
    row = Row([("alice", _point("exit", seed=1))], workers=2)

    def check(seen: Seen) -> None:
        assert seen.ok == [False]
        assert "kept dying" in seen.errors[0]
        assert seen.attempts == [1]
    return row, check


def _cohort_bad_lane(tmp_path) -> tuple[Row, Callable]:
    row = Row([("alice", point) for point in _lanes("ok", "raise", "ok")],
              retries=1, engine="auto")

    def check(seen: Seen) -> None:
        assert seen.counters["cohorts"] == 1
        assert seen.ok == [True, False, True]
        assert seen.attempts == [1, 2, 1]
        assert "injected failure" in seen.errors[1]
        assert seen.counters["retries"] == 1
    return row, check


def _cohort_deadline(tmp_path) -> tuple[Row, Callable]:
    row = Row([("alice", point) for point in _lanes(*["slowcohort"] * 3)],
              timeout=1.5, engine="auto")

    def check(seen: Seen) -> None:
        assert seen.counters["cohorts"] == 1
        assert seen.ok == [True] * 3, seen.errors
        assert seen.attempts == [1] * 3         # the split is not charged
        assert seen.counters["timeouts"] == 1
    return row, check


ROWS = {
    "worker-raises": _worker_raises,
    "wedged-point": _wedged_point,
    "queued-points-own-budget": _queued_budget,
    "worker-dies-bounces-uncharged": _worker_dies,
    "kept-dying": _kept_dying,
    "cohort-bad-lane-splits": _cohort_bad_lane,
    "cohort-deadline-splits": _cohort_deadline,
}


@pytest.mark.parametrize("front_end", sorted(FRONT_ENDS))
@pytest.mark.parametrize("rule", list(ROWS))
def test_rule(rule, front_end, tmp_path):
    row, check = ROWS[rule](tmp_path)
    start = time.perf_counter()
    check(FRONT_ENDS[front_end](row))
    assert time.perf_counter() - start < 60.0


def test_cohort_follower_finishes_when_its_leader_splits():
    """Scheduler only: a lane joined to a cohort's flight resolves with
    that lane's final outcome — even when the cohort blows its deadline
    and splits."""

    async def scenario():
        scheduler = FleetScheduler(cache=None, workers=1, timeout=0.05,
                                   retries=0, engine="auto",
                                   sanitize=False, heartbeat=0)
        await scheduler.start()
        try:
            lanes = _lanes(*["slowcohort"] * 4)
            alice = await scheduler.submit("alice", lanes)
            bob = await scheduler.submit("bob", [lanes[2]])
            await asyncio.wait_for(asyncio.gather(
                alice.finished.wait(), bob.finished.wait()), 60)
            return alice, bob, scheduler.metrics.to_dict()
        finally:
            await scheduler.close()

    alice, bob, metrics = asyncio.run(scenario())
    assert metrics["service.cohort_splits"]["value"] >= 1
    assert metrics["service.single_flight_dedup"]["value"] == 1
    leader, follower = alice.outcomes[2], bob.outcomes[0]
    assert follower["source"] == ("dedup" if leader["ok"] else "fail")
    if not leader["ok"]:
        assert follower["error"] == \
            f"single-flight leader: {leader['error']}"

