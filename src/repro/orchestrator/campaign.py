"""Simulation campaigns: the synchronous front end of the pool executor.

A :class:`Campaign` collects :class:`SimPoint`\\ s, resolves as many as it
can from the content-addressed :class:`ResultCache`, plans the misses into
kernel units and scalar singletons (:func:`repro.engine.plan.plan_points`),
and runs them through the pool executor core
(:mod:`repro.orchestrator.pool`), which owns retries, per-point deadlines,
cohort splits and pool rebuilds. Results come back in submission order
regardless of completion order. With ``jobs=1`` and no timeout the units
run in this process; otherwise on a pool of ``jobs`` workers.

Telemetry (points done, cache hits/misses, retries, worker busy-time) is
kept up to date as points complete and handed to an optional progress
callback after every point.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Callable

from repro.config import sanitize_requested
from repro.memory.writebuffer import PersistOp
from repro.pipeline.stats import CoreStats

from repro.orchestrator.cache import ResultCache, point_digest
from repro.orchestrator.points import SimPoint
from repro.orchestrator.pool import Lane, PoolExecutor
from repro.orchestrator.serialize import (
    check_payload_schema,
    persist_log_from_payload,
    stats_from_payload,
)


@dataclass
class PointResult:
    """Outcome of one campaign point (order matches submission order).

    The result keeps its compact worker/cache payload and decodes
    :attr:`stats` and :attr:`persist_log` only on first access, so a
    consumer that needs cycles alone (:attr:`cycles`, :meth:`to_dict`,
    sweep summaries) never unpacks the per-instruction columns."""

    index: int
    point: SimPoint
    # The payload (serialize.payload_from_run), None for a failed point.
    payload: dict[str, Any] | None = field(default=None, repr=False)
    cache_hit: bool = False
    # Simulation time spent inside a worker *during this campaign*; a
    # cache hit costs no simulation, so it reports 0.0 here and carries
    # the original run's time in cached_wall_clock instead. Throughput
    # and utilization math must only ever aggregate wall_clock over
    # simulated (non-hit) points.
    wall_clock: float = 0.0
    cached_wall_clock: float = 0.0   # original sim time of a cache hit
    attempts: int = 0                # simulation attempts (0 for cache hits)
    # Which kernel produced the stats ("scalar"/"batched"); cache hits
    # report the original producer, failures None.
    engine: str | None = None
    error: str | None = None
    # Worker accounting the payload carried ({"pid", "imports"}); None
    # for cache hits. Stripped from the payload before caching — pids
    # are not deterministic.
    worker: dict[str, int] | None = None

    @property
    def ok(self) -> bool:
        return self.payload is not None

    @cached_property
    def stats(self) -> CoreStats | None:
        """The decoded stats (first access decodes; later ones reuse)."""
        if self.payload is None:
            return None
        try:
            return stats_from_payload(self.payload)
        except ValueError as error:
            raise ValueError(
                f"point {self.index} ({self.point.name}): {error}") \
                from error

    @cached_property
    def persist_log(self) -> list[PersistOp] | None:
        if self.payload is None:
            return None
        return persist_log_from_payload(self.payload)

    @property
    def cycles(self) -> float:
        """Simulated cycles, read from the payload without decoding."""
        return self.payload["cycles"] if self.payload is not None else 0.0

    @property
    def instructions(self) -> int:
        return self.payload["instructions"] \
            if self.payload is not None else 0

    def to_dict(self) -> dict[str, Any]:
        """Machine-readable digest of the result (no stats payload)."""
        return {
            "index": self.index,
            "point": self.point.name,
            "ok": self.ok,
            "cache_hit": self.cache_hit,
            "wall_clock": self.wall_clock,
            "cached_wall_clock": self.cached_wall_clock,
            "attempts": self.attempts,
            "engine": self.engine,
            "error": self.error,
            "cycles": self.cycles,
            "instructions": self.instructions,
        }


@dataclass
class CampaignTelemetry:
    """Live campaign accounting, snapshotted to progress callbacks."""

    total: int = 0
    done: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    simulated: int = 0
    failures: int = 0               # points that exhausted their retries
    retries: int = 0                # extra attempts after a failure
    timeouts: int = 0               # attempts that blew their deadline
    engine: str = "scalar"          # resolved engine mode for this run
    cohorts: int = 0                # kernel cohorts planned (>= 2 lanes)
    batched_points: int = 0         # points whose result ran batched
    # Simulated points whose kernel lane diverged and re-ran on the
    # scalar kernel (the payload's "diverged_at"), counted as the
    # service counts service.lane_divergences; hits never count.
    lane_divergences: int = 0
    # reason -> count: why planned points stayed on the scalar kernel
    # (repro.engine.plan.scalar_reason: engine choice, campaign-wide
    # sanitize/trace instrumentation, an active tracer or sanitizer
    # probes, a scheme with no batched kernel, persist-log capture). Only
    # simulated (cache-missed) points are planned, so hits never show up
    # here.
    scalar_reasons: dict[str, int] = field(default_factory=dict)
    jobs: int = 1
    busy_seconds: float = 0.0       # summed worker simulation time
    # pid -> number of `repro` imports that worker performed (via its
    # initializer). A warm pool shows exactly 1 per worker no matter how
    # many points it ran; serial in-process runs record nothing.
    worker_imports: dict[int, int] = field(default_factory=dict)
    started_at: float = field(default_factory=time.perf_counter)

    @property
    def elapsed(self) -> float:
        return time.perf_counter() - self.started_at

    @property
    def worker_utilization(self) -> float:
        """Fraction of the pool's wall-clock capacity spent simulating."""
        wall = self.elapsed * max(1, self.jobs)
        return self.busy_seconds / wall if wall > 0 else 0.0

    def to_dict(self) -> dict[str, Any]:
        return {
            "total": self.total,
            "done": self.done,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "simulated": self.simulated,
            "failures": self.failures,
            "retries": self.retries,
            "timeouts": self.timeouts,
            "engine": self.engine,
            "cohorts": self.cohorts,
            "batched_points": self.batched_points,
            "lane_divergences": self.lane_divergences,
            "scalar_reasons": dict(sorted(self.scalar_reasons.items())),
            "jobs": self.jobs,
            "busy_seconds": self.busy_seconds,
            "worker_imports": {str(pid): count for pid, count
                               in sorted(self.worker_imports.items())},
            "elapsed": self.elapsed,
            "worker_utilization": self.worker_utilization,
        }

    def summary_line(self) -> str:
        return (f"{self.done}/{self.total} points, "
                f"L2 {self.cache_hits} hit / {self.cache_misses} miss, "
                f"{self.simulated} simulated "
                f"({self.batched_points} batched in {self.cohorts} "
                f"cohorts, {self.lane_divergences} diverged), "
                f"{self.retries} retries, "
                f"{self.failures} failed, "
                f"{self.elapsed:.1f}s elapsed, "
                f"{100.0 * self.worker_utilization:.0f}% "
                f"worker utilization")


ProgressCallback = Callable[[CampaignTelemetry, PointResult], None]


class CampaignError(RuntimeError):
    """A point exhausted its retries and ``fail_fast`` was requested."""


class Campaign:
    """Submit points, then :meth:`run` them with caching and parallelism."""

    def __init__(self, cache: ResultCache | None = None, jobs: int = 1,
                 timeout: float | None = None, retries: int = 1,
                 progress: ProgressCallback | None = None,
                 fail_fast: bool = False,
                 sanitize: bool | None = None,
                 trace_dir: str | None = None,
                 engine: str | None = None) -> None:
        from repro.cli import check_limits
        from repro.engine import resolve_engine

        check_limits(jobs=jobs, timeout=timeout, retries=retries)
        self.cache = cache
        self.jobs = jobs
        self.timeout = timeout
        self.retries = retries
        self.progress = progress
        self.fail_fast = fail_fast
        # Execution engine (repro.engine contract: None resolves
        # REPRO_ENGINE, default "auto"); repro.engine.plan.plan_points
        # turns cache misses into kernel and scalar units under it.
        self.engine = resolve_engine(engine)
        # Run every simulated point under the persistency sanitizer
        # (repro.sanitizer); None defers to the REPRO_SANITIZE environment
        # variable. Cached hits are returned as-is — the sanitizer checks
        # execution, not payloads.
        self.sanitize = sanitize_requested() if sanitize is None \
            else sanitize
        # With a trace_dir, every *simulated* point (cache hits have no
        # execution to trace) records cycle-level telemetry and drops a
        # Perfetto-loadable Chrome trace named after the point.
        self.trace_dir = str(trace_dir) if trace_dir is not None else None
        self.points: list[SimPoint] = []
        # index -> the cache digest its probe computed, reused by put.
        self._digests: dict[int, str] = {}
        self.telemetry = CampaignTelemetry(jobs=self.jobs)
        # Structured log (repro.observe.slog) or None; resolved per run()
        # so REPRO_LOG set between runs takes effect.
        self._slog = None

    # ------------------------------------------------------------------
    # Building
    # ------------------------------------------------------------------

    def add(self, point: SimPoint) -> int:
        """Queue a point; returns its (stable) result index."""
        self.points.append(point)
        return len(self.points) - 1

    def add_run(self, profile, scheme: str, **kwargs: Any) -> int:
        """Convenience: build the point via :func:`make_point` and queue
        it."""
        from repro.orchestrator.points import make_point

        return self.add(make_point(profile, scheme, **kwargs))

    def extend(self, points) -> None:
        for point in points:
            self.add(point)

    # ------------------------------------------------------------------
    # Running
    # ------------------------------------------------------------------

    def run(self) -> list[PointResult]:
        """Execute every queued point; results come back in submission
        order with deterministic content (the simulator is seeded)."""
        from repro.observe.slog import log_for_run

        telemetry = self.telemetry = CampaignTelemetry(jobs=self.jobs,
                                                       engine=self.engine)
        telemetry.total = len(self.points)
        self._slog = log_for_run()
        if self._slog is not None:
            self._slog.emit("campaign.start", points=len(self.points),
                            jobs=self.jobs, engine=self.engine,
                            sanitize=self.sanitize,
                            trace_dir=self.trace_dir)
        results: list[PointResult | None] = [None] * len(self.points)
        self._digests = {}

        misses: list[int] = []
        for index, point in enumerate(self.points):
            result = self._try_cache(index, point)
            if result is not None:
                results[index] = result
                self._account(result)
            else:
                misses.append(index)

        if misses:
            self._simulate(misses, results)
        assert all(r is not None for r in results)
        if self._slog is not None:
            self._slog.emit("campaign.done",
                            **{key: value for key, value
                               in telemetry.to_dict().items()
                               if key != "worker_imports"})
        return results  # type: ignore[return-value]

    # -- cache probe ----------------------------------------------------

    def _try_cache(self, index: int, point: SimPoint) -> PointResult | None:
        if self.cache is None:
            return None
        digest = self._digests[index] = point_digest(point)
        payload = self.cache.get(digest)
        if payload is None:
            return None
        check_payload_schema(payload)
        return PointResult(
            index=index, point=point, payload=payload, cache_hit=True,
            cached_wall_clock=payload.get("wall_clock", 0.0),
            engine=payload.get("engine", "scalar"),
        )

    # -- bookkeeping ----------------------------------------------------

    def _account(self, result: PointResult) -> None:
        telemetry = self.telemetry
        telemetry.done += 1
        if result.cache_hit:
            telemetry.cache_hits += 1
        else:
            telemetry.cache_misses += 1
            if result.worker is not None and "pid" in result.worker:
                telemetry.worker_imports[result.worker["pid"]] = \
                    result.worker["imports"]
            if result.ok:
                telemetry.simulated += 1
                telemetry.busy_seconds += result.wall_clock
                if result.engine == "batched":
                    telemetry.batched_points += 1
                if result.payload.get("diverged_at") is not None:
                    telemetry.lane_divergences += 1
            else:
                telemetry.failures += 1
        if self._slog is not None:
            self._slog.emit(
                "campaign.point", point=result.point.name,
                index=result.index,
                source=("hit" if result.cache_hit
                        else "sim" if result.ok else "fail"),
                engine=result.engine, wall=result.wall_clock,
                attempts=result.attempts, error=result.error,
                done=telemetry.done, total=telemetry.total)
        if self.progress is not None:
            self.progress(telemetry, result)
        if result.error is not None and self.fail_fast:
            raise CampaignError(
                f"point {result.index} ({result.point.name}) failed after "
                f"{result.attempts} attempts: {result.error}")

    def _result_from_payload(self, index: int, point: SimPoint,
                             payload: dict[str, Any],
                             attempts: int) -> PointResult:
        # Strip worker accounting before the payload reaches the cache:
        # cached payloads must stay deterministic, and a future cache hit
        # ran in no worker at all.
        worker = payload.pop("worker", None)
        check_payload_schema(payload)
        result = PointResult(
            index=index, point=point, payload=payload,
            wall_clock=payload.get("wall_clock", 0.0),
            attempts=attempts,
            engine=payload.get("engine", "scalar"),
            worker=worker,
        )
        if self.cache is not None:
            self.cache.put(self._digests[index], payload,
                           meta={"point": point.name})
        return result

    # -- simulation -----------------------------------------------------

    def _simulate(self, misses: list[int],
                  results: list[PointResult | None]) -> None:
        """Plan the missed points into units and run them through the
        pool executor core; results land in ``results`` by index."""
        from repro.engine.plan import plan_points

        plan = plan_points([self.points[i] for i in misses], self.engine,
                           self.sanitize, self.trace_dir is not None)
        self.telemetry.scalar_reasons = plan.summary()["scalar_reasons"]
        self.telemetry.cohorts = sum(len(unit) > 1 for unit in plan.cohorts)
        # A deadline needs a worker process to kill, so only a jobs=1
        # campaign without one runs its units in this process.
        executor = PoolExecutor(
            self.jobs, self._on_pool_event, timeout=self.timeout,
            retries=self.retries, sanitize=self.sanitize,
            trace_dir=self.trace_dir,
            inline=self.jobs == 1 and self.timeout is None)
        for unit in plan.units:
            executor.submit([Lane(self.points[misses[i]], tag=misses[i])
                             for i in unit.indices], unit.kernel)
        try:
            for lane, payload, error in executor.drain():
                if payload is None:
                    result = PointResult(index=lane.tag, point=lane.point,
                                         attempts=lane.attempts,
                                         error=error)
                else:
                    result = self._result_from_payload(
                        lane.tag, lane.point, payload, lane.attempts)
                results[lane.tag] = result
                self._account(result)
        finally:
            executor.close()

    def _on_pool_event(self, event: str, unit) -> None:
        if event == "timeout":
            self.telemetry.timeouts += 1
        elif event == "retry":
            self.telemetry.retries += 1
