"""Fair multi-tenant scheduling over one shared worker fleet.

The :class:`FleetScheduler` is the service's asyncio front end of the pool
executor (:mod:`repro.orchestrator.pool`), which owns the worker fleet, one
fleet-wide window of ``workers`` units, deadlines, retries, cohort splits
and rebuilds — under the same rules as a :class:`Campaign`. The scheduler
keeps what is its own. Tenants submit campaigns (lists of
:class:`SimPoint`\\ s), planned into cohorts and singletons that queue per
tenant, and every lane passes three tiers before it may take a worker
slot:

1. **Round-robin and quotas** — units are admitted in strict round-robin
   order across tenants, each tenant bounded by a quota of lanes in
   flight, so 10,000 queued points cannot starve 10.
2. **L2 probe** — the content-addressed :class:`ResultCache`; a hit costs
   no worker slot at all. Results land write-behind: a settled lane is
   staged in the cache (served from memory at once), reported, and then
   flushed to disk off the critical path.
3. **Single-flight** — a lane whose digest is already being simulated
   (by *any* tenant) joins that flight, so a cohort shrinks to the lanes
   that remain. A flight resolves only on its leader lane's final
   outcome; a leader that is split or bounced keeps leading it.

Per-tenant counters (submitted/hits/simulated/deduped/failures/…) live
in a :class:`repro.telemetry.metrics.MetricsRegistry` and surface through
the service status API.
"""

from __future__ import annotations

import asyncio
import itertools
import time
from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from repro.config import sanitize_requested
from repro.observe.slog import log_for_run
from repro.telemetry.metrics import MetricsRegistry

from repro.orchestrator.cache import ResultCache, point_digest
from repro.orchestrator.execute import point_trace_filename
from repro.orchestrator.points import SimPoint
from repro.orchestrator.pool import Done, Lane, PoolExecutor, Unit

if TYPE_CHECKING:
    from repro.engine.plan import PlanUnit


@dataclass(eq=False)
class Ticket:
    """One admitted lane: a campaign point plus its cache digest."""

    job: "CampaignJob"
    index: int
    digest: str
    since: float = field(default_factory=time.time)
    # Scheduler-side stitch spans ([{name, start, end}] in wall-clock
    # seconds); a list only when the fleet traces (--trace-dir), so the
    # untraced path stays one `is None` test per record site.
    spans: list[dict[str, Any]] | None = None

    @property
    def point(self) -> SimPoint:
        return self.job.points[self.index]


@dataclass
class TenantState:
    """One tenant's queue, quota, and live accounting."""

    name: str
    quota: int
    # Planned units (a kernel unit, or one scalar point) of the tenant's
    # campaigns; each admitted lane holds one quota slot until its result
    # is reported, which is when the worker returns it: the cache write
    # follows off the critical path.
    queue: deque[tuple["CampaignJob", PlanUnit]] = field(
        default_factory=deque)
    inflight: int = 0

    def to_dict(self) -> dict[str, Any]:
        return {"name": self.name, "quota": self.quota,
                "queued": len(self.queue), "inflight": self.inflight}


class CampaignJob:
    """One submitted campaign: points, per-point outcomes, event stream."""

    def __init__(self, job_id: str, tenant: str, points: list[SimPoint],
                 meta: dict[str, Any]) -> None:
        self.id = job_id
        self.tenant = tenant
        self.points = points
        self.meta = meta                      # sweep name/apps/... echo
        self.state = "queued"
        self.created_at = time.time()
        self.finished_at: float | None = None
        self.done = 0
        self.hits = 0
        self.simulated = 0
        self.deduped = 0
        self.failures = 0
        # index -> worker payload (the cache/worker wire form); outcomes
        # carry the light per-point digest for status/results endpoints.
        self.payloads: dict[int, dict[str, Any]] = {}
        # index -> scheduler-side stitch spans (traced fleets only).
        self.sched_spans: dict[int, list[dict[str, Any]]] = {}
        self.outcomes: list[dict[str, Any] | None] = [None] * len(points)
        self.events: list[dict[str, Any]] = []
        self._event_cond = asyncio.Condition()
        self.finished = asyncio.Event()

    @property
    def total(self) -> int:
        return len(self.points)

    def to_dict(self) -> dict[str, Any]:
        return {
            "id": self.id,
            "tenant": self.tenant,
            "state": self.state,
            "total": self.total,
            "done": self.done,
            "cache_hits": self.hits,
            "simulated": self.simulated,
            "deduped": self.deduped,
            "failures": self.failures,
            "created_at": self.created_at,
            "finished_at": self.finished_at,
            "meta": self.meta,
        }

    async def record(self, event: dict[str, Any]) -> None:
        """Append one progress event and wake streaming readers."""
        async with self._event_cond:
            self.events.append(event)
            self._event_cond.notify_all()

    async def events_since(self, cursor: int) -> list[dict[str, Any]]:
        """Events past ``cursor``, waiting until at least one exists or
        the campaign is finished."""
        async with self._event_cond:
            while cursor >= len(self.events) and not self.finished.is_set():
                try:
                    await asyncio.wait_for(self._event_cond.wait(), 0.5)
                except asyncio.TimeoutError:
                    continue
            return self.events[cursor:]


class FleetScheduler:
    """Round-robin multiplexer of tenant campaigns onto the pool
    executor."""

    # How long one disk-inventory scan is served from memory before the
    # next /v1/status (or /metrics scrape) pays for a fresh one.
    CACHE_INVENTORY_TTL = 10.0

    def __init__(self, cache: ResultCache | None, workers: int = 2,
                 quota: int | None = None, timeout: float | None = None,
                 retries: int = 1, sanitize: bool | None = None,
                 engine: str | None = None,
                 trace_dir: str | None = None,
                 heartbeat: float | None = 10.0) -> None:
        from repro.cli import check_limits
        from repro.engine import resolve_engine

        check_limits(workers=workers, quota=quota, timeout=timeout,
                     retries=retries)
        self.cache = cache
        self.workers = workers
        # Execution engine (repro.engine contract), under which
        # repro.engine.plan.plan_points plans each submission.
        self.engine = resolve_engine(engine)
        # Per-tenant in-flight cap; by default every tenant may fill the
        # fleet alone — round-robin dispatch still splits it fairly the
        # moment a second tenant shows up.
        self.default_quota = quota if quota is not None else self.workers
        self.timeout = timeout
        self.retries = retries
        self.sanitize = sanitize_requested() if sanitize is None \
            else sanitize
        # Traced fleets run scalar (repro.engine.plan.scalar_reason: the
        # tracer instruments the scalar kernel) and collect scheduler-side
        # stitch spans per point; ``repro.observe stitch`` merges them
        # with the worker kernel traces written under this directory.
        self.trace_dir = str(trace_dir) if trace_dir is not None else None
        self.heartbeat = heartbeat if heartbeat and heartbeat > 0 else None
        self._slog = log_for_run()
        self.metrics = MetricsRegistry()
        self.tenants: dict[str, TenantState] = {}
        self.jobs: dict[str, CampaignJob] = {}
        self._job_ids = itertools.count(1)
        self._rr = deque()                    # tenant round-robin order
        # digest -> the tickets that joined the lane leading its flight
        self._flights: dict[str, list[Ticket]] = {}
        # The daemon holds live client sockets whenever a pool worker is
        # (re)created, so plain fork would copy those fds into long-lived
        # workers — the server's close() then never reaches the client
        # (no FIN while a worker still holds the fd) and event streams
        # hang until the client's socket timeout. forkserver workers fork
        # from an exec'd helper that never saw our sockets.
        self.executor = PoolExecutor(
            self.workers, self._on_pool_event, timeout=timeout,
            retries=self.retries, sanitize=self.sanitize,
            trace_dir=self.trace_dir, context="forkserver")
        self._wakeup: asyncio.Event | None = None
        self._pool_wake: asyncio.Event | None = None
        self._loopers: list[asyncio.Task] = []
        self._point_tasks: set[asyncio.Task] = set()
        # (monotonic deadline, inventory dict) — cache_inventory() TTL.
        self._inventory: tuple[float, dict[str, Any]] | None = None
        self.started_at = time.time()
        self._closed = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    async def start(self) -> None:
        self._wakeup = asyncio.Event()
        self._pool_wake = asyncio.Event()
        self._loopers = [asyncio.create_task(self._dispatch_loop()),
                         asyncio.create_task(self._pump())]
        if self.heartbeat is not None:
            self._loopers.append(asyncio.create_task(
                self._heartbeat_loop()))

    async def close(self) -> None:
        self._closed = True
        for looper in self._loopers:
            looper.cancel()
            try:
                await looper
            except asyncio.CancelledError:
                pass
        for task in list(self._point_tasks):
            task.cancel()
        if self._point_tasks:
            await asyncio.gather(*self._point_tasks,
                                 return_exceptions=True)
        if self.cache is not None:
            self.cache.flush()
        self.executor.close()

    async def _heartbeat_loop(self) -> None:
        """Periodic liveness beat on every unfinished campaign's event
        stream, so a client tailing a stalled campaign (wedged worker,
        quota starvation) sees progress *of time* even when no point
        completes between beats. ``client.wait()`` ignores non-point
        event types, so old clients are unaffected."""
        while True:
            await asyncio.sleep(self.heartbeat)
            now = time.time()
            for job in list(self.jobs.values()):
                if job.finished.is_set():
                    continue
                await job.record({
                    "type": "heartbeat", "campaign": job.id,
                    "tenant": job.tenant, "ts": now,
                    "done": job.done, "total": job.total,
                    "age": now - job.created_at,
                })

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------

    def tenant(self, name: str, quota: int | None = None) -> TenantState:
        state = self.tenants.get(name)
        if state is None:
            state = self.tenants[name] = TenantState(
                name=name, quota=quota or self.default_quota)
            self._rr.append(name)
        elif quota is not None:
            state.quota = quota
        return state

    async def submit(self, tenant_name: str, points: list[SimPoint],
                     meta: dict[str, Any] | None = None,
                     quota: int | None = None) -> CampaignJob:
        """Queue one campaign for ``tenant_name``; returns immediately."""
        from repro.engine.plan import plan_points

        if self._closed:
            raise RuntimeError("scheduler is shut down")
        if not points:
            raise ValueError("a campaign needs at least one point")
        tenant = self.tenant(tenant_name, quota)
        job = CampaignJob(f"c{next(self._job_ids):04d}", tenant_name,
                          points, meta or {})
        self.jobs[job.id] = job
        job.state = "running"
        plan = plan_points(points, self.engine, self.sanitize,
                           self.trace_dir is not None)
        self._count_scalar_reasons(plan.summary()["scalar_reasons"])
        cohorts = [unit for unit in plan.cohorts if len(unit) > 1]
        self.metrics.counter("service.cohorts").inc(len(cohorts))
        for cohort in cohorts:
            self.metrics.histogram("service.cohort_width").add(
                float(len(cohort)))
        tenant.queue.extend((job, unit) for unit in plan.units)
        self._counter(tenant_name, "submitted_points").inc(len(points))
        self.metrics.counter("service.campaigns").inc()
        if self._slog is not None:
            self._slog.emit("campaign.submitted", campaign=job.id,
                            tenant=tenant_name, points=len(points),
                            meta=job.meta)
        self._wakeup.set()
        return job

    def _counter(self, tenant: str, name: str):
        return self.metrics.counter(f"tenant.{tenant}.{name}")

    @staticmethod
    def _span(ticket: Ticket, name: str, start: float) -> None:
        """Record one closed scheduler-side span (traced fleets only)."""
        if ticket.spans is not None:
            ticket.spans.append({"name": name, "start": start,
                                 "end": time.time()})

    def _lane_metrics(self, payload: dict[str, Any], wall: float) -> None:
        """Engine introspection counters from one simulated payload:
        which kernel actually ran, lane divergence, and retired
        instruction throughput split batched-vs-scalar."""
        engine = payload.get("engine", "scalar")
        self.metrics.counter(f"service.lanes_{engine}").inc()
        if payload.get("diverged_at") is not None:
            self.metrics.counter("service.lane_divergences").inc()
        instructions = payload.get("instructions", 0)
        if wall > 0 and instructions:
            self.metrics.histogram(
                f"service.{engine}_instrs_per_sec").add(
                    instructions / wall)

    def _count_scalar_reasons(self, reasons: dict[str, int]) -> None:
        """Fleet-wide ``service.scalar_reason.<slug>`` counters: why
        planned points stayed on the scalar kernel, keyed by the
        planner's ``unbatchable_reason`` strings (slugged for metric
        names). Answers "why didn't this sweep batch?" from /metrics."""
        import re

        for reason, count in reasons.items():
            slug = re.sub(r"[^a-z0-9]+", "_", reason.lower()).strip("_")
            self.metrics.counter(f"service.scalar_reason.{slug}").inc(
                count)

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------

    def _next_unit(self) \
            -> tuple[TenantState, CampaignJob, PlanUnit] | None:
        """Strict round-robin: the first tenant (in rotation order) with
        queued work and quota headroom; the rotation advances past every
        tenant inspected, so service alternates under contention.

        A cohort at the head of a tenant's queue counts its full lane
        width against the quota; a cohort wider than the quota itself is
        only dispatched when the tenant has nothing else in flight
        (otherwise it could never run at all)."""
        for _ in range(len(self._rr)):
            name = self._rr[0]
            self._rr.rotate(-1)
            tenant = self.tenants[name]
            if not tenant.queue:
                continue
            width = len(tenant.queue[0][1])
            if tenant.inflight and \
                    tenant.inflight + width > tenant.quota:
                self._counter(name, "quota_deferred").inc()
                continue
            return (tenant, *tenant.queue.popleft())
        return None

    async def _dispatch_loop(self) -> None:
        while True:
            picked = self._next_unit()
            if picked is None:
                quota_blocked = any(t.queue for t in self.tenants.values())
                if quota_blocked:
                    self.metrics.counter("service.quota_waits").inc()
                self._wakeup.clear()
                await self._wakeup.wait()
                continue
            tenant, job, unit = picked
            tenant.inflight += len(unit)
            self._spawn(self._admit(tenant, job, unit))

    def _spawn(self, coro) -> None:
        task = asyncio.create_task(coro)
        self._point_tasks.add(task)
        task.add_done_callback(self._point_tasks.discard)

    async def _admit(self, tenant: TenantState, job: CampaignJob,
                     unit: PlanUnit) -> None:
        """Probe the cache for every lane of one unit of ``job``, join
        the lanes already in flight, and hand the rest to the executor as
        one unit — before any of them takes a worker slot."""
        loop = asyncio.get_running_loop()
        admitted = time.time()
        # Units are queued when their campaign is submitted.
        wait = max(0.0, admitted - job.created_at)
        self.metrics.histogram("service.queue_wait_seconds").add(wait)
        self.metrics.histogram(
            f"tenant.{tenant.name}.queue_wait_seconds").add(wait)
        digests = [point_digest(job.points[i]) for i in unit.indices]
        payloads: list[dict[str, Any] | None] = [None] * len(digests)
        if self.cache is not None:
            # A fresh unit misses on every lane: a stat each tells so
            # without the thread hop that reading hits needs.
            if any(self.cache.contains(d) for d in digests):
                payloads = await loop.run_in_executor(
                    None, lambda: [self.cache.get(d) for d in digests])
            else:
                self.cache.counters.misses += len(digests)
        # No await from here to the executor hand-off, so every lane
        # joins or leads its flight atomically.
        hits, lanes = [], []
        for index, digest, payload in zip(unit.indices, digests,
                                          payloads):
            ticket = Ticket(job, index, digest)
            lane = Lane(ticket.point, tag=ticket)
            if self.trace_dir is not None:
                ticket.spans = [{"name": "queue-wait",
                                 "start": job.created_at,
                                 "end": admitted}]
                if self.cache is not None:
                    self._span(ticket, "cache-probe", admitted)
                # The worker stamps this into its kernel trace; `repro.
                # observe stitch` matches it against the stitch manifest.
                lane.trace_ctx = {"trace_id": job.id,
                                  "span_id": f"{job.id}/{index}"}
            if payload is not None:
                hits.append((ticket, payload))
            elif digest in self._flights:
                self._flights[digest].append(ticket)
                self._counter(tenant.name, "deduped").inc()
                self.metrics.counter("service.single_flight_dedup").inc()
            else:
                self._flights[digest] = []
                lanes.append(lane)
        if lanes:
            self.executor.submit(lanes, unit.kernel)
            self._pool_wake.set()
        for ticket, payload in hits:
            self._counter(tenant.name, "cache_hits").inc()
            await self._finish_point(ticket, payload, "hit")

    # ------------------------------------------------------------------
    # Point execution
    # ------------------------------------------------------------------

    async def _pump(self) -> None:
        """Drive the executor: settle finished units and blown deadlines,
        fill free worker slots, then sleep until a unit finishes, a
        deadline passes, or a unit is admitted."""
        loop = asyncio.get_running_loop()

        def poke(_future) -> None:
            try:
                loop.call_soon_threadsafe(self._pool_wake.set)
            except RuntimeError:              # the loop already closed
                pass

        while True:
            self._pool_wake.clear()
            finished = self.executor.collect()
            for future in self.executor.launch():
                future.add_done_callback(poke)
            if finished:
                self._spawn(self._land(finished))
            try:
                await asyncio.wait_for(self._pool_wake.wait(),
                                       self.executor.budget())
            except asyncio.TimeoutError:
                pass

    def _on_pool_event(self, event: str, unit: Unit | None) -> None:
        """Count the executor's timeouts, retries, splits and rebuilds."""
        if event == "reset":
            self.metrics.counter("service.pool_resets").inc()
            if self._slog is not None:
                self._slog.emit("pool.reset",
                                generation=self.executor.generation,
                                workers=self.workers)
            return
        if event == "split":
            self.metrics.counter("service.cohort_splits").inc()
            return
        ticket = unit.lanes[0].tag
        if event == "retry":
            self._counter(ticket.job.tenant, "retries").inc()
            return
        self.metrics.counter("service.timeouts").inc()
        self._counter(ticket.job.tenant, "timeouts").inc()
        if self._slog is not None:
            self._slog.emit("point.timeout", campaign=ticket.job.id,
                            tenant=ticket.job.tenant,
                            point=ticket.point.name, timeout=self.timeout)

    async def _land(self, finished: list[Done]) -> None:
        """Stage and report the lanes the executor settled and every
        ticket that joined their flights, then write the staged results
        to disk off the critical path."""
        for lane, payload, error in finished:
            ticket = lane.tag
            wall = 0.0
            if payload is None:
                self._counter(ticket.job.tenant, "failures").inc()
            else:
                payload.pop("worker", None)   # pids are not deterministic
                self._counter(ticket.job.tenant, "simulated").inc()
                self.metrics.counter("service.simulated").inc()
                wall = payload.get("wall_clock", 0.0)
                self.metrics.histogram("service.sim_seconds").add(wall)
                self._lane_metrics(payload, wall)
                self._span(ticket, "simulate", ticket.since)
                if self.cache is not None:
                    put_start = time.time()
                    self.cache.stage(ticket.digest, payload,
                                     {"point": lane.point.name})
                    self._span(ticket, "cache-put", put_start)
            # The flight ends with its leader's final outcome, after the
            # stage: a later lane either joins it or hits the cache.
            followers = self._flights.pop(ticket.digest, [])
            await self._finish_point(ticket, payload,
                                     "fail" if payload is None else "sim",
                                     wall, error, lane.attempts)
            for follower in followers:
                self._span(follower, "dedup-join", follower.since)
                await self._finish_point(
                    follower, payload,
                    "fail" if payload is None else "dedup", 0.0,
                    None if payload is not None
                    else f"single-flight leader: {error}")
        if self.cache is not None and self.cache.staged:
            flush_start = time.perf_counter()
            await asyncio.get_running_loop().run_in_executor(
                None, self.cache.flush)
            self.metrics.histogram("service.cache_flush_seconds").add(
                time.perf_counter() - flush_start)

    async def _finish_point(self, ticket: Ticket,
                            payload: dict[str, Any] | None, source: str,
                            wall: float = 0.0, error: str | None = None,
                            attempts: int = 0) -> None:
        job = ticket.job
        self.tenants[job.tenant].inflight -= 1
        self._wakeup.set()
        outcome = {
            "index": ticket.index,
            "point": ticket.point.name,
            "ok": payload is not None,
            "source": source,                 # hit | sim | dedup | fail
            "wall_clock": wall,
            "attempts": attempts,
            "error": error,
        }
        if payload is not None:
            job.payloads[ticket.index] = payload
            outcome["cycles"] = payload.get("cycles", 0.0)
            outcome["instructions"] = payload.get("instructions", 0)
        job.outcomes[ticket.index] = outcome
        self.metrics.histogram(
            f"tenant.{job.tenant}.point_seconds").add(wall)
        if ticket.spans is not None:
            job.sched_spans[ticket.index] = ticket.spans
        if self._slog is not None:
            self._slog.emit("point.done", campaign=job.id,
                            tenant=job.tenant, point=ticket.point.name,
                            index=ticket.index, source=source, wall=wall,
                            attempts=attempts, error=error)
        job.done += 1
        if source == "hit":
            job.hits += 1
        elif source == "sim":
            job.simulated += 1
        elif source == "dedup":
            job.deduped += 1
        if payload is None:
            job.failures += 1
        self._counter(job.tenant, "done_points").inc()
        if job.done == job.total:
            job.state = "failed" if job.failures else "done"
            job.finished_at = time.time()
        await job.record({"type": "point", "campaign": job.id,
                          "tenant": job.tenant, "done": job.done,
                          "total": job.total, **outcome})
        if job.done == job.total:
            if self._slog is not None:
                self._slog.emit("campaign.done", campaign=job.id,
                                tenant=job.tenant, state=job.state,
                                cache_hits=job.hits,
                                simulated=job.simulated,
                                deduped=job.deduped,
                                failures=job.failures)
            if self.trace_dir is not None:
                self._write_stitch_manifest(job)
            await job.record({"type": "campaign", "campaign": job.id,
                              "tenant": job.tenant, "state": job.state,
                              **{k: job.to_dict()[k] for k in
                                 ("cache_hits", "simulated", "deduped",
                                  "failures")}})
            job.finished.set()

    def _write_stitch_manifest(self, job: CampaignJob) -> None:
        """Scheduler-side half of the stitched campaign trace: which
        points ran, their span IDs, their scheduler spans, and (for
        simulated points) which worker trace file carries the kernel
        side. ``repro.observe stitch`` joins the two on span_id."""
        import json
        import pathlib

        from repro.observe.stitch import MANIFEST_SCHEMA, manifest_path

        points = []
        for index, point in enumerate(job.points):
            outcome = job.outcomes[index] or {}
            source = outcome.get("source", "fail")
            points.append({
                "index": index,
                "point": point.name,
                "span_id": f"{job.id}/{index}",
                "source": source,
                "trace_file": (point_trace_filename(point)
                               if source == "sim" else None),
                "spans": job.sched_spans.get(index, []),
            })
        manifest = {
            "schema": MANIFEST_SCHEMA,
            "campaign": job.id,
            "tenant": job.tenant,
            "created_at": job.created_at,
            "trace_id": job.id,
            "points": points,
        }
        try:
            root = pathlib.Path(self.trace_dir)
            root.mkdir(parents=True, exist_ok=True)
            manifest_path(root, job.id).write_text(
                json.dumps(manifest, indent=2) + "\n")
        except OSError:
            # Losing a manifest must never fail the campaign itself.
            if self._slog is not None:
                self._slog.emit("stitch.manifest_error", campaign=job.id,
                                trace_dir=self.trace_dir)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def drop(self, job_id: str) -> bool:
        """Forget a *finished* campaign (frees its retained payloads)."""
        job = self.jobs.get(job_id)
        if job is None or not job.finished.is_set():
            return False
        del self.jobs[job_id]
        return True

    def job_results(self, job: CampaignJob,
                    include_stats: bool = False) -> dict[str, Any]:
        """Full results document for one campaign: per-point outcomes,
        the sweep summary when the submission named one, and (on request)
        the raw worker payloads so a client can rebuild bit-exact stats."""
        out: dict[str, Any] = {"campaign": job.to_dict(),
                               "points": job.outcomes}
        sweep = job.meta.get("sweep")
        if sweep is not None and job.finished.is_set() \
                and not job.failures:
            out["summary"] = self._summarize(job, sweep)
        if include_stats:
            # Payloads travel packed between workers, cache and
            # scheduler; the HTTP document carries the full
            # stats_to_dict envelope.
            from repro.orchestrator.serialize import unpacked_payload

            out["payloads"] = {str(index): unpacked_payload(payload)
                               for index, payload
                               in sorted(job.payloads.items())}
        return out

    def _summarize(self, job: CampaignJob, sweep: str) \
            -> list[dict[str, Any]] | None:
        from repro.orchestrator.campaigns import (
            summarize_cycles,
            sweep_spec,
        )

        try:
            spec = sweep_spec(sweep,
                              apps=job.meta.get("apps") or None,
                              length=job.meta.get("length") or None)
            cycles = [job.payloads[index]["cycles"]
                      for index in range(len(job.points))]
            return [{"label": label, "gmean_slowdown": mean}
                    for label, mean in summarize_cycles(spec, cycles)]
        except (ValueError, KeyError, RuntimeError):
            return None               # not a stock sweep shape; no summary

    def cache_inventory(self) -> dict[str, Any] | None:
        """Disk-cache breakdown (entry/byte totals, per-engine entry
        counts, stale-schema orphans) for status and /metrics, cached
        for :data:`CACHE_INVENTORY_TTL` so scrapes don't rescan disk."""
        if self.cache is None:
            return None
        now = time.monotonic()
        if self._inventory is not None and now < self._inventory[0]:
            return self._inventory[1]
        # The scan counts every result this daemon has stored, so the
        # entries still staged are written first.
        self.cache.flush()
        info = self.cache.inventory()
        snapshot = {
            "entries": info["entries"],
            "bytes": info["bytes"],
            "engines": info["engines"],
            "stale_schema": info["stale_schema"],
            "tmp_orphans": info["tmp_orphans"],
            "sim_seconds": info["sim_seconds"],
        }
        self._inventory = (now + self.CACHE_INVENTORY_TTL, snapshot)
        return snapshot

    def status(self) -> dict[str, Any]:
        jobs = sorted(self.jobs.values(), key=lambda j: j.id)
        return {
            "uptime": time.time() - self.started_at,
            "workers": self.workers,
            "pool_generation": self.executor.generation,
            "timeout": self.timeout,
            "retries": self.retries,
            "sanitize": self.sanitize,
            "engine": self.engine,
            "heartbeat": self.heartbeat,
            "trace_dir": self.trace_dir,
            "cache_root": (str(self.cache.root)
                           if self.cache is not None else None),
            "cache_counters": ({"hits": self.cache.counters.hits,
                                "misses": self.cache.counters.misses}
                               if self.cache is not None else None),
            "cache_inventory": self.cache_inventory(),
            "tenants": [t.to_dict() for t in self.tenants.values()],
            "campaigns": [j.to_dict() for j in jobs],
            "metrics": self.metrics.to_dict(),
        }
