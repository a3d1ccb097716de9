"""The pool executor: the one retry, deadline and rebuild core under every
front end that runs many points.

:class:`repro.orchestrator.Campaign` drives it synchronously
(:meth:`PoolExecutor.drain`); the service's
:class:`repro.service.scheduler.FleetScheduler` drives it from asyncio
(:meth:`PoolExecutor.launch` and :meth:`PoolExecutor.collect` around a wait
on the launched futures). Front ends decide *what* runs — cache probes,
single-flight, quotas, order — and hand the rest over as units; this
module decides *how*. It is the only code that builds or kills worker
processes, reaches the worker entry points, or charges attempts.

A unit is a lockstep cohort (two or more lanes through
:func:`run_cohort_payloads`) or a singleton (one lane through
:func:`run_point_payload`, which picks the kernel itself). At most ``workers`` units hold a worker slot;
the rest wait, and a unit's deadline (``timeout`` per lane) starts when it
gets a slot. The retry, split and bounce rules are the table in
``docs/modeling.md`` (§6), which ``tests/test_executor_semantics.py`` runs
against both front ends.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from collections import deque
from concurrent.futures import (
    FIRST_COMPLETED,
    BrokenExecutor,
    Future,
    ProcessPoolExecutor,
    wait,
)
from dataclasses import dataclass
from typing import Any, Callable, Iterator

from repro.config import SANITIZE_ENV_VAR, TRACE_ENV_VAR
from repro.engine import engine_env
from repro.orchestrator.execute import (
    run_cohort_payloads,
    run_point_payload,
    worker_init,
)
from repro.orchestrator.points import SimPoint

# How many times a unit may be bounced by a pool death it did not cause
# (a sibling's kill, a worker OOM) before the death counts as its own.
POOL_BOUNCE_BUDGET = 3


@dataclass(eq=False)
class Lane:
    """One point in the executor: the front end's handle plus the
    attempts it was charged and the pool deaths it sat through."""

    point: SimPoint
    tag: Any = None
    trace_ctx: dict[str, Any] | None = None
    attempts: int = 0
    bounces: int = 0


@dataclass(eq=False)
class Unit:
    """What one worker slot runs: a cohort, or a singleton."""

    lanes: list[Lane]
    deadline: float | None = None
    generation: int = 0

    @property
    def batched(self) -> bool:
        return len(self.lanes) > 1


# A lane's final outcome: (lane, payload, None) or (lane, None, error).
Done = tuple[Lane, dict[str, Any] | None, str | None]


class PoolExecutor:
    """A bounded window of units over one rebuildable process pool.

    ``notify(event, unit)`` feeds the front end's counters: "timeout",
    "retry" and "split" carry the unit, "reset" (a rebuild) None. With
    ``inline`` (one worker, no deadline) units run in the calling thread.
    """

    def __init__(self, workers: int,
                 notify: Callable[[str, Unit | None], None], *,
                 timeout: float | None = None, retries: int = 1,
                 sanitize: bool = False, trace_dir: str | None = None,
                 engine: str | None = None, context: str | None = None,
                 preload: tuple = (), inline: bool = False) -> None:
        self.workers = workers
        self.timeout = timeout
        self.retries = retries
        self.sanitize = sanitize
        self.trace_dir = trace_dir
        self.engine = engine
        self.context = context
        self.preload = preload
        self.inline = inline
        self.notify = notify
        self.generation = 0
        self.waiting: deque[Unit] = deque()
        self.running: dict[Future, Unit] = {}
        self._pool: ProcessPoolExecutor | None = None

    # -- feeding and driving ---------------------------------------------

    def submit(self, lanes: list[Lane]) -> None:
        """Queue one unit (a cohort when it has two or more lanes)."""
        self.waiting.append(Unit(lanes))

    def launch(self) -> list[Future]:
        """Give waiting units the free worker slots, charging each lane
        one attempt and starting the unit's deadline; returns the new
        futures."""
        started = []
        while self.waiting and len(self.running) < self.workers:
            unit = self.waiting.popleft()
            for lane in unit.lanes:
                lane.attempts += 1
            if self.timeout is not None:
                unit.deadline = (time.monotonic()
                                 + self.timeout * len(unit.lanes))
            unit.generation = self.generation
            future = self._start(unit)
            self.running[future] = unit
            started.append(future)
        return started

    def budget(self) -> float | None:
        """Seconds to the earliest running deadline (None: no deadline)."""
        deadlines = [unit.deadline for unit in self.running.values()
                     if unit.deadline is not None]
        if not deadlines:
            return None
        return max(0.0, min(deadlines) - time.monotonic())

    def collect(self) -> list[Done]:
        """Settle every finished unit and every blown deadline by the
        rules above; returns the lanes that reached a final outcome."""
        done: list[Done] = []
        for future, unit in list(self.running.items()):
            # A rebuild earlier in this pass already bounced the units
            # of the older generation.
            if unit.generation != self.generation or not future.done():
                continue
            error = future.exception()
            if isinstance(error, BrokenExecutor):
                # The whole pool is dead, and this unit did not
                # necessarily kill it: everything in flight bounces.
                self._rebuild(done)
                continue
            del self.running[future]
            if error is not None:
                self._fail(unit, repr(error), done)
                continue
            result = future.result()
            payloads = result if unit.batched else [result]
            done.extend((lane, payload, None)
                        for lane, payload in zip(unit.lanes, payloads))
        if self.timeout is not None:
            self._expire(done)
        return done

    def drain(self) -> Iterator[Done]:
        """Run every submitted unit to its lanes' final outcomes,
        yielding each as it lands (the synchronous loop)."""
        while self.waiting or self.running:
            self.launch()
            wait(list(self.running), timeout=self.budget(),
                 return_when=FIRST_COMPLETED)
            yield from self.collect()

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=False, cancel_futures=True)
            self._pool = None

    # -- the rules ---------------------------------------------------------

    def _expire(self, done: list[Done]) -> None:
        now = time.monotonic()
        kill = False
        for future, unit in list(self.running.items()):
            if unit.deadline is None or unit.deadline > now:
                continue
            del self.running[future]
            self.notify("timeout", unit)
            # A future the pool has not started cancels cleanly; a
            # running worker must be killed or it keeps the slot.
            kill |= not future.cancel()
            self._fail(unit, f"deadline exceeded ({self.timeout}s)", done)
        if kill:
            self._rebuild(done)

    def _fail(self, unit: Unit, error: str, done: list[Done]) -> None:
        if unit.batched:
            # The cohort's failure is not any one lane's failure.
            for lane in unit.lanes:
                lane.attempts -= 1
            self.notify("split", unit)
            self.waiting.extendleft(Unit([lane])
                                    for lane in reversed(unit.lanes))
            return
        lane = unit.lanes[0]
        if lane.attempts <= self.retries:
            self.notify("retry", unit)
            self.waiting.appendleft(unit)
            return
        done.append((lane, None, error))

    def _rebuild(self, done: list[Done]) -> None:
        """Kill the pool, bounce everything it was running, and leave
        the next :meth:`launch` to build a fresh one. A
        ``ProcessPoolExecutor`` cannot reclaim a single wedged worker, so
        the whole pool goes; the generation bump tells a later observer
        of the same death that its unit was already bounced."""
        pool, self._pool = self._pool, None
        if pool is not None:
            for process in (getattr(pool, "_processes", None)
                            or {}).values():
                try:
                    process.terminate()
                except OSError:  # pragma: no cover — already reaped
                    pass
            pool.shutdown(wait=False, cancel_futures=True)
        self.generation += 1
        self.notify("reset", None)
        bounced = list(self.running.values())
        self.running.clear()
        for unit in reversed(bounced):
            for lane in unit.lanes:
                lane.bounces += 1
            if max(lane.bounces for lane in unit.lanes) > \
                    POOL_BOUNCE_BUDGET:
                self._fail(unit, "worker fleet kept dying (pool bounce "
                           "budget)", done)
                continue
            for lane in unit.lanes:
                lane.attempts -= 1
            self.waiting.appendleft(unit)

    # -- workers -------------------------------------------------------------

    def _start(self, unit: Unit) -> Future:
        points = [lane.point for lane in unit.lanes]
        fn, args = (run_cohort_payloads, (points,)) if unit.batched else \
            (run_point_payload, (points[0], self.sanitize, self.trace_dir,
                                 unit.lanes[0].trace_ctx))
        future: Future = Future()
        try:
            if self.inline:
                # In-process the engine is resolved from the environment:
                # pin it the way worker_init pins it in pool workers.
                with engine_env(self.engine):
                    future.set_result(fn(*args))
                return future
            if self._pool is None:
                self._pool = self._make_pool()
            return self._pool.submit(fn, *args)
        except Exception as exc:  # noqa: BLE001 — settled by collect()
            # Inline, the unit raised. Otherwise the pool died under the
            # hand-off (BrokenExecutor, or a closed pipe while a crashed
            # worker's pool tears down): that is a pool death, so
            # collect() rebuilds and bounces the unit.
            future.set_exception(exc if self.inline
                                 else BrokenExecutor(repr(exc)))
        return future

    @staticmethod
    def _switches() -> dict[str, str | None]:
        """This process's tracing/sanitizer switches, for worker_init."""
        return {name: os.environ.get(name)
                for name in (TRACE_ENV_VAR, SANITIZE_ENV_VAR)}

    def _make_pool(self) -> ProcessPoolExecutor:
        context = multiprocessing.get_context(self.context)
        if self.context == "forkserver":
            # Preload the simulator in the forkserver so each worker fork
            # is cheap; a no-op once the server is running.
            context.set_forkserver_preload(["repro.orchestrator.execute"])
        pool = ProcessPoolExecutor(max_workers=self.workers,
                                   mp_context=context,
                                   initializer=worker_init,
                                   initargs=(self.preload, self.engine,
                                             self._switches()))
        # Start every worker with the first unit, not on demand: a worker
        # spawned while a crashed sibling's pool tears down hands the
        # forkserver closed fds, which kills the forkserver.
        pool._safe_to_dynamically_spawn_children = False
        return pool
