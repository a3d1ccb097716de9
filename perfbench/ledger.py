"""Layer ledger: in-memory spans around the calls into each layer.

The traced run wraps the public entry points of each layer, patched where
their callers look them up, and keeps one span per call: name, start, end
and parent.  A span's *self time* is its duration minus the time its child
spans and the garbage-collector pauses directly inside it cover, so the
self times of all spans, the GC pauses and the unattributed remainder sum
to the traced wall time exactly.

Nothing here runs unless a ledger is installed; the untraced runs that
give the end-to-end metrics execute the program unpatched.
"""

from __future__ import annotations

import functools
import gc
import importlib
import sys
import threading
import time
from collections import Counter, defaultdict

# Layer rows in print order: span name -> (repository layer, the
# end-to-end metric a change to that layer should move).
LAYERS = {
    "workloads.trace": ("workloads.interning",
                        "point latency_p50_s; sweep wall_s"),
    "prewarm.template": ("memory.prewarm", "point latency_p50_s"),
    "memscript.build": ("engine.memscript",
                        "sweep wall_s; service latency_p90_s; not point"),
    "plan": ("engine.plan", "sweep wall_s"),
    "kernel.batched": ("engine.batched/inorder_lanes",
                       "sweep wall_s; service latency_p90_s"),
    "kernel.scalar": ("pipeline/core/inorder/persistence",
                      "point latency_p50_s, latency_p90_s"),
    "execute": ("orchestrator.execute", "sweep wall_s"),
    "serialize.payload": ("orchestrator.serialize", "sweep wall_s"),
    "serialize.stats": ("orchestrator.serialize", "sweep warm_s"),
    "cache.get": ("orchestrator.cache", "sweep warm_s"),
    "cache.put": ("orchestrator.cache", "sweep wall_s"),
    "campaign": ("orchestrator.campaign", "sweep wall_s"),
    "service.submit": ("service.server (client side)",
                       "service latency_p50_s, latency_p90_s"),
    "idle": ("load generator idle", "none"),
    "gc": ("CPython GC", "sweep wall_s most; also point"),
    "calibrate": ("benchmark calibration slices", "none"),
    "check": ("benchmark output checks", "none"),
}

# (module, attribute, span name).  ``Class.method`` attributes patch the
# class; plain functions are patched in every loaded module that binds
# them, because several callers import them by name at import time.
TARGETS = (
    ("repro.workloads.interning", "interned_trace", "workloads.trace"),
    ("repro.memory.prewarm", "warmed_memory", "prewarm.template"),
    ("repro.engine.memscript", "memory_script", "memscript.build"),
    ("repro.engine.plan", "plan_points", "plan"),
    ("repro.engine.batched", "run_cohort", "kernel.batched"),
    ("repro.orchestrator.execute", "simulate_point", "kernel.scalar"),
    ("repro.orchestrator.execute", "run_cohort_payloads", "execute"),
    ("repro.orchestrator.serialize", "payload_from_run",
     "serialize.payload"),
    ("repro.orchestrator.serialize", "stats_from_payload",
     "serialize.stats"),
    ("repro.orchestrator.cache", "ResultCache.get", "cache.get"),
    ("repro.orchestrator.cache", "ResultCache.put", "cache.put"),
    ("repro.orchestrator.campaign", "Campaign.run", "campaign"),
    ("repro", "simulate", "kernel.scalar"),
)

# Modules whose import-time bindings of the targets must exist before
# patching (missing ones are skipped: the program may have dropped them).
_CALLERS = (
    "repro.facade", "repro.orchestrator.execute",
    "repro.orchestrator.campaign", "repro.engine.batched",
    "repro.engine.inorder_lanes", "repro.engine.memscript",
    "repro.engine.columns", "repro.service.scheduler",
)


class Ledger:
    """Spans and counters of one traced run."""

    def __init__(self) -> None:
        # [name, start, end, parent index or -1, thread name]
        self.spans: list[list] = []
        # span index -> GC seconds directly inside it; -1 = outside spans
        self.gc_inside: dict[int, float] = defaultdict(float)
        # thread name -> [GC seconds, GC seconds outside spans, pauses]
        self.gc_by_thread: dict[str, list] = defaultdict(
            lambda: [0.0, 0.0, 0])
        self.gc_gen2 = 0
        self.counts: Counter = Counter()
        # Objects returned by caching layers, by id: a new one is a build.
        self.seen: dict[str, dict[int, object]] = defaultdict(dict)
        self.active = False
        self._local = threading.local()
        self._gc_start: tuple[float, int, str] | None = None

    # -- spans ------------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> int:
        stack = self._stack()
        parent = stack[-1] if stack else -1
        record = [name, 0.0, 0.0, parent, threading.current_thread().name]
        self.spans.append(record)
        index = len(self.spans) - 1
        stack.append(index)
        record[1] = time.perf_counter()
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack().pop()

    def add_span(self, name: str, start: float, end: float) -> None:
        """Record an already-closed span under the current one (only
        while the ledger is installed)."""
        if not self.active:
            return
        stack = self._stack()
        parent = stack[-1] if stack else -1
        self.spans.append([name, start, end, parent,
                           threading.current_thread().name])

    def slice_span(self, start: float, end: float) -> None:
        """Record a calibration slice (the ``calibrate`` row)."""
        self.add_span("calibrate", start, end)

    def span(self, name: str):
        return _SpanContext(self, name)

    # -- GC pauses ----------------------------------------------------------

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            stack = self._stack()
            self._gc_start = (time.perf_counter(),
                              stack[-1] if stack else -1,
                              threading.current_thread().name)
            return
        if self._gc_start is None:
            return
        start, parent, thread = self._gc_start
        self._gc_start = None
        pause = time.perf_counter() - start
        self.gc_inside[parent] += pause
        totals = self.gc_by_thread[thread]
        totals[0] += pause
        if parent < 0:
            totals[1] += pause
        totals[2] += 1
        if info.get("generation") == 2:
            self.gc_gen2 += 1

    # -- results ------------------------------------------------------------

    def self_times(self, thread: str = "MainThread") \
            -> tuple[dict[str, float], Counter, float]:
        """({span name: self seconds}, {span name: calls}, seconds covered
        by top-level spans) for one thread."""
        child = defaultdict(float)
        for name, start, end, parent, owner in self.spans:
            if parent >= 0 and owner == thread:
                child[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        top = 0.0
        for index, (name, start, end, parent, owner) in \
                enumerate(self.spans):
            if owner != thread:
                continue
            duration = end - start
            totals[name] += duration - child[index] - self.gc_inside[index]
            calls[name] += 1
            if parent < 0:
                top += duration
        return dict(totals), calls, top

    def rows(self, wall: float, thread: str = "MainThread") \
            -> list[tuple[str, float, int]]:
        """(span name, self seconds, calls) per layer, then GC pauses and
        the unattributed remainder; the seconds sum to ``wall``."""
        totals, calls, top = self.self_times(thread)
        out = [(name, totals[name], calls[name])
               for name in LAYERS if name in totals]
        out.extend((name, totals[name], calls[name])
                   for name in sorted(totals) if name not in LAYERS)
        gc_total, gc_outside, pauses = self.gc_by_thread[thread]
        out.append(("gc", gc_total, pauses))
        out.append(("unattributed", wall - top - gc_outside, 0))
        return out


class _SpanContext:
    def __init__(self, ledger: Ledger, name: str) -> None:
        self.ledger = ledger
        self.name = name

    def __enter__(self):
        self.index = self.ledger.open(self.name)
        return self

    def __exit__(self, *exc) -> None:
        self.ledger.close(self.index)


def _wrap(ledger: Ledger, name: str, fn, observe):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        index = ledger.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            ledger.close(index)
        if observe is not None:
            observe(ledger, args, result)
        return result
    return wrapper


def _instructions(stats) -> int:
    return int(getattr(stats, "instructions", 0) or 0)


def _observe_script(ledger, args, script) -> None:
    # A build returns a script not seen before; a hit returns the cached
    # one.
    seen = ledger.seen["script"]
    if id(script) not in seen:
        seen[id(script)] = script
        ledger.counts["memscript.builds"] += 1


def _observe_plan(ledger, args, plan) -> None:
    summary = plan.summary()
    ledger.counts["plan.cohorts"] += summary["cohorts"]
    ledger.counts["plan.batched_points"] += summary["batched_points"]
    ledger.counts["plan.scalar_points"] += summary["scalar_points"]


def _observe_cohort(ledger, args, lanes) -> None:
    ledger.counts["kernel.batched_lanes"] += len(lanes)
    for lane in lanes:
        if lane.diverged_at is not None:
            ledger.counts["kernel.divergences"] += 1
        elif lane.stats is not None:
            ledger.counts["kernel.batched_instructions"] += \
                _instructions(lane.stats)


def _observe_point(ledger, args, result) -> None:
    ledger.counts["kernel.scalar_calls"] += 1
    ledger.counts["kernel.scalar_instructions"] += \
        _instructions(result[0])


def _observe_simulate(ledger, args, result) -> None:
    ledger.counts["kernel.scalar_calls"] += 1
    ledger.counts["kernel.scalar_instructions"] += \
        _instructions(result.stats)


def _observe_get(ledger, args, payload) -> None:
    ledger.counts["cache.hits" if payload is not None
                  else "cache.misses"] += 1


_OBSERVERS = {
    "memory_script": _observe_script,
    "plan_points": _observe_plan,
    "run_cohort": _observe_cohort,
    "simulate_point": _observe_point,
    "simulate": _observe_simulate,
    "ResultCache.get": _observe_get,
}


# Caching layers that count their own builds in a module-level ``stats``
# dict; the ledger reports the difference over the traced region.
BUILD_COUNTERS = (
    ("repro.workloads.interning", "workloads.trace_builds"),
    ("repro.memory.prewarm", "prewarm.builds"),
)


def _builds(module_name: str) -> int:
    module = sys.modules.get(module_name)
    return int(getattr(module, "stats", {}).get("builds", 0))


class installed:
    """Context manager: patch every target with a span wrapper feeding
    ``ledger`` and hook GC pauses; restores everything on exit.

    Targets the program no longer has are skipped and listed in
    ``self.missing``, so the benchmark keeps running when a layer is
    renamed; that layer's row then reads zero."""

    def __init__(self, ledger: Ledger) -> None:
        self.ledger = ledger
        self._undo: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    def __enter__(self) -> "installed":
        for module_name in _CALLERS:
            try:
                importlib.import_module(module_name)
            except ImportError:
                pass
        for module_name, attribute, span in TARGETS:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                self.missing.append(f"{module_name}.{attribute}")
                continue
            owner_name, _, method = attribute.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name, None)
                original = getattr(owner, method, None) \
                    if owner is not None else None
                if original is None:
                    self.missing.append(f"{module_name}.{attribute}")
                    continue
                self._set(owner, method, _wrap(
                    self.ledger, span, original, _OBSERVERS.get(attribute)))
                continue
            original = getattr(module, attribute, None)
            if original is None:
                self.missing.append(f"{module_name}.{attribute}")
                continue
            wrapper = _wrap(self.ledger, span, original,
                            _OBSERVERS.get(attribute))
            for loaded in list(sys.modules.values()):
                if getattr(loaded, "__dict__", {}).get(attribute) \
                        is original:
                    self._set(loaded, attribute, wrapper)
        self._builds = {name: _builds(module)
                        for module, name in BUILD_COUNTERS}
        gc.callbacks.append(self.ledger._on_gc)
        self.ledger.active = True
        self.started = time.perf_counter()
        return self


    def _set(self, owner, attribute: str, value) -> None:
        self._undo.append((owner, attribute, getattr(owner, attribute)))
        setattr(owner, attribute, value)

    def __exit__(self, *exc) -> None:
        if not self.ledger.active:
            return
        self.ledger.active = False
        gc.callbacks.remove(self.ledger._on_gc)
        for module, name in BUILD_COUNTERS:
            self.ledger.counts[name] += _builds(module) - self._builds[name]
        for owner, attribute, original in reversed(self._undo):
            setattr(owner, attribute, original)
        self._undo.clear()


def layer_metrics(ledger: Ledger, wall: float) -> dict[str, float]:
    """The per-layer metrics the in-process spans give, over a traced
    region of ``wall`` seconds (service-only metrics are filled in by the
    service workload)."""
    totals, calls, _ = ledger.self_times()
    counts = ledger.counts

    def rate(instructions: int, seconds: float) -> float:
        return instructions / seconds / 1e6 if seconds > 0 else 0.0

    hits, misses = counts["cache.hits"], counts["cache.misses"]
    return {
        "workloads.trace_s": totals.get("workloads.trace", 0.0),
        "workloads.trace_builds": counts["workloads.trace_builds"],
        "prewarm.template_s": totals.get("prewarm.template", 0.0),
        "prewarm.builds": counts["prewarm.builds"],
        "memscript.build_s": totals.get("memscript.build", 0.0),
        "memscript.builds": counts["memscript.builds"],
        "plan.cohorts": counts["plan.cohorts"],
        "plan.batched_points": counts["plan.batched_points"],
        "plan.scalar_points": counts["plan.scalar_points"],
        "kernel.batched_self_s": totals.get("kernel.batched", 0.0),
        "kernel.batched_lanes": counts["kernel.batched_lanes"],
        "kernel.divergences": counts["kernel.divergences"],
        "kernel.batched_minstr_per_s": rate(
            counts["kernel.batched_instructions"],
            totals.get("kernel.batched", 0.0)),
        "kernel.scalar_self_s": totals.get("kernel.scalar", 0.0),
        "kernel.scalar_calls": counts["kernel.scalar_calls"],
        "kernel.scalar_minstr_per_s": rate(
            counts["kernel.scalar_instructions"],
            totals.get("kernel.scalar", 0.0)),
        "serialize.payload_s": totals.get("serialize.payload", 0.0),
        "serialize.stats_s": totals.get("serialize.stats", 0.0),
        "cache.get_s": totals.get("cache.get", 0.0),
        "cache.put_s": totals.get("cache.put", 0.0),
        "cache.hits": hits,
        "cache.misses": misses,
        "cache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "campaign.unattributed_s": totals.get("campaign", 0.0),
        "runtime.gc_s": ledger.gc_by_thread["MainThread"][0],
        "runtime.gc_gen2": ledger.gc_gen2,
    }
