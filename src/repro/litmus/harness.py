"""Litmus conformance: simulator crash states vs the formal allowed set.

For each litmus program and (core, scheme) target the harness

1. enumerates the formal allowed crash-state set (:mod:`.px86`);
2. runs every compiled thread interleaving through the simulator —
   out-of-order runs go through the orchestrator
   :class:`~repro.orchestrator.campaign.Campaign` (pool + L2 cache), the
   in-order model runs in-process on the scalar runner, and the
   multicore check runs each thread's trace through
   :func:`repro.simulate` on its own cold core;
3. extracts the **observed** crash states from the run's persistence
   logs at every instant at which the durable image can change (the NVM
   image is piecewise-constant between durability events, so probing
   exactly those instants observes every reachable image — no
   sampling); for PPA it additionally collects the *post-recovery*
   states (surviving image + CSQ replay) via
   :mod:`repro.sanitizer.oracle`'s power-cut machinery;
4. reports soundness (``observed ⊆ allowed``) and completeness
   (fraction of ``allowed`` the simulator actually reached, with the
   unreached outcomes listed).

An observed-but-forbidden state is a model bug: it raises (under
``strict=True``) or records a first-class :class:`LitmusViolation`
carrying the interleaving and crash instant that produced it.

Scheme nuance: for logging schemes (``psp-undolog``/``psp-redolog``/
``capri``) a store's ``durable_at`` marks when it became *recoverable*
(log entry durable / battery-backed buffer accepted), so the state
checked is the post-recovery crash state — the semantics Px86's crash
states are about. ``baseline``/``eadr``/``dram-only`` persist nothing
(or are battery-backed wholesale) and observe only the initial state.
The software-logging comparators are additionally checked against a
*relaxed* reference model (see :data:`RELAXED_SCHEMES`) because they
honor neither SYNC fences nor cache-line persist FIFOs by design.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import add
from typing import Any, Callable

from repro.litmus.compile import (
    compile_interleaving,
    interleavings,
    location_addrs,
    thread_traces,
    value_map,
)
from repro.litmus.program import LitmusProgram
from repro.litmus.px86 import allowed_crash_states, format_state
from repro.litmus.workload import litmus_point
from repro.orchestrator.points import INORDER_SCHEMES, check_run, config_for

_INF = float("inf")

TARGET_CORES = ("ooo", "inorder", "multicore")
DEFAULT_MAX_INTERLEAVINGS = 24

# The software-logging comparator schemes persist a per-store log/flush
# stream with neither SYNC-fence semantics (ReplayCache's barriers come
# from its compiler-formed regions, not program fences; the PSP undo/redo
# comparators log every store unconditionally) nor cache-line persist
# FIFOs (each store's flush/log admission is its own NVM write, so two
# locations sharing a line persist in admission order, not line order).
# Their formal reference is therefore the *relaxed* program: barriers
# erased and same-line grouping dissolved — per-location FIFO only.
# The hardware persist paths (ppa, sb-gate, capri, and the trivially-
# empty baseline/eadr/dram-only) are held to the full barrier- and
# line-aware model.
RELAXED_SCHEMES = frozenset({"replaycache", "psp-undolog", "psp-redolog"})


def reference_program(program: LitmusProgram,
                      scheme: str) -> LitmusProgram:
    """The program whose formal allowed set ``scheme`` is checked
    against (identity for line/fence-respecting schemes)."""
    if scheme not in RELAXED_SCHEMES:
        return program
    return LitmusProgram(
        name=program.name,
        threads=tuple(
            tuple(op for op in ops if op.kind != "barrier")
            for ops in program.threads),
        same_line=(),
    )


class LitmusViolation(AssertionError):
    """The simulator admitted a crash state the formal model forbids."""

    def __init__(self, program: str, core: str, scheme: str,
                 interleaving: tuple[int, ...] | None, fail_time: float,
                 state_text: str, detail: str = "") -> None:
        self.program = program
        self.core = core
        self.scheme = scheme
        self.interleaving = interleaving
        self.fail_time = fail_time
        self.state_text = state_text
        self.detail = detail
        where = ("multicore run" if interleaving is None else
                 "interleaving " + "".join(str(t) for t in interleaving))
        message = (f"{program} on {core}/{scheme}: forbidden crash state "
                   f"[{state_text}] at t={fail_time:g} ({where})")
        if detail:
            message += f" — {detail}"
        super().__init__(message)


@dataclass(frozen=True)
class ObservedState:
    """One observed crash state with its provenance."""

    state: tuple[int, ...] | None
    fail_time: float
    interleaving: tuple[int, ...] | None
    source: str                 # "nvm" | "recovered"
    detail: str = ""


@dataclass
class ConformanceResult:
    """Outcome of one (program, core, scheme) conformance check."""

    program: str
    core: str
    scheme: str
    allowed: frozenset = frozenset()
    observed: dict = field(default_factory=dict)   # state -> first witness
    violations: list[ObservedState] = field(default_factory=list)
    runs: int = 0
    crash_points: int = 0
    skipped: str = ""
    locations: tuple[str, ...] = ()

    @property
    def sound(self) -> bool:
        return not self.violations

    @property
    def coverage(self) -> float:
        """Fraction of the formally-allowed states the simulator reached.
        """
        if not self.allowed:
            return 1.0
        reached = sum(1 for s in self.observed if s in self.allowed)
        return reached / len(self.allowed)

    @property
    def unreached(self) -> list[tuple[int, ...]]:
        return sorted(self.allowed - set(self.observed))

    def _render(self, state: tuple[int, ...]) -> str:
        return " ".join(f"{loc}={value}"
                        for loc, value in zip(self.locations, state))

    def to_dict(self) -> dict[str, Any]:
        return {
            "program": self.program,
            "core": self.core,
            "scheme": self.scheme,
            "skipped": self.skipped,
            "sound": self.sound,
            "coverage": self.coverage,
            "allowed": len(self.allowed),
            "observed": len(self.observed),
            "runs": self.runs,
            "crash_points": self.crash_points,
            "unreached": [self._render(s) for s in self.unreached],
            "violations": [
                {
                    "state": v.detail if v.state is None
                    else self._render(v.state),
                    "fail_time": v.fail_time,
                    "interleaving": list(v.interleaving or ()),
                    "source": v.source,
                }
                for v in self.violations
            ],
        }


@dataclass
class SuiteReport:
    """All conformance results of one ``repro.litmus run``."""

    results: list[ConformanceResult] = field(default_factory=list)

    @property
    def soundness_violations(self) -> int:
        return sum(len(r.violations) for r in self.results)

    @property
    def checked(self) -> int:
        return sum(1 for r in self.results if not r.skipped)

    @property
    def ok(self) -> bool:
        return self.checked > 0 and self.soundness_violations == 0

    @property
    def min_coverage(self) -> float:
        live = [r.coverage for r in self.results if not r.skipped]
        return min(live) if live else 0.0

    @property
    def mean_coverage(self) -> float:
        live = [r.coverage for r in self.results if not r.skipped]
        return sum(live) / len(live) if live else 0.0

    def to_dict(self) -> dict[str, Any]:
        return {
            "ok": self.ok,
            "checked": self.checked,
            "skipped": len(self.results) - self.checked,
            "soundness_violations": self.soundness_violations,
            "min_coverage": self.min_coverage,
            "mean_coverage": self.mean_coverage,
            "results": [r.to_dict() for r in self.results],
        }

    def to_text(self, verbose: bool = False) -> str:
        lines = ["== litmus conformance =="]
        for r in self.results:
            if r.skipped:
                lines.append(f"[skip] {r.program:14s} {r.core}/{r.scheme}: "
                             f"{r.skipped}")
                continue
            mark = "OK  " if r.sound else "FAIL"
            lines.append(
                f"[{mark}] {r.program:14s} {r.core}/{r.scheme:12s} "
                f"observed {len(r.observed)}/{len(r.allowed)} allowed "
                f"(coverage {r.coverage:.2f}, {r.runs} runs, "
                f"{r.crash_points} crash points)")
            for violation in r.violations:
                state = (violation.detail if violation.state is None
                         else r._render(violation.state))
                lines.append(f"       VIOLATION [{state}] "
                             f"t={violation.fail_time:g} "
                             f"source={violation.source}")
            if verbose and r.unreached:
                rendered = ", ".join(r._render(s) for s in r.unreached)
                lines.append(f"       unreached: {rendered}")
        lines.append(
            f"{self.checked} checks, {self.soundness_violations} soundness "
            f"violations, coverage min {self.min_coverage:.2f} / "
            f"mean {self.mean_coverage:.2f} -> "
            f"{'OK' if self.ok else 'FAIL'}")
        return "\n".join(lines)


def target_matrix(cores=None, schemes=None) -> list[tuple[str, str]]:
    """The (core, scheme) pairs a suite run covers. The in-order model
    only implements ``ppa``/``baseline``; other requested schemes are
    silently dropped for it. An unknown core or scheme raises
    ``ValueError``."""
    from repro.persistence.catalog import scheme_names

    cores = TARGET_CORES if cores is None else tuple(cores)
    for core in cores:
        if core not in TARGET_CORES:
            raise ValueError(f"unknown core {core!r}; "
                             f"options: {TARGET_CORES}")
    all_schemes = tuple(scheme_names()) if schemes is None else \
        tuple(schemes)
    for scheme in all_schemes:
        if scheme not in scheme_names():
            raise ValueError(f"unknown scheme {scheme!r}; "
                             f"options: {scheme_names()}")
    matrix: list[tuple[str, str]] = []
    for core in cores:
        pool = (tuple(s for s in all_schemes if s in INORDER_SCHEMES)
                if core == "inorder" else all_schemes)
        matrix.extend((core, scheme) for scheme in pool)
    return matrix


# ---------------------------------------------------------------------------
# Observed-state extraction
# ---------------------------------------------------------------------------

def _decode_image(image: dict[int, int], program: LitmusProgram,
                  loc_addrs: dict[str, int],
                  vmap: dict[int, tuple[str, int]]
                  ) -> tuple[tuple[int, ...] | None, str]:
    """Abstract crash state from a concrete NVM image; non-litmus
    addresses (log lines, redo entries) are ignored. A payload no store
    produced — or one landing at the wrong location — is itself a
    violation, reported via the error string."""
    values = list(program.initial_state())
    for index, loc in enumerate(program.locations):
        concrete = image.get(loc_addrs[loc])
        if concrete is None:
            continue
        entry = vmap.get(concrete)
        if entry is None:
            return None, f"NVM[{loc}] holds unknown payload {concrete:#x}"
        if entry[0] != loc:
            return None, (f"NVM[{loc}] holds the payload of "
                          f"{entry[0]}={entry[1]}")
        values[index] = entry[1]
    return tuple(values), ""


def _image_snapshots(store_lists, litmus_addrs):
    """Cumulative ``(fail_time, image)`` snapshots from store records.

    ``store_lists`` is ``[(tid, stores)]``; a store is durable at
    ``durable_at`` (``inf`` = never). Snapshots land exactly at the
    distinct durability instants plus the initial (pre-first) state.
    """
    events = []
    for tid, stores in store_lists:
        for s in stores:
            if s.durable_at != _INF and s.addr in litmus_addrs:
                events.append((s.durable_at, tid, s.seq, s.addr, s.value))
    events.sort()
    snapshots = [(0.0, {})]
    image: dict[int, int] = {}
    index = 0
    while index < len(events):
        now = events[index][0]
        while index < len(events) and events[index][0] == now:
            image[events[index][3]] = events[index][4]
            index += 1
        snapshots.append((now, dict(image)))
    return snapshots


class _Check:
    """Shared state of one (program, core, scheme) conformance check."""

    def __init__(self, program: LitmusProgram, core: str, scheme: str,
                 strict: bool) -> None:
        self.program = program
        self.strict = strict
        self.loc_addrs = location_addrs(program)
        self.litmus_addrs = frozenset(self.loc_addrs.values())
        self.vmap = value_map(program)
        self.result = ConformanceResult(
            program=program.name, core=core, scheme=scheme,
            allowed=allowed_crash_states(reference_program(program, scheme)),
            locations=program.locations)

    def note(self, fail_time: float, image: dict[int, int], source: str,
             interleaving: tuple[int, ...] | None) -> None:
        state, error = _decode_image(image, self.program, self.loc_addrs,
                                     self.vmap)
        self.result.crash_points += 1
        witness = ObservedState(state=state, fail_time=fail_time,
                                interleaving=interleaving, source=source,
                                detail=error)
        if state is None or state not in self.result.allowed:
            self.result.violations.append(witness)
            if self.strict:
                text = (error if state is None
                        else format_state(self.program, state))
                raise LitmusViolation(
                    self.program.name, self.result.core,
                    self.result.scheme, interleaving, fail_time, text,
                    detail=error)
            return
        self.result.observed.setdefault(state, witness)


def _check_ooo(check: _Check, scheme: str, config, inters, jobs, cache,
               campaign_kwargs) -> None:
    from repro.orchestrator.campaign import Campaign

    campaign = Campaign(cache=cache, jobs=jobs, **campaign_kwargs)
    for interleaving in inters:
        campaign.add(litmus_point(check.program, interleaving, scheme,
                                  config=config))
    results = campaign.run()
    for interleaving, point_result in zip(inters, results):
        if not point_result.ok:
            raise RuntimeError(
                f"litmus point {point_result.point.name} failed: "
                f"{point_result.error}")
        stats = point_result.stats
        check.result.runs += 1
        if scheme == "ppa" and point_result.persist_log is not None:
            _observe_ppa_ooo(check, stats, point_result.persist_log,
                             interleaving)
        else:
            snapshots = _image_snapshots([(0, stats.stores)],
                                         check.litmus_addrs)
            for fail_time, image in snapshots:
                check.note(fail_time, image, "nvm", interleaving)


def _observe_ppa_ooo(check: _Check, stats, persist_log,
                     interleaving) -> None:
    """PPA's high-fidelity path: raw images via the failure injector at
    every durability instant, post-recovery states at every commit /
    durability / region-close instant, plus a crash-sweep consistency
    pass over the same machinery."""
    from repro.failure.injector import PowerFailureInjector
    from repro.sanitizer.oracle import crash_state_at, crash_sweep

    injector = PowerFailureInjector(stats, persist_log)
    times = injector.durability_times()
    for fail_time in [0.0] + times:
        check.note(fail_time, injector.nvm_image_at(fail_time), "nvm",
                   interleaving)
    recovery_times = sorted(
        set(times)
        | {s.commit_time for s in stats.stores}
        | set(injector.region_close_times().values()))
    for fail_time in [0.0] + recovery_times:
        state = crash_state_at(stats, injector, fail_time)
        check.note(fail_time, state.recovered_image, "recovered",
                   interleaving)
    sweep = crash_sweep(stats, persist_log, samples=16, seed=0)
    for failure in sweep.failures:
        witness = ObservedState(
            state=None, fail_time=failure.fail_time,
            interleaving=interleaving, source="recovered",
            detail=f"crash-sweep recovery inconsistent "
                   f"({failure.mismatches} mismatches)")
        check.result.violations.append(witness)
        if check.strict:
            raise LitmusViolation(
                check.program.name, check.result.core, check.result.scheme,
                interleaving, failure.fail_time, witness.detail)


def _check_inorder(check: _Check, scheme: str, config, inters) -> None:
    from repro.orchestrator.execute import run_scalar

    for interleaving in inters:
        trace = compile_interleaving(check.program, interleaving)
        check.result.runs += 1
        # ppa runs on the in-order persistent processor, baseline on the
        # bare non-persistent core.
        stats, proc = run_scalar(trace, config, scheme, core="inorder")
        if scheme != "ppa":
            # Nothing persists without a policy; only the initial state
            # is observable — and the write buffer must agree.
            if proc.wb.log:
                raise RuntimeError(
                    "non-persistent in-order core persisted stores")
            check.note(0.0, {}, "nvm", interleaving)
            continue
        times = sorted({
            durable_time
            for op in proc.core.wb.log if op.submitted
            for durable_time, __, __ in op.writes
        })
        for fail_time in [0.0] + times:
            check.note(fail_time, proc.nvm_image_at(fail_time), "nvm",
                       interleaving)
        recovery_times = sorted(
            set(times)
            | set(stats.entries.commit_time)
            | set(map(add, stats.regions.boundary_time,
                      stats.regions.drain_wait)))
        for fail_time in [0.0] + recovery_times:
            recovery = proc.recover(proc.crash_at(fail_time))
            check.note(fail_time, recovery.nvm_image, "recovered",
                       interleaving)


def _check_multicore(check: _Check, scheme: str, config) -> None:
    from repro.facade import simulate

    program = check.program
    if not program.store_disjoint:
        check.result.skipped = (
            "multicore threads own disjoint memories; needs "
            "store-disjoint locations")
        return
    # Each thread runs alone on its own cold core; the threads share no
    # memory, so their durable images simply combine.
    per_thread = [simulate(trace, scheme=scheme, config=config).stats
                  for trace in thread_traces(program)]
    check.result.runs += 1
    snapshots = _image_snapshots(
        [(tid, stats.stores) for tid, stats in enumerate(per_thread)],
        check.litmus_addrs)
    for fail_time, image in snapshots:
        check.note(fail_time, image, "nvm", None)


def check_program(program: LitmusProgram, core: str = "ooo",
                  scheme: str = "ppa", *, config=None,
                  max_interleavings: int = DEFAULT_MAX_INTERLEAVINGS,
                  jobs: int = 1, cache=None, strict: bool = False,
                  sanitize: bool | None = None) -> ConformanceResult:
    """Check one program against one (core, scheme) target.

    ``strict=True`` raises :class:`LitmusViolation` at the first
    forbidden state; otherwise violations collect in the result.
    ``jobs``/``cache`` parallelize and memoize the out-of-order runs
    through the orchestrator campaign machinery.
    """
    config = config_for(scheme, config)
    check = _Check(program, core, scheme, strict)
    campaign_kwargs = {} if sanitize is None else {"sanitize": sanitize}
    if core == "ooo":
        inters = interleavings(program, limit=max_interleavings)
        _check_ooo(check, scheme, config, inters, jobs, cache,
                   campaign_kwargs)
    elif core == "inorder":
        check_run(core, scheme)
        inters = interleavings(program, limit=max_interleavings)
        _check_inorder(check, scheme, config, inters)
    elif core == "multicore":
        _check_multicore(check, scheme, config)
    else:
        raise ValueError(f"unknown core {core!r}; options: {TARGET_CORES}")
    return check.result


ProgressFn = Callable[[str, int, int], None]


def run_suite(programs=None, targets=None, *, config=None,
              max_interleavings: int = DEFAULT_MAX_INTERLEAVINGS,
              jobs: int = 1, cache=None, strict: bool = False,
              sanitize: bool | None = None,
              progress: ProgressFn | None = None) -> SuiteReport:
    """Run the conformance matrix: every program against every target."""
    from repro.litmus.families import curated_suite

    if programs is None:
        programs = curated_suite()
    if targets is None:
        targets = target_matrix()
    report = SuiteReport()
    total = len(programs) * len(targets)
    index = 0
    for program in programs:
        for core, scheme in targets:
            if progress is not None:
                progress(f"{program.name}:{core}/{scheme}", index, total)
            index += 1
            report.results.append(check_program(
                program, core, scheme, config=config,
                max_interleavings=max_interleavings, jobs=jobs,
                cache=cache, strict=strict, sanitize=sanitize))
    return report
