"""Forward progress under episodic power (the EHS lineage, Section 2.3).

Power is available in fixed-length on-windows separated by outages. At the
end of each window the machine loses volatile state; what happens next
depends on the recovery discipline:

* ``"ppa"`` — resume right after the last committed instruction (the
  paper's protocol: JIT checkpoint, CSQ replay, LCPC+1), paying the
  checkpoint-restore and replay latency;
* ``"region-restart"`` — roll back to the start of the interrupted region
  (what a region system without LCPC-precision resumption would do);
* ``"restart"`` — no persistence: every outage restarts the program.

Execution timing reuses the commit timeline of one uninterrupted run: after
resuming at instruction *r*, instruction *s* completes after
``commit_times[s] - commit_times[r]`` further cycles. That ignores cache
re-warming after an outage, which affects all three disciplines alike.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

from repro.core.checkpoint import CheckpointPlan
from repro.core.processor import PersistentProcessor
from repro.isa.trace import Trace

_DISCIPLINES = ("ppa", "region-restart", "restart")


@dataclass
class IntermittentOutcome:
    """Result of running one workload under episodic power."""

    discipline: str
    window_cycles: float
    completed: bool
    outages: int
    total_on_cycles: float
    instructions: int
    replayed_stores: int

    @property
    def progress_efficiency(self) -> float:
        """Useful cycles (one uninterrupted run) over powered cycles."""
        if self.total_on_cycles <= 0:
            return 0.0
        return min(1.0, self.useful_cycles / self.total_on_cycles)

    useful_cycles: float = 0.0


class IntermittentScenario:
    """Episodic-power replay of a PPA run."""

    def __init__(self, processor: PersistentProcessor,
                 trace: Trace) -> None:
        self.processor = processor
        self.trace = trace
        self.stats = processor.run(trace)
        plan = CheckpointPlan.for_config(processor.config)
        clock = processor.config.core.clock_ghz
        # Restore cost: re-read the checkpoint (same budget as writing).
        self.recovery_overhead_cycles = plan.total_us * 1e3 * clock

    def _progress_from(self, resume_seq: int, budget: float) -> int:
        """Last committed instruction when running from ``resume_seq``
        with ``budget`` powered cycles (exclusive of recovery costs)."""
        commits = self.stats.commit_times
        base = commits[resume_seq - 1] if resume_seq > 0 else 0.0
        return bisect_right(commits, base + budget) - 1

    def _region_start_of(self, seq: int) -> int:
        for region in self.stats.regions:
            if region.start_seq <= seq < region.end_seq:
                return region.start_seq
        return 0

    def run(self, window_cycles: float, discipline: str = "ppa",
            max_outages: int = 10_000) -> IntermittentOutcome:
        """Run to completion (or until progress stops)."""
        if discipline not in _DISCIPLINES:
            raise ValueError(
                f"unknown discipline {discipline!r}; options: "
                f"{_DISCIPLINES}")
        if window_cycles <= 0:
            raise ValueError("on-window must be positive")

        total = len(self.trace)
        resume_seq = 0
        outages = 0
        on_cycles = 0.0
        replayed = 0
        while outages < max_outages:
            budget = window_cycles
            if outages > 0 and discipline != "restart":
                budget -= self.recovery_overhead_cycles
                if discipline == "ppa":
                    # Replay the interrupted region's committed stores.
                    csq = self.processor.injector.csq_at(
                        self.stats.commit_times[resume_seq - 1]
                        if resume_seq > 0 else 0.0)
                    replayed += len(csq)
                    budget -= len(csq) * 2.0   # one write per cycle pair
            if budget <= 0:
                break  # the window cannot even cover recovery: stagnation
            last = self._progress_from(resume_seq, budget)
            on_cycles += window_cycles
            if last >= total - 1:
                return IntermittentOutcome(
                    discipline=discipline, window_cycles=window_cycles,
                    completed=True, outages=outages,
                    total_on_cycles=on_cycles, instructions=total,
                    replayed_stores=replayed,
                    useful_cycles=self.stats.cycles)
            outages += 1
            if discipline == "ppa":
                next_resume = last + 1
            elif discipline == "region-restart":
                next_resume = self._region_start_of(max(last, 0))
            else:
                next_resume = 0
            if next_resume <= resume_seq and discipline != "restart":
                break  # no forward progress: stagnation
            if discipline == "restart" and last < resume_seq:
                break
            resume_seq = max(resume_seq, next_resume) \
                if discipline != "restart" else 0
            if discipline == "restart" and outages > 0 and \
                    window_cycles < self.stats.cycles:
                break  # restart-from-scratch can never finish

        useful = (self.stats.commit_times[resume_seq - 1]
                  if resume_seq > 0 else 0.0)
        return IntermittentOutcome(
            discipline=discipline, window_cycles=window_cycles,
            completed=False, outages=outages, total_on_cycles=on_cycles,
            instructions=total, replayed_stores=replayed,
            useful_cycles=useful)
