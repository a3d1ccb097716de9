"""Crash/recovery life cycle for the in-order value-CSQ variant.

Recovery is even simpler than on the out-of-order core: the checkpointed
CSQ already contains the data values, so power-up replays (address, value)
pairs directly and resumes after the last committed instruction — no
register restore is involved (Section 6).
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from operator import add

from repro.config import SystemConfig, skylake_default
from repro.inorder.core import InOrderCore, InOrderStats
from repro.inorder.value_csq import ValueCsqEntry
from repro.isa.trace import Trace
from repro.memory.hierarchy import MemorySystem


@dataclass
class InOrderCrashState:
    """What survives a power failure on the in-order core."""

    fail_time: float
    nvm_image: dict[int, int]
    csq: list[ValueCsqEntry]
    last_committed_seq: int
    resume_pc: int


@dataclass
class InOrderRecovery:
    nvm_image: dict[int, int]
    replayed: int = 0
    replay_log: list[tuple[int, int]] = field(default_factory=list)


class InOrderPersistentProcessor:
    """An in-order core with value-CSQ whole-system persistence."""

    def __init__(self, config: SystemConfig | None = None,
                 memory: MemorySystem | None = None) -> None:
        self.config = config if config is not None else skylake_default()
        # ``memory`` injects a prepared MemorySystem; None builds a cold one.
        self.core = InOrderCore(self.config, memory=memory, persistent=True)
        self.stats: InOrderStats | None = None
        self._trace: Trace | None = None

    def run(self, trace: Trace) -> InOrderStats:
        """Simulate the trace to completion on the in-order core."""
        self._trace = trace
        self.stats = self.core.run(trace)
        return self.stats

    def _require_run(self) -> InOrderStats:
        if self.stats is None:
            raise RuntimeError("run a trace before injecting failures")
        return self.stats

    def nvm_image_at(self, fail_time: float) -> dict[int, int]:
        """Persistence-domain contents at ``fail_time`` (same rules as the
        out-of-order injector: admitted line ops, merged writes)."""
        durable: list[tuple[float, int, int, int]] = []
        order = 0
        for op in sorted(self.core.wb.log, key=lambda o: o.durable_at):
            if op.durable_at > fail_time:
                break
            for durable_time, addr, value in op.writes:
                if durable_time <= fail_time:
                    durable.append((durable_time, order, addr, value))
                    order += 1
        durable.sort()
        image: dict[int, int] = {}
        for __, __, addr, value in durable:
            image[addr] = value
        return image

    def _csq_at(self, fail_time: float) -> list[ValueCsqEntry]:
        stats = self._require_run()
        regions, log = stats.regions, stats.entries
        closes = list(map(add, regions.boundary_time, regions.drain_wait))
        ends = regions.end_seq
        entries = []
        region_index = 0
        for index, (seq, commit) in enumerate(zip(log.seq,
                                                  log.commit_time)):
            while region_index < len(ends) and seq >= ends[region_index]:
                region_index += 1
            close = closes[region_index] if region_index < len(closes) \
                else float("inf")
            if commit <= fail_time < close:
                entries.append(log[index])
        return entries

    def crash_at(self, fail_time: float) -> InOrderCrashState:
        stats = self._require_run()
        assert self._trace is not None
        last_seq = bisect_right(stats.commit_times, fail_time) - 1
        resume_pc = (self._trace.decoded().pcs[last_seq] + 1
                     if last_seq >= 0 else 0)
        return InOrderCrashState(
            fail_time=fail_time,
            nvm_image=self.nvm_image_at(fail_time),
            csq=self._csq_at(fail_time),
            last_committed_seq=last_seq,
            resume_pc=resume_pc,
        )

    @staticmethod
    def recover(crash: InOrderCrashState) -> InOrderRecovery:
        """Replay the value CSQ front-to-rear onto the surviving image."""
        log = []
        for entry in crash.csq:
            crash.nvm_image[entry.addr] = entry.value
            log.append((entry.addr, entry.value))
        return InOrderRecovery(nvm_image=crash.nvm_image,
                               replayed=len(log), replay_log=log)
