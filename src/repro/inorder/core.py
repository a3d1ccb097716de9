"""A simple in-order core model with value-CSQ whole-system persistence.

The pipeline issues at most ``width`` instructions per cycle, strictly in
order: an instruction stalls at issue until its sources are ready, and
everything younger stalls behind it. Memory operations use the same
hierarchy models as the out-of-order core.

Persistence follows Section 6's in-order recipe: every committed store's
(address, value) enters the :class:`ValueCsq` and its line is persisted
asynchronously through the write buffer; a full CSQ or a SYNC is a region
boundary that waits for the persist counter; no MaskReg or register
preservation is needed because the CSQ carries the data itself.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from typing import Any

from repro.config import SystemConfig
from repro.core.region import RegionTracker
from repro.isa.decoded import OP_LOAD, OP_STORE, OP_SYNC
from repro.isa.instructions import Opcode, RegClass
from repro.isa.trace import Trace
from repro.memory.hierarchy import MemorySystem
from repro.memory.writebuffer import WriteBuffer
from repro.pipeline.resources import BandwidthLimiter
from repro.pipeline.stats import ColumnarStats, RegionLog
from repro.inorder.value_csq import CsqLog, ValueCsq, ValueCsqEntry

_SYNC_LATENCY = 20
_VALUE_MASK = (1 << 64) - 1


@dataclass
class InOrderStats(ColumnarStats):
    """Outcome of one in-order run. The region and value-CSQ logs are
    kept as columns, as :class:`repro.pipeline.stats.CoreStats` keeps
    its logs."""

    name: str = ""
    instructions: int = 0
    cycles: float = 0.0
    regions: RegionLog = field(default_factory=RegionLog)
    entries: CsqLog = field(default_factory=CsqLog)
    # Commit cycle of every instruction, in program order.
    commit_times: array = field(default_factory=lambda: array("d"))
    nvm_line_writes: int = 0
    wb_full_stall_cycles: float = 0.0

    stats_kind = "inorder"
    logs = {"regions": RegionLog, "entries": CsqLog}

    @property
    def ipc(self) -> float:
        return self.instructions / self.cycles if self.cycles else 0.0

    @property
    def region_end_stall_cycles(self) -> float:
        return sum(RegionLog.of(self.regions).drain_wait)

    def to_columns(self) -> dict[str, Any]:
        """``to_dict`` with the logs left as :class:`Columns` and
        ``commit_times`` not copied (see ``CoreStats.to_columns``)."""
        return {
            "name": self.name,
            "instructions": self.instructions,
            "cycles": self.cycles,
            "regions": RegionLog.of(self.regions).columns,
            "entries": CsqLog.of(self.entries).columns,
            "commit_times": self.commit_times,
            "nvm_line_writes": self.nvm_line_writes,
            "wb_full_stall_cycles": self.wb_full_stall_cycles,
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "InOrderStats":
        """Inverse of ``to_dict``; also reads ``to_columns`` as a packed
        payload decodes it, building no record."""
        return cls(
            name=data["name"],
            instructions=data["instructions"],
            cycles=data["cycles"],
            regions=RegionLog.from_json(data["regions"]),
            entries=CsqLog.from_json(data["entries"]),
            commit_times=array("d", data["commit_times"]),
            nvm_line_writes=data["nvm_line_writes"],
            wb_full_stall_cycles=data["wb_full_stall_cycles"],
        )

    def merge(self, other: "InOrderStats") -> "InOrderStats":
        if not self.name:
            self.name = other.name
        elif other.name and other.name != self.name:
            self.name = f"{self.name}+{other.name}"
        self.instructions += other.instructions
        self.cycles = max(self.cycles, other.cycles)
        self.regions.extend(other.regions)
        self.entries.extend(other.entries)
        self.commit_times.extend(other.commit_times)
        self.nvm_line_writes += other.nvm_line_writes
        self.wb_full_stall_cycles += other.wb_full_stall_cycles
        return self

    def __iadd__(self, other: "InOrderStats") -> "InOrderStats":
        return self.merge(other)


class InOrderCore:
    """Scalar/in-order timing model with value-CSQ persistence."""

    def __init__(self, config: SystemConfig,
                 memory: MemorySystem | None = None,
                 persistent: bool = True, tracer=None) -> None:
        self.config = config
        self.mem = memory if memory is not None else MemorySystem(
            config.memory)
        if tracer is None:
            from repro import telemetry

            tracer = telemetry.tracer_for_run()
        self.tracer = tracer
        if tracer is not None:
            from repro.telemetry import attach_nvm_tracer

            attach_nvm_tracer(self.mem.nvm, tracer)
        self.wb = WriteBuffer(config.ppa.writebuffer_entries, self.mem.nvm,
                              coalescing=config.ppa.persist_coalescing,
                              tracer=tracer)
        self.csq = ValueCsq(config.ppa.csq_entries)
        self.persistent = persistent
        self.issue_bw = BandwidthLimiter(config.core.width, "issue")
        core = config.core
        self._latency = {
            Opcode.INT_ALU: core.lat_int_alu,
            Opcode.INT_MUL: core.lat_int_mul,
            Opcode.INT_DIV: core.lat_int_div,
            Opcode.FP_ALU: core.lat_fp_alu,
            Opcode.FP_MUL: core.lat_fp_mul,
            Opcode.FP_DIV: core.lat_fp_div,
            Opcode.BRANCH: core.lat_branch,
            Opcode.CMP: core.lat_int_alu,
        }
        # Architectural register ready-times and values (no renaming).
        self._ready = {
            RegClass.INT: [0.0] * core.int_arch_regs,
            RegClass.FP: [0.0] * core.fp_arch_regs,
        }
        self._values = {
            RegClass.INT: [0] * core.int_arch_regs,
            RegClass.FP: [0] * core.fp_arch_regs,
        }
        self._functional_mem: dict[int, int] = {}
        # Region accounting is delegated to the shared RegionTracker
        # (created per run, since it appends into that run's stats).
        self.regions: RegionTracker | None = None

    def _close_region(self, end_seq: int, boundary: float,
                      cause: str) -> float:
        assert self.regions is not None
        drain = self.wb.region_drain_time(boundary)
        self.wb.reset_region(drain)
        self.csq.clear()
        self.regions.close(end_seq, boundary, drain, cause)
        return drain

    def run(self, trace: Trace) -> InOrderStats:
        """Execute the trace in order; returns statistics + store log.

        Like the out-of-order core, the loop consumes the trace's
        predecoded flat arrays and aliases hot callables — representation
        only; the event order and arithmetic of the instruction-object
        loop are preserved bit-exactly.
        """
        stats = InOrderStats(name=trace.name)
        self.regions = RegionTracker(stats.regions, tracer=self.tracer)
        regions = self.regions
        time = 0.0
        last_commit = 0.0
        penalty = self.config.core.branch_mispredict_penalty
        tracer = self.tracer
        persistent = self.persistent

        dec = trace.decoded()
        opcode_ids = dec.opcode_ids
        dest_cls = dec.dest_cls
        dest_idx = dec.dest_idx
        all_srcs = dec.srcs
        addrs = dec.addrs
        line_addrs = dec.line_addrs
        pcs = dec.pcs
        mispredicted = dec.mispredicted
        latencies = dec.latency_table(self._latency)

        ready_times = (self._ready[RegClass.INT], self._ready[RegClass.FP])
        values = (self._values[RegClass.INT], self._values[RegClass.FP])
        issue_take = self.issue_bw.take
        mem_load = self.mem.load
        store_merge = self.mem.store_merge
        wb = self.wb
        csq = self.csq
        functional_mem = self._functional_mem
        entries_append = stats.entries.append
        commit_append = stats.commit_times.append

        for seq in range(dec.length):
            srcs = all_srcs[seq]
            ready = time
            for cls, index in srcs:
                src_ready = ready_times[cls][index]
                if src_ready > ready:
                    ready = src_ready
            issue = issue_take(ready)

            opcode = opcode_ids[seq]
            if opcode == OP_LOAD:
                result = mem_load(line_addrs[seq], issue)
                complete = issue + 1 + result.latency
                value = functional_mem.get(addrs[seq], 0)
            elif opcode == OP_STORE:
                complete = issue + 1
                data_cls, data_idx = srcs[0]
                value = values[data_cls][data_idx]
            elif opcode == OP_SYNC:
                complete = issue + _SYNC_LATENCY
                value = 0
            else:
                complete = issue + latencies[opcode]
                value = 0
                if dest_cls[seq] >= 0:
                    acc = (pcs[seq] * 0x9E3779B97F4A7C15) & _VALUE_MASK
                    for cls, index in srcs:
                        acc = (acc ^ values[cls][index]) \
                            * 0x100000001B3 & _VALUE_MASK
                    value = acc

            dcls = dest_cls[seq]
            if dcls >= 0:
                ready_times[dcls][dest_idx[seq]] = complete
                values[dcls][dest_idx[seq]] = value

            # In-order retirement: commits never reorder.
            commit = max(complete + 1.0, last_commit)
            if opcode == OP_STORE and persistent:
                if csq.is_full:
                    commit = max(commit,
                                 self._close_region(seq, commit, "csq"))
                entry = ValueCsqEntry(seq=seq, addr=addrs[seq],
                                      value=value, commit_time=commit)
                csq.push(entry)
                entries_append(entry)
                regions.note_store()
                merge = store_merge(line_addrs[seq], commit)
                # Commits are monotone and merges trail them: a sound
                # floor for evicting closed coalescing windows.
                wb.advance_floor(commit)
                wb.persist_store(line_addrs[seq], merge,
                                 addr=addrs[seq], value=value)
                if tracer is not None:
                    durable = max(commit, wb.last_store_durable)
                    tracer.span("stores", f"store {seq}", commit,
                                durable, cat="store", pc=pcs[seq],
                                line=line_addrs[seq],
                                region=regions.region_id)
                    tracer.metrics.histogram(
                        "store.commit_to_durable").add(durable - commit)
            elif opcode == OP_STORE:
                store_merge(line_addrs[seq], commit)
            if opcode == OP_STORE:
                functional_mem[addrs[seq]] = value
            elif opcode == OP_SYNC and persistent:
                commit = max(commit,
                             self._close_region(seq + 1, commit, "sync"))

            if mispredicted[seq]:
                time = max(time, complete + penalty)
            else:
                time = max(time, issue)
            last_commit = commit
            commit_append(commit)

        end_time = stats.commit_times[-1] if stats.commit_times else 0.0
        if self.persistent:
            self._close_region(len(trace), end_time, "end")
        stats.instructions = len(trace)
        stats.cycles = end_time
        stats.nvm_line_writes = self.mem.nvm.stats.line_writes
        stats.wb_full_stall_cycles = self.wb.wb_full_stall_cycles
        return stats
