"""The trace-driven out-of-order core model.

This is a scoreboard-style timing model: instructions are processed in
program order once, and every pipeline constraint is expressed as an
earliest-cycle bound — rename bandwidth, ROB/LQ/SQ occupancy, physical
register availability, dataflow readiness, memory latency, and in-order
commit bandwidth. The result is an O(n) simulation that still exhibits the
phenomena PPA's evaluation is about: PRF exhaustion, store-buffer pressure,
asynchronous persist traffic, and region-boundary stalls.

Functional execution runs alongside timing: physical registers carry
timestamped values and stores log their payloads, giving the failure
injector (:mod:`repro.failure`) ground truth for crash-consistency checks.
"""

from __future__ import annotations

from repro.config import SystemConfig
from repro.isa.decoded import OP_LOAD, OP_STORE, OP_SYNC
from repro.isa.instructions import Opcode, RegClass
from repro.isa.trace import Trace
from repro.memory.hierarchy import MemorySystem
from repro.memory.nvm import NvmModel
from repro.memory.writebuffer import WriteBuffer
from repro.pipeline.regfile import RenamedRegisterFile
from repro.pipeline.resources import BandwidthLimiter, ResourceWindow
from repro.pipeline.stats import CoreStats, StoreRecord
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - type-only import (avoids a cycle)
    from repro.persistence.base import PersistencePolicy

_SYNC_LATENCY = 20
_VALUE_MASK = (1 << 64) - 1
_REGCLASSES = (RegClass.INT, RegClass.FP)


def def_value(pc: int, src_values: tuple[int, ...]) -> int:
    """Deterministic functional value for a register definition."""
    acc = (pc * 0x9E3779B97F4A7C15) & _VALUE_MASK
    for value in src_values:
        acc = (acc ^ value) * 0x100000001B3 & _VALUE_MASK
    return acc


def specialized_hook(policy, name: str):
    """The policy's bound ``name`` hook, or None when it is the base-class
    no-op — letting the main loop skip the call entirely. Checked through
    ``__func__`` so both subclass overrides and instance-level patches
    (tests monkeypatching a bound hook) are honored.
    """
    from repro.persistence.base import PersistencePolicy

    hook = getattr(policy, name)
    if getattr(hook, "__func__", None) is getattr(PersistencePolicy, name):
        return None
    return hook


class OoOCore:
    """One simulated core running one trace under one persistence policy."""

    def __init__(self, config: SystemConfig, policy: "PersistencePolicy",
                 memory: MemorySystem | None = None,
                 nvm: NvmModel | None = None,
                 track_values: bool = True, tracer=None) -> None:
        self.config = config
        self.policy = policy
        self.mem = memory if memory is not None else MemorySystem(
            config.memory, nvm=nvm)
        self.nvm = self.mem.nvm
        # Telemetry: an explicit tracer wins; otherwise consult the ambient
        # tracing() context / REPRO_TRACE. None keeps every instrumentation
        # site on its zero-cost path.
        if tracer is None:
            from repro import telemetry

            tracer = telemetry.tracer_for_run()
        self.tracer = tracer
        if tracer is not None:
            from repro.telemetry import attach_nvm_tracer

            attach_nvm_tracer(self.nvm, tracer)
        core = config.core
        self.rf: dict[RegClass, RenamedRegisterFile] = {
            RegClass.INT: RenamedRegisterFile(
                core.int_prf_size, core.int_arch_regs, "int",
                track_values=track_values),
            RegClass.FP: RenamedRegisterFile(
                core.fp_prf_size, core.fp_arch_regs, "fp",
                track_values=track_values),
        }
        self.wb = WriteBuffer(
            config.ppa.writebuffer_entries, self.nvm,
            residence_cycles=config.ppa.wb_residence_cycles,
            coalescing=config.ppa.persist_coalescing,
            tracer=tracer)
        self.rob = ResourceWindow(core.rob_size, "rob")
        self.lq = ResourceWindow(core.lq_size, "lq")
        self.sq = ResourceWindow(core.sq_size, "sq")
        self.rename_bw = BandwidthLimiter(core.width, "rename")
        self.commit_bw = BandwidthLimiter(core.width, "commit")
        self.track_values = track_values
        self._functional_mem: dict[int, int] = {}
        self.last_commit_time = 0.0
        self.lcpc = 0
        self.stats = CoreStats(scheme=policy.name)
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
        policy.attach(self)

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------

    def run(self, trace: Trace) -> CoreStats:
        """Simulate the whole trace; returns the collected statistics.

        The loop walks the trace's predecoded flat arrays
        (:meth:`Trace.decoded`) and aliases hot callables into locals;
        policy hooks the scheme does not override are skipped outright
        (:func:`specialized_hook`). Pure representation changes — the
        event order and arithmetic are those of the instruction-object
        loop, so results are bit-exact with it.
        """
        policy = self.policy
        stats = self.stats
        stats.name = trace.name
        fetch_ready = 0.0
        last_sample_time = 0.0
        last_commit = self.last_commit_time
        penalty = self.config.core.branch_mispredict_penalty
        lat_agen = self.config.core.lat_agen
        tracer = self.tracer
        track_values = self.track_values

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

        rf_int = self.rf[RegClass.INT]
        rf_fp = self.rf[RegClass.FP]
        rfs = (rf_int, rf_fp)
        rats = (rf_int.rat, rf_fp.rat)
        ready_times = (rf_int._ready, rf_fp._ready)
        hist_int = stats.free_reg_hist_int
        hist_fp = stats.free_reg_hist_fp
        free_count_int = rf_int.free_count
        free_count_fp = rf_fp.free_count

        rob_earliest = self.rob.earliest_allocate
        rob_allocate = self.rob.allocate
        lq_earliest = self.lq.earliest_allocate
        lq_allocate = self.lq.allocate
        sq_earliest = self.sq.earliest_allocate
        sq_allocate = self.sq.allocate
        rename_take = self.rename_bw.take
        commit_take = self.commit_bw.take
        mem_load = self.mem.load
        store_rfo = self.mem.store_rfo
        store_merge = self.mem.store_merge
        functional_mem = self._functional_mem
        commit_append = stats.commit_times.append
        stores_append = stats.stores.append
        load_level_counts = stats.load_level_counts

        # Hooks the policy leaves at the base-class no-op are not called.
        pre_rename = specialized_hook(policy, "pre_rename")
        adjust_commit = specialized_hook(policy, "adjust_commit")
        store_commit_time = specialized_hook(policy, "store_commit_time")
        sync_commit_time = specialized_hook(policy, "sync_commit_time")
        store_queue_release = specialized_hook(policy,
                                               "store_queue_release")
        store_committed = specialized_hook(policy, "store_committed")

        rfo_done = 0.0
        for seq in range(dec.length):
            opcode = opcode_ids[seq]
            # ---------------- rename stage ----------------
            t = rob_earliest(fetch_ready)
            if opcode == OP_LOAD:
                t = lq_earliest(t)
            elif opcode == OP_STORE:
                t = sq_earliest(t)
            if pre_rename is not None:
                t = pre_rename(seq, t)

            preg = -1
            dcls = dest_cls[seq]
            if dcls >= 0:
                rf = rfs[dcls]
                if rf.free_count(t) == 0:
                    stall_from = t
                    while rf.free_count(t) == 0:
                        resume = policy.rename_blocked(
                            _REGCLASSES[dcls], t, seq)
                        stats.rename_oor_stall_cycles += max(0.0,
                                                             resume - t)
                        t = max(t, resume)
                    if tracer is not None and t > stall_from:
                        # One span per out-of-registers episode (possibly
                        # covering several stall-retry iterations).
                        tracer.span("core", "rename-oor", stall_from,
                                    t, cat="stall", cls=rf.name,
                                    seq=seq)

            rename_time = rename_take(t)
            weight = rename_time - last_sample_time
            if weight > 0:
                hist_int[free_count_int(rename_time)] += weight
                hist_fp[free_count_fp(rename_time)] += weight
            last_sample_time = rename_time

            src_pregs = [(cls, rats[cls][index])
                         for cls, index in all_srcs[seq]]
            if dcls >= 0:
                preg = rf.allocate(dest_idx[seq], rename_time)

            # ---------------- execute ----------------
            ready = rename_time + 1.0
            for cls, src in src_pregs:
                src_ready = ready_times[cls][src]
                if src_ready > ready:
                    ready = src_ready

            if opcode == OP_LOAD:
                issue = ready + lat_agen
                result = mem_load(line_addrs[seq], issue)
                complete = issue + result.latency
                load_level_counts[result.level] += 1
            elif opcode == OP_STORE:
                complete = ready + lat_agen
                # Read-for-ownership prefetch: fetch the line now so it is
                # (usually) resident by commit time.
                rfo_done = store_rfo(line_addrs[seq], complete)
            elif opcode == OP_SYNC:
                complete = ready + _SYNC_LATENCY
            else:
                complete = ready + latencies[opcode]

            value = 0
            if track_values:
                src_values = tuple(
                    rfs[cls].value_at(src, complete)
                    for cls, src in src_pregs)
                if opcode == OP_LOAD:
                    value = functional_mem.get(addrs[seq], 0)
                elif opcode == OP_STORE:
                    value = src_values[0]
                else:
                    value = def_value(pcs[seq], src_values)

            if dcls >= 0:
                ready_times[dcls][preg] = complete   # rf.set_ready inline
                if track_values:
                    rf.write_value(preg, complete, value)

            # ---------------- commit ----------------
            tentative = complete + 1.0
            if tentative < last_commit:
                tentative = last_commit
            if adjust_commit is not None:
                tentative = adjust_commit(seq, tentative)
            if opcode == OP_STORE:
                if store_commit_time is not None:
                    tentative = store_commit_time(seq, addrs[seq],
                                                  tentative)
            elif opcode == OP_SYNC:
                if sync_commit_time is not None:
                    tentative = sync_commit_time(tentative, seq)
            commit = commit_take(tentative)
            last_commit = self.last_commit_time = commit
            commit_append(commit)
            rob_allocate(commit)

            if dcls >= 0:
                rf.commit_def(dest_idx[seq], preg, commit)

            if opcode == OP_LOAD:
                lq_allocate(commit)
            elif opcode == OP_STORE:
                merge_time = store_merge(
                    line_addrs[seq], max(commit, rfo_done))
                if store_queue_release is not None:
                    sq_allocate(store_queue_release(seq, addrs[seq],
                                                    merge_time))
                else:
                    sq_allocate(merge_time)
                if track_values:
                    functional_mem[addrs[seq]] = value
                data_cls, data_preg = src_pregs[0]
                record = StoreRecord(
                    seq=seq,
                    pc=pcs[seq],
                    addr=addrs[seq],
                    line_addr=line_addrs[seq],
                    value=value,
                    data_preg=data_preg,
                    data_cls=data_cls,
                    commit_time=commit,
                    region_id=-1,
                )
                # The policy fills in region_id and durable_at; the log
                # keeps the record's final fields.
                if store_committed is not None:
                    store_committed(record, merge_time)
                stores_append(record)

            if mispredicted[seq]:
                fetch_ready = max(fetch_ready, complete + penalty)

        if dec.length:
            self.lcpc = pcs[dec.length - 1]
        stats.instructions = len(trace)
        policy.finish(self.last_commit_time)
        stats.cycles = self.last_commit_time
        stats.nvm_line_writes = self.nvm.stats.line_writes
        stats.nvm_reads = self.nvm.stats.reads
        stats.persist_ops = self.wb.ops_issued
        stats.persist_coalesced = self.wb.ops_coalesced
        stats.wb_full_stall_cycles = self.wb.wb_full_stall_cycles
        stats.extra["l2_miss_rate"] = self.mem.l2_miss_rate()
        stats.extra["eviction_writebacks"] = self.mem.eviction_writebacks
        if self.tracer is not None:
            self.tracer.span("core", f"run {stats.name}", 0.0,
                             stats.cycles, cat="run",
                             scheme=stats.scheme,
                             instructions=stats.instructions,
                             ipc=stats.ipc)
        return stats
