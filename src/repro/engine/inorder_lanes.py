"""The in-order batched kernel: value-CSQ lanes, one at a time.

Same contract as the out-of-order kernel (:mod:`repro.engine.batched`),
applied to the in-order core model (:mod:`repro.inorder.core`): a cohort
of ``core="inorder"`` points sharing one interned trace and cache
geometry runs as a prologue plus one walk per lane, bit-exact with
``InOrderCore.run``.

The prologue loads two cohort-invariant computations, both cached per
trace by :mod:`repro.engine.memscript`:

* the memory entries of the trace's in-order memory script, compiled
  with ``core="inorder"`` — the in-order core never issues RFOs, so its
  stores evolve the caches differently from the out-of-order core's;
* for ``"ppa"``, the trace's store-value stream
  (:func:`repro.engine.memscript.value_stream`), shared with the
  out-of-order kernel: architectural values depend only on program
  order, never on timing, so one pass per trace gives every lane's CSQ
  payloads.

The in-order facade always runs cold (no warmup), and both supported
schemes (:data:`repro.orchestrator.points.INORDER_SCHEMES`) share the
walk: ``"ppa"`` drives the value CSQ + write buffer, ``"baseline"``
replays only the cache/NVM side effects of store merges.
"""

from __future__ import annotations

from array import array
from time import perf_counter

from repro.engine.batched import (
    _INF,
    _latency_list,
    nvm_device,
    run_lanes,
    write_buffer,
)
from repro.engine.memscript import MODE_CONST, memory_script, value_stream
from repro.inorder.core import InOrderStats
from repro.inorder.value_csq import CsqLog
from repro.isa.decoded import OP_LOAD, OP_STORE, OP_SYNC
from repro.pipeline.core import _SYNC_LATENCY
from repro.pipeline.stats import RegionLog


def run_inorder_cohort(points, *, diverge_at=None):
    """Run a compatible ``core="inorder"`` cohort: the prologue, then one
    walk per lane (see :func:`repro.engine.batched.run_lanes`)."""
    from repro.orchestrator.points import bandwidth_share, point_inputs

    start = perf_counter()
    p0 = points[0]
    persistent = p0.scheme == "ppa"
    # The in-order model ignores warmup: memory always starts cold.
    trace = point_inputs(p0)[0]
    script = memory_script(trace, p0.config.memory, False, None,
                           core="inorder")

    dec = trace.decoded()
    length = dec.length
    columns = (dec.opcode_ids, dec.dest_cls, dec.dest_idx, dec.srcs,
               script.entries, dec.line_addrs, dec.mispredicted)
    # The CSQ log's lane-invariant columns: every store of a persistent
    # lane enters the CSQ, at the same seq and with the same value in
    # every lane; only its commit time varies.
    if persistent:
        csq_seqs = [seq for seq, op in enumerate(dec.opcode_ids)
                    if op == OP_STORE]
        csq_addrs = [dec.addrs[seq] for seq in csq_seqs]
        csq_values = value_stream(trace).tolist()
    l1_hit = p0.config.memory.l1d.hit_latency
    SYNC_LAT = _SYNC_LATENCY

    def walk(point, end):
        """One lane over seqs ``[0, end)``."""
        core = point.config.core
        ppa = point.config.ppa
        nvm = point.config.memory.nvm
        width = core.width
        penalty = core.branch_mispredict_penalty
        lat_tab = _latency_list(core, dec)
        nvm_write, __, replay, nvm_counts = nvm_device(
            nvm, bandwidth_share(point))
        advance_floor, persist_store, __, seal_region, wb_totals = \
            write_buffer(ppa, nvm, nvm_write)

        time_ = last_commit = 0.0
        iss_cycle = -1.0
        iss_used = 0
        ready_pair = ([0.0] * core.int_arch_regs, [0.0] * core.fp_arch_regs)
        commit_times = []
        csq_commits = []
        regions = RegionLog()
        add_region = regions.add
        csq_cnt = 0
        csq_entries = ppa.csq_entries
        region_id = region_start = region_stores = 0

        def close_region(end_seq, boundary, cause):
            """InOrderCore._close_region; returns the drain cycle."""
            nonlocal csq_cnt, region_id, region_start, region_stores
            drained = seal_region(boundary)
            csq_cnt = 0
            add_region(region_id, region_start, end_seq, region_stores,
                       boundary, drained - boundary, cause)
            region_id += 1
            region_start = end_seq
            region_stores = 0
            return drained

        seq = 0
        try:
            for seq, (opcode, dcls, didx, srcs, mem_entry, line,
                      mis) in enumerate(zip(columns[0][:end], *columns[1:])):
                ready = time_
                for cls, index in srcs:
                    src_ready = ready_pair[cls][index]
                    if src_ready > ready:
                        ready = src_ready

                # issue_bw.take(ready) in closed form (see
                # repro.engine.batched).
                if ready <= iss_cycle and iss_used < width:
                    iss_used += 1
                else:
                    iss_cycle = (iss_cycle + 1.0 if ready <= iss_cycle
                                 else -(-ready // 1.0))
                    if not iss_cycle < _INF:
                        raise OverflowError(f"issue at time {ready}")
                    iss_used = 1
                issue = iss_cycle

                if opcode == OP_LOAD:
                    if mem_entry[0] == MODE_CONST and not mem_entry[4]:
                        complete = issue + 1.0 + mem_entry[1]
                    else:
                        complete = issue + 1.0 + replay(mem_entry, issue,
                                                        line)
                elif opcode == OP_STORE:
                    complete = issue + 1
                elif opcode == OP_SYNC:
                    complete = issue + SYNC_LAT
                else:
                    complete = issue + lat_tab[opcode]

                if dcls >= 0:
                    ready_pair[dcls][didx] = complete

                # In-order retirement: commits never reorder.
                commit = complete + 1.0
                if last_commit > commit:
                    commit = last_commit
                if opcode == OP_STORE:
                    merge_entry = mem_entry[1]
                    if persistent:
                        if csq_cnt >= csq_entries:
                            drain = close_region(seq, commit, "csq")
                            if drain > commit:
                                commit = drain
                        csq_commits.append(commit)
                        csq_cnt += 1
                        region_stores += 1
                        # store_merge(line, commit)
                        if merge_entry is None:
                            merge_time = commit + l1_hit
                        else:
                            merge_time = commit + replay(merge_entry,
                                                         commit, line)
                        advance_floor(commit)
                        persist_store(line, merge_time)
                    elif merge_entry is not None:
                        # Cache evolution only; latency is discarded but
                        # the NVM side effects are lane state.
                        replay(merge_entry, commit, line)
                elif opcode == OP_SYNC and persistent:
                    drain = close_region(seq + 1, commit, "sync")
                    if drain > commit:
                        commit = drain

                if mis:
                    resteer = complete + penalty
                    if resteer > time_:
                        time_ = resteer
                elif issue > time_:
                    time_ = issue
                last_commit = commit
                commit_times.append(commit)
        except Exception:
            return None, seq
        if end < length:
            return None, end

        # ---------------- finalize ----------------
        end_time = commit_times[-1] if commit_times else 0.0
        if persistent:
            close_region(length, end_time, "end")
        stats = InOrderStats(name=trace.name,
                             commit_times=array("d", commit_times))
        stats.instructions = length
        stats.cycles = end_time
        stats.regions = regions
        if persistent:
            stats.entries = CsqLog((csq_seqs, csq_addrs, csq_values,
                                    csq_commits))
        stats.nvm_line_writes = nvm_counts()[0]
        stats.wb_full_stall_cycles = wb_totals()[2]
        return stats, None

    return run_lanes(points, length, walk, start, diverge_at)
