"""The batched lockstep kernels: N compatible runs per trace walk.

A cohort is a list of :class:`~repro.orchestrator.points.SimPoint`-shaped
points sharing an interned trace and a cache geometry (see
:mod:`repro.engine.plan`). :func:`run_cohort` dispatches a cohort to one
of two kernels:

* the **list kernel** (this module) — per-lane free lists, CSQ
  occupancy, write-buffer slots, WPQ rings, and register ready-times
  held in parallel Python lists indexed by lane, so the per-instruction
  work that is lane-invariant (decode, memory-script lookup, branch
  structure) is paid once per cohort instead of once per run. Serves the
  out-of-order schemes in :data:`KERNEL_SCHEMES`.
* the **in-order lane kernel** (:mod:`repro.engine.inorder_lanes`) — for
  ``core="inorder"`` points (schemes in
  :data:`INORDER_KERNEL_SCHEMES`).

The arithmetic is a faithful transliteration of the scalar models
(:mod:`repro.pipeline.core` + the persistence policies + WB/NVM device
models): the same float operations in the same order, so the results are
bit-exact against the golden-count pins. The cache hierarchy itself is
not re-simulated per lane — its decisions are lane-invariant and come
precompiled from :mod:`repro.engine.memscript`; only the NVM device terms
(WPQ admission, port contention) are evaluated per lane.

Divergence: any lane that raises mid-flight (e.g. a PRF deadlock under an
undersized config) is retired from the lockstep set and re-run from
scratch on the scalar kernel, which reproduces scalar behaviour —
including the error itself — exactly. ``diverge_at`` forces this path for
testing. Lane failures travel as :class:`LaneError` (type name, message,
formatted traceback), never as live exception objects, so a result list
always survives the process-pool pickle boundary.
"""

from __future__ import annotations

import random
import traceback as _traceback
from collections import Counter
from dataclasses import dataclass, replace
from heapq import heappop, heappush

from repro.engine.memscript import MODE_APP_DIRECT, MODE_CONST, memory_script
from repro.isa.decoded import OP_LOAD, OP_STORE, OP_SYNC
from repro.isa.instructions import Opcode
from repro.persistence.capri import (
    DEFAULT_MEAN_REGION,
    DEFAULT_PATH_BANDWIDTH_GBS,
    REDO_BUFFER_BYTES,
    SEAL_STALL_CYCLES,
)
from repro.pipeline.core import _SYNC_LATENCY, def_value
from repro.pipeline.stats import CoreStats, RegionRecord, StoreRecord
from repro.workloads.interning import interned_trace, region_extents

_INF = float("inf")

# Out-of-order schemes the lockstep kernels implement natively. "eadr" and
# "dram-only" run the baseline policy (NoPersistencePolicy) on a different
# backend, which the memory script already encodes; "capri" adds the
# compiler-region seal floor and the redo-buffer/dedicated-path device.
KERNEL_SCHEMES = frozenset({"ppa", "baseline", "eadr", "dram-only", "capri"})

# Schemes the in-order lane kernel implements (the facade's in-order
# dispatch accepts exactly these two).
INORDER_KERNEL_SCHEMES = frozenset({"ppa", "baseline"})

@dataclass(frozen=True)
class LaneError:
    """A lane failure reduced to picklable strings.

    Live exception objects can hold arbitrary (unpicklable) payloads and
    would break cohort result delivery across the process pool, so lane
    errors travel as (type name, message, formatted traceback) and are
    re-raised as :class:`CohortLaneError` at the consumer.
    """

    type_name: str
    message: str
    traceback: str = ""

    @classmethod
    def from_exception(cls, exc: BaseException) -> "LaneError":
        try:
            message = str(exc)
        except Exception:
            message = f"<unprintable {type(exc).__name__}>"
        try:
            formatted = "".join(_traceback.format_exception(
                type(exc), exc, exc.__traceback__))
        except Exception:
            formatted = ""
        return cls(type_name=type(exc).__name__, message=message,
                   traceback=formatted)

    def __str__(self) -> str:
        return f"{self.type_name}: {self.message}"


@dataclass
class LaneResult:
    """Outcome of one lane of a cohort run."""

    stats: CoreStats | None
    engine: str = "batched"
    # Instruction index at which the lane left the lockstep set (None when
    # it ran batched to completion).
    diverged_at: int | None = None
    error: LaneError | None = None


def lane_summary(results: list[LaneResult]) -> dict:
    """Introspection digest of one cohort run: how many lanes finished
    batched, how many diverged and retired to the scalar kernel, where
    they diverged, and how many errored outright."""
    diverged = [r.diverged_at for r in results if r.diverged_at is not None]
    return {
        "lanes": len(results),
        "batched": sum(1 for r in results
                       if r.engine == "batched" and r.error is None),
        "scalar_resim": sum(1 for r in results if r.engine == "scalar"),
        "errors": sum(1 for r in results if r.error is not None),
        "diverged_at": sorted(diverged),
    }


def _scalar_rerun(point) -> CoreStats:
    from repro.orchestrator.execute import simulate_point

    stats, __ = simulate_point(point, engine="scalar")
    return stats


def _latency_list(core, dec) -> list:
    """Per-opcode-id latency table for one lane's core config (mirrors
    ``OoOCore._latency`` + ``DecodedTrace.latency_table``)."""
    return dec.latency_table({
        Opcode.INT_ALU: core.lat_int_alu,
        Opcode.INT_MUL: core.lat_int_mul,
        Opcode.INT_DIV: core.lat_int_div,
        Opcode.FP_ALU: core.lat_fp_alu,
        Opcode.FP_MUL: core.lat_fp_mul,
        Opcode.FP_DIV: core.lat_fp_div,
        Opcode.BRANCH: core.lat_branch,
        Opcode.CMP: core.lat_int_alu,
    })


def run_cohort(points, *, diverge_at=None) -> list[LaneResult]:
    """Run every point of a compatible cohort in lockstep; returns one
    :class:`LaneResult` per point, in order.

    ``diverge_at`` maps lane index -> instruction index at which that lane
    is forcibly retired to the scalar kernel (testing hook for the
    divergence path).
    """
    from repro.engine.plan import cohort_key, unbatchable_reason

    if not points:
        return []
    reasons = [unbatchable_reason(p) for p in points]
    bad = [r for r in reasons if r is not None]
    if bad:
        raise ValueError(f"unbatchable point in cohort: {bad[0]}")
    keys = {cohort_key(p) for p in points}
    if len(keys) != 1:
        raise ValueError("cohort mixes incompatible points")

    if getattr(points[0], "core", "ooo") == "inorder":
        from repro.engine.inorder_lanes import run_inorder_cohort

        return run_inorder_cohort(points, diverge_at=diverge_at)
    return _run_cohort_lists(points, diverge_at=diverge_at)


def _run_cohort_lists(points, *, diverge_at=None) -> list[LaneResult]:
    """The list-based lockstep kernel for out-of-order cohorts."""
    n = len(points)
    p0 = points[0]
    scheme = p0.scheme
    is_ppa = scheme == "ppa"
    is_capri = scheme == "capri"
    stats_scheme = scheme if scheme in ("ppa", "capri") else "baseline"
    trace = interned_trace(p0.profile, p0.length, seed=p0.seed)
    warm = p0.warmup > 0
    extents = region_extents(p0.profile) if warm else None
    script = memory_script(trace, p0.config.memory, warm, extents)

    dec = trace.decoded()
    length = dec.length
    opcode_ids = dec.opcode_ids
    dest_cls = dec.dest_cls
    dest_idx = dec.dest_idx
    all_srcs = dec.srcs
    addrs = dec.addrs
    line_addrs = dec.line_addrs
    pcs = dec.pcs
    mispredicted = dec.mispredicted
    entries = script.entries
    tv = p0.track_values
    l1_hit = p0.config.memory.l1d.hit_latency
    SYNC_LAT = _SYNC_LATENCY

    # ---------------- per-lane state (parallel lists) ----------------
    cores = [p.config.core for p in points]
    ppas = [p.config.ppa for p in points]
    nvms = [p.config.memory.nvm for p in points]

    width = [c.width for c in cores]
    penalty = [c.branch_mispredict_penalty for c in cores]
    lat_agen = [c.lat_agen for c in cores]
    lat_tab = [_latency_list(c, dec) for c in cores]

    fetch_ready = [0.0] * n
    last_commit = [0.0] * n
    last_sample = [0.0] * n
    oor = [0.0] * n
    ren_cycle = [-1.0] * n
    ren_used = [0] * n
    com_cycle = [-1.0] * n
    com_used = [0] * n

    rob_rel = [[0.0] * c.rob_size for c in cores]
    rob_cnt = [0] * n
    rob_sz = [c.rob_size for c in cores]
    lq_rel = [[0.0] * c.lq_size for c in cores]
    lq_cnt = [0] * n
    lq_sz = [c.lq_size for c in cores]
    sq_rel = [[0.0] * c.sq_size for c in cores]
    sq_cnt = [0] * n
    sq_sz = [c.sq_size for c in cores]

    # Per register class (0 = int, 1 = fp), per lane.
    prf_names = ("int", "fp")
    sizes = [(c.int_prf_size, c.fp_prf_size) for c in cores]
    archs = [(c.int_arch_regs, c.fp_arch_regs) for c in cores]
    rat_pair = tuple([list(range(archs[l][cls])) for l in range(n)]
                     for cls in (0, 1))
    crt_pair = tuple([list(range(archs[l][cls])) for l in range(n)]
                     for cls in (0, 1))
    free_pair = tuple([list(range(archs[l][cls], sizes[l][cls]))
                       for l in range(n)] for cls in (0, 1))
    sched_pair = tuple([[] for __ in range(n)] for __ in (0, 1))
    ready_pair = tuple([[0.0] * sizes[l][cls] for l in range(n)]
                       for cls in (0, 1))
    masked_pair = tuple([set() for __ in range(n)] for __ in (0, 1))
    defer_pair = tuple([[] for __ in range(n)] for __ in (0, 1))
    if tv:
        vt_pair = tuple([[[] for __ in range(sizes[l][cls])]
                         for l in range(n)] for cls in (0, 1))
        vh_pair = tuple([[[] for __ in range(sizes[l][cls])]
                         for l in range(n)] for cls in (0, 1))
        for cls in (0, 1):
            for l in range(n):
                for preg in range(archs[l][cls]):
                    vt_pair[cls][l][preg].append(float("-inf"))
                    vh_pair[cls][l][preg].append(0)
        fmem = [dict() for __ in range(n)]
    else:
        vt_pair = vh_pair = None
        fmem = None

    hist_int = [dict() for __ in range(n)]
    hist_fp = [dict() for __ in range(n)]
    commit_times = [[] for __ in range(n)]
    stores = [[] for __ in range(n)]
    regions = [[] for __ in range(n)]

    # PPA policy state.
    csq_cnt = [0] * n
    csq_entries = [p.csq_entries for p in ppas]
    min_def = [p.min_deferred_for_boundary for p in ppas]
    async_wb = [p.async_writeback for p in ppas]
    coalescing = [p.persist_coalescing for p in ppas]
    region_id = [0] * n
    region_start = [0] * n
    region_stores = [0] * n
    last_store_commit = [0.0] * n

    # Capri policy state. Region boundaries are a pure function of seq
    # (one RNG walk shared by every lane); the seal floor, redo buffer,
    # and dedicated persist path are per lane. The redo buffer always
    # coalesces and its path has persist_path_latency=0, so its slot/
    # admission arithmetic needs no eviction floor: an op whose drain has
    # completed by ``time`` fails the coalescing-window check anyway, and
    # slot admission reads the Kth-from-last accepted time, which prefix
    # pruning does not move.
    if is_capri:
        cap_rng = random.Random(0xCA9B1)
        cap_p = 1.0 / DEFAULT_MEAN_REGION

        def _cap_draw():
            ln = 1
            while cap_rng.random() > cap_p:
                ln += 1
            return 2 if ln < 2 else ln

        cap_bounds = []
        nb = _cap_draw()
        while nb < length:
            cap_bounds.append(nb)
            nb += _cap_draw()
        cap_bounds.append(nb)  # sentinel at/after length, never reached
        cap_ptr = 0
        commit_floor = [0.0] * n
        redo_entries = REDO_BUFFER_BYTES // 64
        path_cfgs = [replace(c,
                             write_bandwidth_gbs=DEFAULT_PATH_BANDWIDTH_GBS,
                             wpq_entries=redo_entries,
                             persist_path_latency=0) for c in nvms]
        # The dedicated path is a single NvmModel regardless of the main
        # memory's controller count.
        path_cpl = [c.cycles_per_line / 1.0 for c in path_cfgs]
        path_wlat = [c.write_latency for c in path_cfgs]
        path_port = [0.0] * n
        path_ring = [[0.0] * redo_entries for __ in range(n)]
        path_cnt = [0] * n
        path_smax = [0.0] * n
        path_writes = [0] * n
        redo_live = [dict() for __ in range(n)]
        redo_slots = [[] for __ in range(n)]

    # Write buffer (persist ops are [durable_at, done_at, region_tag]).
    wb_entries = [p.writebuffer_entries for p in ppas]
    path_lat = [c.persist_path_latency for c in nvms]
    wb_live = [dict() for __ in range(n)]
    wb_done_heap = [[] for __ in range(n)]
    wb_next_done = [_INF] * n
    wb_slots = [[] for __ in range(n)]
    wb_floor = [0.0] * n
    wb_region_ops = [[] for __ in range(n)]
    wb_region_seq = [0] * n
    wb_region_sd = [0.0] * n
    wb_last_sd = [0.0] * n
    wb_issued = [0] * n
    wb_coal = [0] * n
    wb_stall = [0.0] * n

    # NVM device(s): per lane, one entry per controller.
    nctl = [max(1, c.num_controllers) for c in nvms]
    cpl = [c.cycles_per_line / 1.0 for c in nvms]
    cpl_q = [c * 0.25 for c in cpl]
    rcpl = [c.read_cycles_per_line / 1.0 for c in nvms]
    wlat = [c.write_latency for c in nvms]
    rlat = [c.read_latency for c in nvms]
    wpq_n = [c.wpq_entries for c in nvms]
    port_free = [[0.0] * k for k in nctl]
    rport_free = [[0.0] * k for k in nctl]
    wpq_ring = [[[0.0] * wpq_n[l] for __ in range(nctl[l])]
                for l in range(n)]
    wpq_cnt = [[0] * k for k in nctl]
    # Running max of submit times per controller: the scalar WPQ deque's
    # drains are cumulative, so an entry is gone once *any* past submit
    # reached its completion time — not just the current one.
    wpq_smax = [[0.0] * k for k in nctl]
    nvm_writes = [0] * n
    nvm_reads = [0] * n

    from bisect import bisect_right, insort

    # ---------------- device / policy helpers ----------------

    def nvm_write(l, line, submit):
        """NvmModel.write_line, per lane; returns (accepted, done, bp).

        The scalar WPQ deque (drain completions <= submit, oldest
        outstanding gates admission) reduces to a ring of the last
        ``wpq_entries`` completion times: completions are appended in
        nondecreasing order, so write ``k`` is gated by
        ``done[k - wpq_entries]`` — but only while that entry is still
        queued. Deque drains are cumulative and submits are not monotone
        (write-buffer persists land late, eviction writes early), so an
        entry popped by an earlier, *later-submitted* write never gates
        again: the drain threshold is the running max of submit times.
        """
        k_ctl = (line >> 6) % nctl[l] if nctl[l] > 1 else 0
        cnt = wpq_cnt[l][k_ctl]
        entries_ = wpq_n[l]
        ring = wpq_ring[l][k_ctl]
        smax = wpq_smax[l][k_ctl]
        if submit > smax:
            smax = submit
            wpq_smax[l][k_ctl] = smax
        accepted = submit
        if cnt >= entries_:
            gate = ring[cnt % entries_]
            if gate > smax:
                accepted = gate
        pf = port_free[l][k_ctl]
        start = accepted if accepted >= pf else pf
        port_free[l][k_ctl] = start + cpl[l]
        done = start + wlat[l]
        ring[cnt % entries_] = done
        wpq_cnt[l][k_ctl] = cnt + 1
        nvm_writes[l] += 1
        return accepted, done, accepted - submit

    def nvm_read(l, line, submit):
        """NvmModel.read, per lane."""
        k_ctl = (line >> 6) % nctl[l] if nctl[l] > 1 else 0
        rp = rport_free[l][k_ctl]
        start = submit if submit >= rp else rp
        rport_free[l][k_ctl] = start + rcpl[l]
        queue = start - submit
        contention = port_free[l][k_ctl] - submit
        if contention < 0.0:
            contention = 0.0
        q_cap = cpl_q[l]
        if contention > q_cap:
            contention = q_cap
        nvm_reads[l] += 1
        return rlat[l] + queue + contention

    def advance_floor(l, time):
        """WriteBuffer.advance_floor, per lane."""
        if time <= wb_floor[l]:
            return
        wb_floor[l] = time
        if time < wb_next_done[l]:
            return
        heap = wb_done_heap[l]
        live_map = wb_live[l]
        while heap and heap[0][0] <= time:
            __, line_a = heappop(heap)
            op = live_map.get(line_a)
            if op is not None and op[1] <= time:
                del live_map[line_a]
        wb_next_done[l] = heap[0][0] if heap else _INF

    def persist_store(l, line, time):
        """WriteBuffer.persist_store, per lane (functional payload writes
        are not tracked: cohorts never capture the persist log)."""
        op = wb_live[l].get(line) if coalescing[l] else None
        if op is not None and op[1] > time:
            wb_coal[l] += 1
        else:
            free = wb_slots[l]
            drained = bisect_right(free, wb_floor[l])
            if drained:
                del free[:drained]
            if len(free) - bisect_right(free, time) >= wb_entries[l]:
                admit = free[len(free) - wb_entries[l]]
            else:
                admit = time
            wb_stall[l] += admit - time
            accepted, done, __ = nvm_write(l, line, admit + path_lat[l])
            op = [accepted, done, wb_region_seq[l]]
            insort(free, accepted)
            if coalescing[l]:
                wb_live[l][line] = op
                heappush(wb_done_heap[l], (done, line))
                if done < wb_next_done[l]:
                    wb_next_done[l] = done
            wb_region_ops[l].append(op)
            wb_issued[l] += 1
        mp = time + path_lat[l]
        durable = op[0] if op[0] >= mp else mp
        wb_last_sd[l] = durable
        if durable > wb_region_sd[l]:
            wb_region_sd[l] = durable
        if op[2] != wb_region_seq[l]:
            op[2] = wb_region_seq[l]
            wb_region_ops[l].append(op)

    def region_drain_time(l, boundary):
        """WriteBuffer.region_drain_time, per lane."""
        drained = boundary if boundary >= wb_region_sd[l] else wb_region_sd[l]
        for op in wb_region_ops[l]:
            if op[0] > drained:
                drained = op[0]
        return drained

    def close_region(l, end_seq, boundary, cause):
        """PpaPolicy._close_region, per lane; returns the drain cycle."""
        drain = region_drain_time(l, boundary)
        # wb.reset_region(drain)
        wb_region_ops[l] = []
        wb_region_seq[l] += 1
        wb_region_sd[l] = 0.0
        advance_floor(l, drain)
        # rf.end_region(drain) for int then fp
        for cls in (0, 1):
            heap = sched_pair[cls][l]
            deferred = defer_pair[cls][l]
            for preg in deferred:
                heappush(heap, (drain, preg))
            defer_pair[cls][l] = []
            masked_pair[cls][l].clear()
        csq_cnt[l] = 0
        regions[l].append(RegionRecord(
            region_id=region_id[l], start_seq=region_start[l],
            end_seq=end_seq, store_count=region_stores[l],
            boundary_time=boundary, drain_wait=drain - boundary,
            cause=cause))
        region_id[l] += 1
        region_start[l] = end_seq
        region_stores[l] = 0
        return drain

    def value_at(cls, l, preg, time):
        """RenamedRegisterFile.value_at, per lane."""
        times = vt_pair[cls][l][preg]
        index = bisect_right(times, time) - 1
        if index < 0:
            return 0
        return vh_pair[cls][l][preg][index]

    # ---------------- lockstep walk ----------------
    live = list(range(n))
    dropped: list[int] = []
    diverged: dict[int, tuple[int, BaseException | None]] = {}
    forced = dict(diverge_at) if diverge_at else None

    for seq in range(length):
        opcode = opcode_ids[seq]
        dcls = dest_cls[seq]
        didx = dest_idx[seq]
        srcs_seq = all_srcs[seq]
        mem_entry = entries[seq]
        pc = pcs[seq]
        addr = addrs[seq]
        line = line_addrs[seq]
        mis = mispredicted[seq]

        if forced:
            hit = [l for l in live if forced.get(l) == seq]
            if hit:
                for l in hit:
                    diverged[l] = (seq, None)
                    del forced[l]
                live = [l for l in live if l not in hit]
                if not live:
                    break

        if is_capri and seq == cap_bounds[cap_ptr]:
            cap_ptr += 1
            cap_close = True
        else:
            cap_close = False

        for l in live:
            try:
                if cap_close:
                    # CapriPolicy.pre_rename: the compiler-inserted seal
                    # micro-op closes the region and briefly blocks
                    # retirement of the next one.
                    lc0 = last_commit[l]
                    cf = lc0 + SEAL_STALL_CYCLES
                    commit_floor[l] = cf
                    regions[l].append(RegionRecord(
                        region_id=region_id[l], start_seq=region_start[l],
                        end_seq=seq, store_count=region_stores[l],
                        boundary_time=lc0, drain_wait=cf - lc0,
                        cause="compiler"))
                    region_id[l] += 1
                    region_start[l] = seq
                    region_stores[l] = 0

                # ---------------- rename stage ----------------
                t = fetch_ready[l]
                rob_r = rob_rel[l]
                rob_c = rob_cnt[l]
                slot = rob_r[rob_c % rob_sz[l]]
                if slot > t:
                    t = slot
                if opcode == OP_LOAD:
                    slot = lq_rel[l][lq_cnt[l] % lq_sz[l]]
                    if slot > t:
                        t = slot
                elif opcode == OP_STORE:
                    slot = sq_rel[l][sq_cnt[l] % sq_sz[l]]
                    if slot > t:
                        t = slot

                preg = -1
                if dcls >= 0:
                    heap = sched_pair[dcls][l]
                    free = free_pair[dcls][l]
                    while heap and heap[0][0] <= t:
                        free.append(heappop(heap)[1])
                    while not free:
                        # policy.rename_blocked(cls, t, seq)
                        if is_ppa:
                            deferred_total = (len(defer_pair[0][l])
                                              + len(defer_pair[1][l]))
                            next_free = heap[0][0] if heap else None
                            if deferred_total == 0 and next_free is None:
                                raise RuntimeError(
                                    f"{prf_names[dcls]} PRF deadlock: no "
                                    "masked registers to reclaim and no "
                                    "reclamation pending")
                            if (next_free is not None
                                    and deferred_total < min_def[l]):
                                resume = next_free
                            else:
                                lsc = last_store_commit[l]
                                boundary = t if t >= lsc else lsc
                                resume = close_region(l, seq, boundary,
                                                      "prf") + 1.0
                        else:
                            if not heap:
                                raise RuntimeError(
                                    f"{prf_names[dcls]} PRF deadlock: no "
                                    "reclamation pending")
                            resume = heap[0][0]
                        delta = resume - t
                        if delta > 0.0:
                            oor[l] += delta
                        if resume > t:
                            t = resume
                        while heap and heap[0][0] <= t:
                            free.append(heappop(heap)[1])

                # rename_bw.take(t)
                cyc = float(int(t))
                if t > cyc:
                    cyc += 1.0
                prev = ren_cycle[l]
                if cyc < prev:
                    cyc = prev
                if cyc == prev and ren_used[l] >= width[l]:
                    cyc += 1.0
                if cyc > prev:
                    ren_cycle[l] = cyc
                    ren_used[l] = 1
                else:
                    ren_used[l] += 1
                rename_time = cyc

                weight = rename_time - last_sample[l]
                if weight > 0:
                    h0 = sched_pair[0][l]
                    f0 = free_pair[0][l]
                    while h0 and h0[0][0] <= rename_time:
                        f0.append(heappop(h0)[1])
                    h1 = sched_pair[1][l]
                    f1 = free_pair[1][l]
                    while h1 and h1[0][0] <= rename_time:
                        f1.append(heappop(h1)[1])
                    hist = hist_int[l]
                    key = len(f0)
                    hist[key] = hist.get(key, 0) + weight
                    hist = hist_fp[l]
                    key = len(f1)
                    hist[key] = hist.get(key, 0) + weight
                last_sample[l] = rename_time

                if srcs_seq:
                    sp = [(cls, rat_pair[cls][l][index])
                          for cls, index in srcs_seq]
                else:
                    sp = ()
                if dcls >= 0:
                    # rf.allocate(didx, rename_time)
                    while heap and heap[0][0] <= rename_time:
                        free.append(heappop(heap)[1])
                    if not free:
                        raise RuntimeError(
                            f"{prf_names[dcls]} PRF exhausted at cycle "
                            f"{rename_time}")
                    preg = free.pop()
                    rat_pair[dcls][l][didx] = preg

                # ---------------- execute ----------------
                ready = rename_time + 1.0
                for cls, src in sp:
                    src_ready = ready_pair[cls][l][src]
                    if src_ready > ready:
                        ready = src_ready

                if opcode == OP_LOAD:
                    issue = ready + lat_agen[l]
                    mode = mem_entry[0]
                    if mode == MODE_CONST and not mem_entry[4]:
                        complete = issue + mem_entry[1]
                    else:
                        # Inline replay of the load recipe.
                        base = mem_entry[1]
                        fills = mem_entry[4]
                        if mode == MODE_CONST:
                            lat = base
                        else:
                            x = issue + base
                            if mode == MODE_APP_DIRECT:
                                lat = base + nvm_read(l, line, x)
                            else:
                                probe = mem_entry[2]
                                pr = probe + nvm_read(l, line, x + probe)
                                if mem_entry[3] is not None:
                                    nvm_write(l, mem_entry[3], x + pr)
                                lat = base + pr
                        if fills:
                            back = 0.0
                            for fill_line in fills:
                                back += nvm_write(l, fill_line, issue)[2]
                            lat += back
                        complete = issue + lat
                elif opcode == OP_STORE:
                    complete = ready + lat_agen[l]
                    rfo_entry = mem_entry[0]
                    if rfo_entry is None:
                        rfo_done = complete
                    else:
                        mode = rfo_entry[0]
                        base = rfo_entry[1]
                        fills = rfo_entry[4]
                        if mode == MODE_CONST:
                            lat = base
                        else:
                            x = complete + base
                            if mode == MODE_APP_DIRECT:
                                lat = base + nvm_read(l, line, x)
                            else:
                                probe = rfo_entry[2]
                                pr = probe + nvm_read(l, line, x + probe)
                                if rfo_entry[3] is not None:
                                    nvm_write(l, rfo_entry[3], x + pr)
                                lat = base + pr
                        if fills:
                            back = 0.0
                            for fill_line in fills:
                                back += nvm_write(l, fill_line, complete)[2]
                            lat += back
                        rfo_done = complete + lat
                elif opcode == OP_SYNC:
                    complete = ready + SYNC_LAT
                else:
                    complete = ready + lat_tab[l][opcode]

                value = 0
                if tv:
                    src_values = tuple(value_at(cls, l, src, complete)
                                       for cls, src in sp)
                    if opcode == OP_LOAD:
                        value = fmem[l].get(addr, 0)
                    elif opcode == OP_STORE:
                        value = src_values[0]
                    else:
                        value = def_value(pc, src_values)

                if dcls >= 0:
                    ready_pair[dcls][l][preg] = complete
                    if tv:
                        vt_pair[dcls][l][preg].append(complete)
                        vh_pair[dcls][l][preg].append(value)

                # ---------------- commit ----------------
                tentative = complete + 1.0
                lc = last_commit[l]
                if tentative < lc:
                    tentative = lc
                if is_capri:
                    # CapriPolicy.adjust_commit: the seal floor gates
                    # every commit in the next region.
                    cf = commit_floor[l]
                    if cf > tentative:
                        tentative = cf
                    if opcode == OP_STORE:
                        # CapriPolicy.store_commit_time: the store commits
                        # into the redo buffer; a backed-up drain to NVM
                        # backpressures the commit until an entry frees.
                        op = redo_live[l].get(line)
                        if op is not None and op[1] > tentative:
                            if op[0] > tentative:
                                tentative = op[0]
                        else:
                            free = redo_slots[l]
                            if (len(free) - bisect_right(free, tentative)
                                    >= redo_entries):
                                admit = free[len(free) - redo_entries]
                            else:
                                admit = tentative
                            # Dedicated-path NvmModel.write_line (same
                            # ring + running-max WPQ reduction as the
                            # main device, path latency 0).
                            cnt = path_cnt[l]
                            ring = path_ring[l]
                            smax = path_smax[l]
                            if admit > smax:
                                smax = admit
                                path_smax[l] = smax
                            accepted = admit
                            if cnt >= redo_entries:
                                gate = ring[cnt % redo_entries]
                                if gate > smax:
                                    accepted = gate
                            pf = path_port[l]
                            start = accepted if accepted >= pf else pf
                            path_port[l] = start + path_cpl[l]
                            done = start + path_wlat[l]
                            ring[cnt % redo_entries] = done
                            path_cnt[l] = cnt + 1
                            path_writes[l] += 1
                            insort(free, accepted)
                            redo_live[l][line] = [accepted, done]
                            if accepted > tentative:
                                tentative = accepted
                if is_ppa:
                    if opcode == OP_STORE:
                        # PpaPolicy.store_commit_time
                        if csq_cnt[l] >= csq_entries[l]:
                            drain = close_region(l, seq, tentative, "csq")
                            if drain > tentative:
                                tentative = drain
                        if not async_wb[l]:
                            rd = region_drain_time(l, tentative)
                            if rd > tentative:
                                tentative = rd
                    elif opcode == OP_SYNC:
                        # PpaPolicy.sync_commit_time
                        drain = close_region(l, seq + 1, tentative, "sync")
                        if drain > tentative:
                            tentative = drain

                # commit_bw.take(tentative)
                cyc = float(int(tentative))
                if tentative > cyc:
                    cyc += 1.0
                prev = com_cycle[l]
                if cyc < prev:
                    cyc = prev
                if cyc == prev and com_used[l] >= width[l]:
                    cyc += 1.0
                if cyc > prev:
                    com_cycle[l] = cyc
                    com_used[l] = 1
                else:
                    com_used[l] += 1
                commit = cyc
                last_commit[l] = commit
                commit_times[l].append(commit)
                rob_r[rob_c % rob_sz[l]] = commit
                rob_cnt[l] = rob_c + 1

                if dcls >= 0:
                    crt = crt_pair[dcls][l]
                    old = crt[didx]
                    crt[didx] = preg
                    if old in masked_pair[dcls][l]:
                        defer_pair[dcls][l].append(old)
                    else:
                        heappush(sched_pair[dcls][l], (commit, old))

                if opcode == OP_LOAD:
                    lq_rel[l][lq_cnt[l] % lq_sz[l]] = commit
                    lq_cnt[l] += 1
                elif opcode == OP_STORE:
                    merge_from = commit if commit >= rfo_done else rfo_done
                    merge_entry = mem_entry[1]
                    if merge_entry is None:
                        merge_time = merge_from + l1_hit
                    else:
                        mode = merge_entry[0]
                        base = merge_entry[1]
                        fills = merge_entry[4]
                        if mode == MODE_CONST:
                            lat = base
                        else:
                            x = merge_from + base
                            if mode == MODE_APP_DIRECT:
                                lat = base + nvm_read(l, line, x)
                            else:
                                probe = merge_entry[2]
                                pr = probe + nvm_read(l, line, x + probe)
                                if merge_entry[3] is not None:
                                    nvm_write(l, merge_entry[3], x + pr)
                                lat = base + pr
                        if fills:
                            back = 0.0
                            for fill_line in fills:
                                back += nvm_write(l, fill_line,
                                                  merge_from)[2]
                            lat += back
                        merge_time = merge_from + lat
                    sq_rel[l][sq_cnt[l] % sq_sz[l]] = merge_time
                    sq_cnt[l] += 1
                    if tv:
                        fmem[l][addr] = value
                    data_cls, data_preg = sp[0]
                    record = StoreRecord(
                        seq=seq, pc=pc, addr=addr, line_addr=line,
                        value=value, data_preg=data_preg,
                        data_cls=data_cls, commit_time=commit,
                        region_id=-1)
                    stores[l].append(record)
                    if is_ppa:
                        # PpaPolicy.store_committed
                        record.region_id = region_id[l]
                        last_store_commit[l] = commit
                        masked_pair[data_cls][l].add(data_preg)
                        csq_cnt[l] += 1
                        region_stores[l] += 1
                        advance_floor(l, commit)
                        persist_store(l, line, merge_time)
                        record.durable_at = wb_last_sd[l]
                    elif is_capri:
                        # CapriPolicy.store_committed: durable on redo-
                        # buffer entry (battery-backed).
                        record.region_id = region_id[l]
                        record.durable_at = commit
                        region_stores[l] += 1

                if mis:
                    resteer = complete + penalty[l]
                    if resteer > fetch_ready[l]:
                        fetch_ready[l] = resteer
            except Exception as exc:  # retire the lane to the scalar kernel
                diverged[l] = (seq, exc)
                dropped.append(l)

        if dropped:
            live = [l for l in live if l not in dropped]
            dropped.clear()
            if not live:
                break

    # ---------------- finalize ----------------
    results: list[LaneResult | None] = [None] * n

    for l in live:
        if is_ppa:
            # policy.finish(last_commit_time)
            close_region(l, length or 0, last_commit[l], "end")
        elif is_capri:
            # CapriPolicy.finish: the trailing region closes at the last
            # commit with no drain wait (redo entries are already
            # durable).
            lc0 = last_commit[l]
            regions[l].append(RegionRecord(
                region_id=region_id[l], start_seq=region_start[l],
                end_seq=length or 0, store_count=region_stores[l],
                boundary_time=lc0, drain_wait=0.0, cause="end"))
        stats = CoreStats(scheme=stats_scheme)
        stats.name = trace.name
        stats.instructions = length
        stats.cycles = last_commit[l]
        stats.rename_oor_stall_cycles = oor[l]
        stats.regions = regions[l]
        stats.stores = stores[l]
        stats.free_reg_hist_int = Counter(hist_int[l])
        stats.free_reg_hist_fp = Counter(hist_fp[l])
        stats.commit_times = commit_times[l]
        stats.nvm_line_writes = nvm_writes[l]
        stats.nvm_reads = nvm_reads[l]
        stats.persist_ops = wb_issued[l]
        stats.persist_coalesced = wb_coal[l]
        stats.wb_full_stall_cycles = wb_stall[l]
        stats.load_level_counts = Counter(script.level_counts)
        if is_capri:
            stats.extra["capri_path_writes"] = path_writes[l]
        stats.extra["l2_miss_rate"] = script.l2_miss_rate
        stats.extra["eviction_writebacks"] = script.eviction_writebacks
        results[l] = LaneResult(stats)

    return finish_diverged(points, results, diverged)


def finish_diverged(points, results, diverged) -> list[LaneResult]:
    """Re-run each diverged lane on the scalar kernel and slot the
    results in; failures are reduced to :class:`LaneError`. Shared by
    every lockstep kernel."""
    for l, (at, __) in diverged.items():
        try:
            stats = _scalar_rerun(points[l])
            results[l] = LaneResult(stats, engine="scalar", diverged_at=at)
        except Exception as err:
            results[l] = LaneResult(None, engine="scalar", diverged_at=at,
                                    error=LaneError.from_exception(err))
    return results
