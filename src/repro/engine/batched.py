"""The batched kernels: N compatible runs per cohort, one lane at a time.

A cohort is a list of :class:`~repro.orchestrator.points.SimPoint`-shaped
points sharing an interned trace and a cache geometry (see
:mod:`repro.engine.plan`). :func:`run_cohort` dispatches a cohort to one
of two kernels:

* the **out-of-order kernel** (this module), for the schemes in
  :data:`KERNEL_SCHEMES`;
* the **in-order kernel** (:mod:`repro.engine.inorder_lanes`), for
  ``core="inorder"`` points (the in-order schemes,
  :data:`repro.orchestrator.points.INORDER_SCHEMES`).

Each kernel is a cohort prologue plus a lane walk. The prologue does the
lane-invariant work once: it loads the interned trace, its memory script
(:mod:`repro.engine.memscript`) and its decoded columns, for capri the
compiler-region bounds, and the store log's lane-invariant columns
(``seq``, ``pc``, ``addr``, ``line_addr``, ``data_cls``, and ``value``
from the trace's store-value stream,
:func:`repro.engine.memscript.value_stream`, or zeros). The walk then
runs one lane from the first instruction to the last, with all of its
state — free lists, CSQ occupancy, write-buffer slots, WPQ rings,
register ready times — in locals of one function, and its NVM device and
write buffer (:func:`nvm_device`, :func:`write_buffer`) as closures over
that state. It keeps no register values, and of each store it records
only what varies per lane: ``data_preg``, plus ``region_id`` and
``durable_at`` when the scheme keeps regions (:class:`StoreLog` columns,
shared across lanes where they agree). :func:`run_lanes` walks the lanes
one after another.

The arithmetic transliterates the scalar models (:mod:`repro.pipeline.core`
+ the persistence policies + WB/NVM device models), so the results are
bit-exact against them and the golden-count pins. The bandwidth takes
(rename and commit here, issue in the in-order kernel) are the one
place where the walk computes differently from
``BandwidthLimiter.take``: a take at time ``t`` stays in the current
cycle when ``t <= cycle`` and the cycle has a free slot, and otherwise
opens cycle ``-(-t // 1.0)`` if ``t > cycle``, else ``cycle + 1.0``.
That is exact because cycles are whole numbers, so ``ceil(t) > cycle``
holds exactly when ``t > cycle``, and floor division is an exact ceil
for finite ``t >= 0``. A non-finite ``t`` raises, as ``int(t)`` does in
the reference. Rename samples the free-register histogram when it opens
a cycle: that is exactly when the reference's sample weight (this
rename cycle minus the last) is positive. The cache hierarchy itself is
not re-simulated per lane — its decisions are lane-invariant and come
precompiled from the memory script; only the NVM device terms (WPQ
admission, port contention) are evaluated per lane.

Divergence: a lane whose walk raises (e.g. a PRF deadlock under an
undersized config) stops at that instruction and is re-run from scratch
on the scalar kernel, which reproduces scalar behaviour — including the
error itself — exactly. ``diverge_at`` gives lanes a stop index that
forces this path for testing. Lane failures travel as :class:`LaneError`
(type name, message, formatted traceback), never as live exception
objects, so a result list always survives the process-pool pickle
boundary.
"""

from __future__ import annotations

import random
import traceback as _traceback
from array import array
from bisect import bisect_right, insort
from collections import Counter
from dataclasses import dataclass, replace
from heapq import heappop, heappush
from time import perf_counter

from repro.engine.memscript import (
    MODE_APP_DIRECT,
    MODE_CONST,
    memory_script,
    value_stream,
)
from repro.isa.decoded import OP_LOAD, OP_STORE, OP_SYNC
from repro.isa.instructions import Opcode
from repro.persistence.capri import (
    DEFAULT_MEAN_REGION,
    DEFAULT_PATH_BANDWIDTH_GBS,
    REDO_BUFFER_BYTES,
    SEAL_STALL_CYCLES,
)
from repro.pipeline.core import _SYNC_LATENCY
from repro.pipeline.stats import CoreStats, RegionLog, StoreLog

_INF = float("inf")
_PRF_NAMES = ("int", "fp")

# Out-of-order schemes the batched kernel implements natively. "eadr" and
# "dram-only" run the baseline policy (NoPersistencePolicy) on a different
# backend, which the memory script already encodes; "capri" adds the
# compiler-region seal floor and the redo-buffer/dedicated-path device.
KERNEL_SCHEMES = frozenset({"ppa", "baseline", "eadr", "dram-only", "capri"})


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
    # Instruction index at which the lane's walk stopped and the lane was
    # re-run on the scalar kernel (None when it ran batched to the end).
    diverged_at: int | None = None
    error: LaneError | None = None
    # Seconds spent on this lane: its walk, its scalar re-run if it
    # diverged, and an even share of the cohort prologue.
    wall_clock: float = 0.0


def _scalar_rerun(point) -> CoreStats:
    from repro.orchestrator.execute import _scalar_simulate

    return _scalar_simulate(point)[0]


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
    """Run every point of a compatible cohort on the batched kernel;
    returns one :class:`LaneResult` per point, in order.

    ``diverge_at`` maps lane index -> the instruction index at which that
    lane's walk stops and the lane is re-run on the scalar kernel
    (testing hook for the divergence path; an index outside the trace
    never fires).
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
    return _run_ooo_cohort(points, diverge_at=diverge_at)


def _run_ooo_cohort(points, *, diverge_at=None) -> list[LaneResult]:
    """The out-of-order kernel: the cohort prologue, then one walk per
    lane."""
    from repro.orchestrator.points import bandwidth_share, point_inputs

    start = perf_counter()
    p0 = points[0]
    scheme = p0.scheme
    is_ppa = scheme == "ppa"
    is_capri = scheme == "capri"
    stats_scheme = scheme if scheme in ("ppa", "capri") else "baseline"
    trace, extents, __ = point_inputs(p0)
    script = memory_script(trace, p0.config.memory, extents is not None,
                           extents)

    dec = trace.decoded()
    length = dec.length
    ops = list(zip(dec.opcode_ids, dec.dest_cls, dec.dest_idx, dec.srcs,
                   script.entries, dec.line_addrs, dec.mispredicted))
    # The store log's lane-invariant columns, shared by every lane: the
    # stores sit at the same seqs in every lane. Store values depend only
    # on program order (see :func:`~repro.engine.memscript.value_stream`):
    # a lane that tracks values takes the stream, any other zeros, as the
    # scalar core. region_id and durable_at are constant unless the
    # scheme keeps regions.
    store_seqs = [seq for seq, op in enumerate(dec.opcode_ids)
                  if op == OP_STORE]
    n_stores = len(store_seqs)
    store_pcs = [dec.pcs[seq] for seq in store_seqs]
    store_addrs = [dec.addrs[seq] for seq in store_seqs]
    store_lines = [dec.line_addrs[seq] for seq in store_seqs]
    store_cls = [dec.srcs[seq][0][0] for seq in store_seqs]
    zeros = [0] * n_stores
    values = (value_stream(trace).tolist()
              if any(p.track_values for p in points) else zeros)
    no_region = [-1] * n_stores
    never_durable = [_INF] * n_stores
    l1_hit = p0.config.memory.l1d.hit_latency
    SYNC_LAT = _SYNC_LATENCY

    # Capri region boundaries are a pure function of seq (one RNG walk
    # shared by every lane); the seal floor, redo buffer and dedicated
    # persist path are per lane. The redo buffer always coalesces and its
    # path has persist_path_latency=0, so its slot/admission arithmetic
    # needs no eviction floor: an op whose drain has completed by
    # ``time`` fails the coalescing-window check anyway, and slot
    # admission reads the Kth-from-last accepted time, which prefix
    # pruning does not move. Other schemes get a bound no seq equals.
    cap_bounds = [-1]
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
        redo_entries = REDO_BUFFER_BYTES // 64

    def walk(point, end):
        """One lane over seqs ``[0, end)``; see :func:`run_lanes`."""
        core = point.config.core
        ppa = point.config.ppa
        nvm = point.config.memory.nvm
        width = core.width
        penalty = core.branch_mispredict_penalty
        lat_agen = core.lat_agen
        lat_tab = _latency_list(core, dec)
        nvm_write, nvm_read, replay, nvm_counts = nvm_device(
            nvm, bandwidth_share(point))
        advance_floor, persist_store, region_drain, seal_region, wb_totals = \
            write_buffer(ppa, nvm, nvm_write)

        # The first rename lands in cycle 0, which is never sampled.
        fetch_ready = last_commit = oor = ren_cycle = 0.0
        com_cycle = -1.0
        ren_used = com_used = 0
        # Release times of the ROB, LQ and SQ entries: each list starts
        # with one free entry per slot and grows by one release per
        # allocation, so the oldest live entry is always ``[-size]``.
        # commit_times doubles as the ROB's list.
        rob_sz = core.rob_size
        commit_times = [0.0] * rob_sz
        lq_sz = core.lq_size
        lq_rel = [0.0] * lq_sz
        sq_sz = core.sq_size
        sq_rel = [0.0] * sq_sz

        # Per register class (0 = int, 1 = fp).
        sizes = (core.int_prf_size, core.fp_prf_size)
        archs = (core.int_arch_regs, core.fp_arch_regs)
        rat_pair = tuple(list(range(archs[cls])) for cls in (0, 1))
        crt_pair = tuple(list(range(archs[cls])) for cls in (0, 1))
        free_pair = tuple(list(range(archs[cls], sizes[cls]))
                          for cls in (0, 1))
        sched_pair = ([], [])
        ready_pair = tuple([0.0] * sizes[cls] for cls in (0, 1))
        masked_pair = (set(), set())
        defer_pair = ([], [])
        sched_int, sched_fp = sched_pair
        free_int, free_fp = free_pair
        defer_int, defer_fp = defer_pair
        hist_int = {}
        hist_fp = {}
        # What varies per lane in the store log; regions as columns.
        data_pregs = []
        region_ids = []
        durables = []
        regions = RegionLog()
        add_region = regions.add

        # PPA policy state.
        csq_cnt = 0
        csq_entries = ppa.csq_entries
        min_def = ppa.min_deferred_for_boundary
        async_wb = ppa.async_writeback
        region_id = region_start = region_stores = 0
        last_store_commit = 0.0

        # Capri policy state: the seal floor, the redo buffer and its
        # dedicated persist path, a single NvmModel regardless of the
        # main memory's controller count.
        commit_floor = 0.0
        if is_capri:
            path_write, __, __, path_counts = nvm_device(replace(
                nvm, write_bandwidth_gbs=DEFAULT_PATH_BANDWIDTH_GBS,
                wpq_entries=redo_entries, persist_path_latency=0,
                num_controllers=1))
            redo_live = {}
            redo_slots = []
        next_bound = cap_bounds[0]
        cap_ptr = 0

        def close_region(end_seq, boundary, cause):
            """PpaPolicy._close_region; returns the drain cycle."""
            nonlocal csq_cnt, region_id, region_start, region_stores
            drain = seal_region(boundary)
            # rf.end_region(drain) for int then fp
            for cls in (0, 1):
                heap = sched_pair[cls]
                deferred = defer_pair[cls]
                for preg in deferred:
                    heappush(heap, (drain, preg))
                deferred.clear()
                masked_pair[cls].clear()
            csq_cnt = 0
            add_region(region_id, region_start, end_seq, region_stores,
                       boundary, drain - boundary, cause)
            region_id += 1
            region_start = end_seq
            region_stores = 0
            return drain

        seq = 0
        try:
            for seq, (opcode, dcls, didx, srcs, mem_entry, line,
                      mis) in enumerate(ops[:end]):
                if seq == next_bound:
                    # CapriPolicy.pre_rename: the compiler-inserted seal
                    # micro-op closes the region and briefly blocks
                    # retirement of the next one.
                    cap_ptr += 1
                    next_bound = cap_bounds[cap_ptr]
                    commit_floor = last_commit + SEAL_STALL_CYCLES
                    add_region(region_id, region_start, seq, region_stores,
                               last_commit, commit_floor - last_commit,
                               "compiler")
                    region_id += 1
                    region_start = seq
                    region_stores = 0

                # ---------------- rename stage ----------------
                t = fetch_ready
                slot = commit_times[-rob_sz]
                if slot > t:
                    t = slot
                if opcode == OP_LOAD:
                    slot = lq_rel[-lq_sz]
                    if slot > t:
                        t = slot
                elif opcode == OP_STORE:
                    slot = sq_rel[-sq_sz]
                    if slot > t:
                        t = slot

                preg = -1
                if dcls >= 0:
                    heap = sched_pair[dcls]
                    free = free_pair[dcls]
                    while heap and heap[0][0] <= t:
                        free.append(heappop(heap)[1])
                    while not free:
                        # policy.rename_blocked(cls, t, seq)
                        if is_ppa:
                            deferred_total = len(defer_int) + len(defer_fp)
                            next_free = heap[0][0] if heap else None
                            if deferred_total == 0 and next_free is None:
                                raise RuntimeError(
                                    f"{_PRF_NAMES[dcls]} PRF deadlock: no "
                                    "masked registers to reclaim and no "
                                    "reclamation pending")
                            if (next_free is not None
                                    and deferred_total < min_def):
                                resume = next_free
                            else:
                                boundary = (t if t >= last_store_commit
                                            else last_store_commit)
                                resume = close_region(seq, boundary,
                                                      "prf") + 1.0
                        else:
                            if not heap:
                                raise RuntimeError(
                                    f"{_PRF_NAMES[dcls]} PRF deadlock: no "
                                    "reclamation pending")
                            resume = heap[0][0]
                        delta = resume - t
                        if delta > 0.0:
                            oor += delta
                        if resume > t:
                            t = resume
                        while heap and heap[0][0] <= t:
                            free.append(heappop(heap)[1])

                # rename_bw.take(t) in closed form (see the module
                # docstring); opening a cycle samples the free counts.
                if t <= ren_cycle and ren_used < width:
                    ren_used += 1
                else:
                    cyc = ren_cycle + 1.0 if t <= ren_cycle else -(-t // 1.0)
                    if not cyc < _INF:
                        raise OverflowError(f"rename at time {t}")
                    while sched_int and sched_int[0][0] <= cyc:
                        free_int.append(heappop(sched_int)[1])
                    while sched_fp and sched_fp[0][0] <= cyc:
                        free_fp.append(heappop(sched_fp)[1])
                    weight = cyc - ren_cycle
                    key = len(free_int)
                    hist_int[key] = hist_int.get(key, 0) + weight
                    key = len(free_fp)
                    hist_fp[key] = hist_fp.get(key, 0) + weight
                    ren_cycle = cyc
                    ren_used = 1
                rename_time = ren_cycle

                # Sources read the RAT before the destination is
                # allocated; a mapped source is never the freshly popped
                # register, so its ready time is final here.
                ready = rename_time + 1.0
                for cls, index in srcs:
                    src_ready = ready_pair[cls][rat_pair[cls][index]]
                    if src_ready > ready:
                        ready = src_ready
                if opcode == OP_STORE:
                    data_cls, data_idx = srcs[0]
                    data_preg = rat_pair[data_cls][data_idx]
                    data_pregs.append(data_preg)
                if dcls >= 0:
                    # rf.allocate(didx, rename_time)
                    while heap and heap[0][0] <= rename_time:
                        free.append(heappop(heap)[1])
                    if not free:
                        raise RuntimeError(
                            f"{_PRF_NAMES[dcls]} PRF exhausted at cycle "
                            f"{rename_time}")
                    preg = free.pop()
                    rat_pair[dcls][didx] = preg

                # ---------------- execute ----------------
                if opcode == OP_LOAD:
                    issue = ready + lat_agen
                    if mem_entry[0] == MODE_CONST and not mem_entry[4]:
                        complete = issue + mem_entry[1]
                    else:
                        complete = issue + replay(mem_entry, issue, line)
                elif opcode == OP_STORE:
                    complete = ready + lat_agen
                    rfo_entry = mem_entry[0]
                    if rfo_entry is None:
                        rfo_done = complete
                    else:
                        rfo_done = complete + replay(rfo_entry, complete,
                                                     line)
                elif opcode == OP_SYNC:
                    complete = ready + SYNC_LAT
                else:
                    complete = ready + lat_tab[opcode]

                if dcls >= 0:
                    ready_pair[dcls][preg] = complete

                # ---------------- commit ----------------
                tentative = complete + 1.0
                if tentative < last_commit:
                    tentative = last_commit
                if is_capri:
                    # CapriPolicy.adjust_commit: the seal floor gates
                    # every commit in the next region.
                    if commit_floor > tentative:
                        tentative = commit_floor
                    if opcode == OP_STORE:
                        # CapriPolicy.store_commit_time: the store commits
                        # into the redo buffer; a backed-up drain to NVM
                        # backpressures the commit until an entry frees.
                        op = redo_live.get(line)
                        if op is not None and op[1] > tentative:
                            if op[0] > tentative:
                                tentative = op[0]
                        else:
                            if (len(redo_slots)
                                    - bisect_right(redo_slots, tentative)
                                    >= redo_entries):
                                admit = redo_slots[len(redo_slots)
                                                   - redo_entries]
                            else:
                                admit = tentative
                            accepted, done, __ = path_write(line, admit)
                            insort(redo_slots, accepted)
                            redo_live[line] = [accepted, done]
                            if accepted > tentative:
                                tentative = accepted
                if is_ppa:
                    if opcode == OP_STORE:
                        # PpaPolicy.store_commit_time
                        if csq_cnt >= csq_entries:
                            drain = close_region(seq, tentative, "csq")
                            if drain > tentative:
                                tentative = drain
                        if not async_wb:
                            rd = region_drain(tentative)
                            if rd > tentative:
                                tentative = rd
                    elif opcode == OP_SYNC:
                        # PpaPolicy.sync_commit_time
                        drain = close_region(seq + 1, tentative, "sync")
                        if drain > tentative:
                            tentative = drain

                # commit_bw.take(tentative), the same closed form.
                if tentative <= com_cycle and com_used < width:
                    com_used += 1
                else:
                    com_cycle = (com_cycle + 1.0 if tentative <= com_cycle
                                 else -(-tentative // 1.0))
                    if not com_cycle < _INF:
                        raise OverflowError(f"commit at time {tentative}")
                    com_used = 1
                commit = last_commit = com_cycle
                commit_times.append(commit)

                if dcls >= 0:
                    crt = crt_pair[dcls]
                    old = crt[didx]
                    crt[didx] = preg
                    if old in masked_pair[dcls]:
                        defer_pair[dcls].append(old)
                    else:
                        heappush(sched_pair[dcls], (commit, old))

                if opcode == OP_LOAD:
                    lq_rel.append(commit)
                elif opcode == OP_STORE:
                    merge_from = commit if commit >= rfo_done else rfo_done
                    merge_entry = mem_entry[1]
                    if merge_entry is None:
                        merge_time = merge_from + l1_hit
                    else:
                        merge_time = merge_from + replay(merge_entry,
                                                         merge_from, line)
                    sq_rel.append(merge_time)
                    if is_ppa:
                        # PpaPolicy.store_committed
                        region_ids.append(region_id)
                        last_store_commit = commit
                        masked_pair[data_cls].add(data_preg)
                        csq_cnt += 1
                        region_stores += 1
                        advance_floor(commit)
                        durables.append(persist_store(line, merge_time))
                    elif is_capri:
                        # CapriPolicy.store_committed: durable on redo-
                        # buffer entry (battery-backed).
                        region_ids.append(region_id)
                        durables.append(commit)
                        region_stores += 1

                if mis:
                    resteer = complete + penalty
                    if resteer > fetch_ready:
                        fetch_ready = resteer
        except Exception:
            return None, seq
        if end < length:
            return None, end

        # ---------------- finalize ----------------
        if is_ppa:
            # policy.finish(last_commit_time)
            close_region(length, last_commit, "end")
        elif is_capri:
            # CapriPolicy.finish: the trailing region closes at the last
            # commit with no drain wait (redo entries are already
            # durable).
            add_region(region_id, region_start, length, region_stores,
                       last_commit, 0.0, "end")
        del commit_times[:rob_sz]
        stats = CoreStats(scheme=stats_scheme,
                          commit_times=array("d", commit_times))
        stats.name = trace.name
        stats.instructions = length
        stats.cycles = last_commit
        stats.rename_oor_stall_cycles = oor
        stats.regions = regions
        keeps_regions = is_ppa or is_capri
        stats.stores = StoreLog((
            store_seqs, store_pcs, store_addrs, store_lines,
            values if point.track_values else zeros, data_pregs, store_cls,
            [commit_times[seq] for seq in store_seqs],
            region_ids if keeps_regions else no_region,
            durables if keeps_regions else never_durable))
        stats.free_reg_hist_int = Counter(hist_int)
        stats.free_reg_hist_fp = Counter(hist_fp)
        stats.nvm_line_writes, stats.nvm_reads = nvm_counts()
        (stats.persist_ops, stats.persist_coalesced,
         stats.wb_full_stall_cycles) = wb_totals()
        stats.load_level_counts = Counter(script.level_counts)
        if is_capri:
            stats.extra["capri_path_writes"] = path_counts()[0]
        stats.extra["l2_miss_rate"] = script.l2_miss_rate
        stats.extra["eviction_writebacks"] = script.eviction_writebacks
        return stats, None

    return run_lanes(points, length, walk, start, diverge_at)


def run_lanes(points, length, walk, start, diverge_at=None) \
        -> list[LaneResult]:
    """Walk each lane of a cohort to its end, one after another; shared by
    both kernels.

    ``walk(point, end)`` runs one lane over seqs ``[0, end)`` and returns
    ``(stats, None)``, or ``(None, seq)`` when the lane stopped at
    ``seq``: because it raised there, or because ``end < length``. A
    stopped lane is re-run from scratch on the scalar kernel; a failure
    there is reduced to :class:`LaneError`. ``diverge_at`` maps lane
    index -> stop seq; a seq outside ``[0, length)`` never fires. Each
    lane's ``wall_clock`` is its walk, its scalar re-run and an even
    share of the prologue, which ran from ``start`` until this call.
    """
    share = (perf_counter() - start) / len(points)
    results = []
    for l, point in enumerate(points):
        lane_start = perf_counter()
        end = diverge_at.get(l, length) if diverge_at else length
        if not 0 <= end < length:
            end = length
        stats, at = walk(point, end)
        if at is None:
            lane = LaneResult(stats)
        else:
            try:
                lane = LaneResult(_scalar_rerun(point), engine="scalar",
                                  diverged_at=at)
            except Exception as err:
                lane = LaneResult(None, engine="scalar", diverged_at=at,
                                  error=LaneError.from_exception(err))
        lane.wall_clock = perf_counter() - lane_start + share
        results.append(lane)
    return results


def nvm_device(nvm, share=1.0):
    """One lane's ``NvmModel(nvm, bandwidth_share=share)``, as closures
    over its state: returns ``(write, read, replay, counts)``.

    * ``write(line, submit)`` -> ``(accepted, done, backpressure)``
      (``NvmModel.write_line``);
    * ``read(line, submit)`` -> latency (``NvmModel.read``);
    * ``replay(entry, base, line)`` -> the latency of one memory-script
      entry evaluated at lane time ``base``;
    * ``counts()`` -> ``(line writes, reads)``.

    The scalar WPQ deque (drain completions <= submit, oldest outstanding
    gates admission) reduces to a ring of the last ``wpq_entries``
    completion times per controller: completions are appended in
    nondecreasing order, so write ``k`` is gated by
    ``done[k - wpq_entries]`` — but only while that entry is still
    queued. Deque drains are cumulative and submits are not monotone
    (write-buffer persists land late, eviction writes early), so an entry
    popped by an earlier, *later-submitted* write never gates again: the
    drain threshold is the running max of submit times.
    """
    nctl = max(1, nvm.num_controllers)
    cpl = nvm.cycles_per_line / share
    cpl_q = cpl * 0.25
    rcpl = nvm.read_cycles_per_line / share
    wlat = nvm.write_latency
    rlat = nvm.read_latency
    wpq_n = nvm.wpq_entries
    port_free = [0.0] * nctl
    rport_free = [0.0] * nctl
    wpq_ring = [[0.0] * wpq_n for __ in range(nctl)]
    wpq_cnt = [0] * nctl
    wpq_smax = [0.0] * nctl
    writes = reads = 0

    def write(line, submit):
        nonlocal writes
        k = (line >> 6) % nctl if nctl > 1 else 0
        cnt = wpq_cnt[k]
        ring = wpq_ring[k]
        smax = wpq_smax[k]
        if submit > smax:
            smax = submit
            wpq_smax[k] = smax
        accepted = submit
        if cnt >= wpq_n:
            gate = ring[cnt % wpq_n]
            if gate > smax:
                accepted = gate
        pf = port_free[k]
        start = accepted if accepted >= pf else pf
        port_free[k] = start + cpl
        done = start + wlat
        ring[cnt % wpq_n] = done
        wpq_cnt[k] = cnt + 1
        writes += 1
        return accepted, done, accepted - submit

    def read(line, submit):
        nonlocal reads
        k = (line >> 6) % nctl if nctl > 1 else 0
        rp = rport_free[k]
        start = submit if submit >= rp else rp
        rport_free[k] = start + rcpl
        queue = start - submit
        contention = port_free[k] - submit
        if contention < 0.0:
            contention = 0.0
        if contention > cpl_q:
            contention = cpl_q
        reads += 1
        return rlat + queue + contention

    def replay(entry, base, line):
        mode = entry[0]
        lat = entry[1]
        if mode != MODE_CONST:
            x = base + lat
            if mode == MODE_APP_DIRECT:
                lat = lat + read(line, x)
            else:
                probe = entry[2]
                pr = probe + read(line, x + probe)
                if entry[3] is not None:
                    write(entry[3], x + pr)
                lat = lat + pr
        fills = entry[4]
        if fills:
            back = 0.0
            for fill_line in fills:
                back += write(fill_line, base)[2]
            lat += back
        return lat

    def counts():
        return writes, reads

    return write, read, replay, counts


def write_buffer(ppa, nvm, nvm_write):
    """One lane's persist ``WriteBuffer`` over its device's ``nvm_write``,
    as closures over its state: returns ``(advance_floor, persist_store,
    region_drain, seal_region, totals)``.

    Persist ops are ``[durable_at, done_at, region_tag]``. Functional
    payload writes are not tracked: cohorts never capture the persist
    log. ``persist_store`` returns the store's durable time,
    ``seal_region(boundary)`` drains and resets the region and returns
    its drain cycle, and ``totals()`` gives ``(persist ops, coalesced,
    full-stall cycles)``.
    """
    entries = ppa.writebuffer_entries
    coalescing = ppa.persist_coalescing
    path_lat = nvm.persist_path_latency
    live = {}
    done_heap = []
    slots = []
    region_ops = []
    floor = region_sd = stall = 0.0
    next_done = _INF
    region_seq = issued = coalesced = 0

    def advance_floor(time):
        nonlocal floor, next_done
        if time <= floor:
            return
        floor = time
        if time < next_done:
            return
        while done_heap and done_heap[0][0] <= time:
            __, line = heappop(done_heap)
            op = live.get(line)
            if op is not None and op[1] <= time:
                del live[line]
        next_done = done_heap[0][0] if done_heap else _INF

    def persist_store(line, time):
        nonlocal next_done, region_sd, stall, issued, coalesced
        op = live.get(line) if coalescing else None
        if op is not None and op[1] > time:
            coalesced += 1
        else:
            drained = bisect_right(slots, floor)
            if drained:
                del slots[:drained]
            if len(slots) - bisect_right(slots, time) >= entries:
                admit = slots[len(slots) - entries]
            else:
                admit = time
            stall += admit - time
            accepted, done, __ = nvm_write(line, admit + path_lat)
            op = [accepted, done, region_seq]
            insort(slots, accepted)
            if coalescing:
                live[line] = op
                heappush(done_heap, (done, line))
                if done < next_done:
                    next_done = done
            region_ops.append(op)
            issued += 1
        mp = time + path_lat
        durable = op[0] if op[0] >= mp else mp
        if durable > region_sd:
            region_sd = durable
        if op[2] != region_seq:
            op[2] = region_seq
            region_ops.append(op)
        return durable

    def region_drain(boundary):
        drained = boundary if boundary >= region_sd else region_sd
        for op in region_ops:
            if op[0] > drained:
                drained = op[0]
        return drained

    def seal_region(boundary):
        nonlocal region_seq, region_sd
        drain = region_drain(boundary)
        region_ops.clear()
        region_seq += 1
        region_sd = 0.0
        advance_floor(drain)
        return drain

    def totals():
        return issued, coalesced, stall

    return advance_floor, persist_store, region_drain, seal_region, totals
