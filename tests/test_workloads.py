"""Workload profiles and the synthetic trace generator."""

import hashlib
import random

import pytest

from repro.isa.instructions import Opcode, RegClass
from repro.isa.trace import Trace
from repro.workloads.profiles import (
    ALL_PROFILES,
    SUITES,
    WorkloadProfile,
    memory_intensive_profiles,
    profile_by_name,
    profiles_in_suite,
)
from repro.workloads.synthetic import (
    TraceGenerator,
    generate_trace,
    randbelow,
)


class TestProfiles:
    def test_forty_one_applications(self):
        assert len(ALL_PROFILES) == 41

    def test_names_unique(self):
        names = [p.name for p in ALL_PROFILES]
        assert len(names) == len(set(names))

    def test_all_suites_present(self):
        assert {p.suite for p in ALL_PROFILES} == set(SUITES)

    def test_suite_populations(self):
        assert len(profiles_in_suite("CPU2006")) == 14
        assert len(profiles_in_suite("CPU2017")) == 8
        assert len(profiles_in_suite("SPLASH3")) == 6
        assert len(profiles_in_suite("STAMP")) == 4
        assert len(profiles_in_suite("WHISPER")) == 7
        assert len(profiles_in_suite("Mini-apps")) == 2

    def test_lookup_by_name(self):
        assert profile_by_name("gcc").suite == "CPU2006"

    def test_unknown_app_rejected(self):
        with pytest.raises(ValueError):
            profile_by_name("doom")

    def test_unknown_suite_rejected(self):
        with pytest.raises(ValueError):
            profiles_in_suite("GEEKBENCH")

    def test_cli_unknown_app_exits_2_in_one_line(self, capsys):
        from repro.workloads.__main__ import main

        assert main(["doom"]) == 2
        captured = capsys.readouterr()
        assert captured.err.strip() == "unknown workload 'doom'"
        assert captured.out == ""

    def test_multithreaded_suites_declare_threads(self):
        for suite in ("SPLASH3", "STAMP", "WHISPER"):
            for profile in profiles_in_suite(suite):
                assert profile.threads == 8
                assert profile.sync_interval > 0

    def test_spec_profiles_single_threaded(self):
        for suite in ("CPU2006", "CPU2017", "Mini-apps"):
            for profile in profiles_in_suite(suite):
                assert profile.threads == 1

    def test_memory_intensive_subset(self):
        names = {p.name for p in memory_intensive_profiles()}
        assert "lbm" in names and "mcf" in names and "pc" in names
        assert "gcc" not in names and "sjeng" not in names

    def test_invalid_mix_rejected(self):
        with pytest.raises(ValueError):
            WorkloadProfile(name="bad", suite="CPU2006", load_frac=0.6,
                            store_frac=0.3, branch_frac=0.2)

    def test_invalid_suite_rejected(self):
        with pytest.raises(ValueError):
            WorkloadProfile(name="bad", suite="GEEKBENCH")

    def test_every_profile_has_a_stack_region(self):
        for profile in ALL_PROFILES:
            names = [r.name for r in profile.regions]
            assert "stack" in names and "stream" in names

    def test_footprint_sums_regions(self):
        profile = profile_by_name("gcc")
        assert profile.footprint_bytes == sum(
            r.size_bytes for r in profile.regions)


class TestGenerator:
    def test_deterministic_for_same_seed(self):
        a = generate_trace(profile_by_name("gcc"), length=500, seed=3)
        b = generate_trace(profile_by_name("gcc"), length=500, seed=3)
        assert [(i.pc, i.opcode, i.addr) for i in a] == \
            [(i.pc, i.opcode, i.addr) for i in b]

    def test_different_seeds_differ(self):
        a = generate_trace(profile_by_name("gcc"), length=500, seed=1)
        b = generate_trace(profile_by_name("gcc"), length=500, seed=2)
        assert [(i.pc, i.opcode, i.addr) for i in a] != \
            [(i.pc, i.opcode, i.addr) for i in b]

    def test_mix_fractions_approximate_profile(self):
        profile = profile_by_name("gcc")
        stats = generate_trace(profile, length=20_000).stats()
        assert stats.store_fraction == pytest.approx(profile.store_frac,
                                                     rel=0.2)
        assert stats.load_fraction == pytest.approx(profile.load_frac,
                                                    rel=0.15)

    def test_fp_profile_emits_fp_ops(self):
        trace = generate_trace(profile_by_name("namd"), length=5_000)
        counts = trace.stats().opcode_counts
        fp_ops = sum(counts.get(op, 0) for op in
                     (Opcode.FP_ALU, Opcode.FP_MUL, Opcode.FP_DIV))
        assert fp_ops > 500

    def test_int_profile_emits_no_fp(self):
        trace = generate_trace(profile_by_name("sjeng"), length=5_000)
        counts = trace.stats().opcode_counts
        assert Opcode.FP_ALU not in counts

    def test_addresses_within_region_extents(self):
        generator = TraceGenerator(profile_by_name("gcc"), seed=0)
        trace = generator.generate(5_000)
        extents = generator.region_extents()
        spans = [(base, base + size) for __, base, size in extents]
        for instr in trace:
            if instr.opcode.is_mem:
                assert any(lo <= instr.addr < hi for lo, hi in spans)

    def test_addresses_are_word_aligned(self):
        trace = generate_trace(profile_by_name("gcc"), length=2_000)
        for instr in trace:
            if instr.opcode.is_mem:
                assert instr.addr % 8 == 0

    def test_sync_interval_places_syncs(self):
        generator = TraceGenerator(profile_by_name("gcc"), seed=0)
        trace = generator.generate(3_000, sync_interval=500)
        syncs = [i for i, ins in enumerate(trace)
                 if ins.opcode is Opcode.SYNC]
        assert syncs == [500, 1000, 1500, 2000, 2500]

    def test_base_registers_never_redefined(self):
        trace = generate_trace(profile_by_name("gcc"), length=5_000)
        for instr in trace:
            if instr.dest is not None and instr.dest.cls is RegClass.INT:
                assert instr.dest.index >= TraceGenerator._NUM_BASE_REGS

    def test_zero_length_rejected(self):
        generator = TraceGenerator(profile_by_name("gcc"))
        with pytest.raises(ValueError):
            generator.generate(0)

    def test_store_cursors_are_more_sequential(self):
        """Consecutive store addresses continue runs more often than
        loads — the locality persist coalescing exploits."""
        trace = generate_trace(profile_by_name("gcc"), length=20_000)
        def run_rate(kind):
            addrs = [i.addr for i in trace if i.opcode is kind]
            seq = sum(1 for a, b in zip(addrs, addrs[1:]) if b == a + 8)
            return seq / max(1, len(addrs))
        assert run_rate(Opcode.STORE) > run_rate(Opcode.LOAD)


def _thread_traces(length, threads=8, app="rb"):
    """The traces of a ``threads``-thread run's thread points."""
    from repro.multicore.system import thread_points
    from repro.orchestrator.points import point_inputs

    return [point_inputs(point)[0] for point in thread_points(
        profile_by_name(app), "ppa", threads, length=length)]


class TestMultithreaded:
    def test_one_trace_per_thread(self):
        traces = _thread_traces(1_000)
        assert len({id(t) for t in traces}) == 8
        assert [t.name for t in traces] == [f"rb/t{i}" for i in range(8)]

    def test_explicit_thread_count(self):
        # A thread's trace does not depend on the run's width.
        three = _thread_traces(1_000, threads=3)
        assert len(three) == 3
        assert three == _thread_traces(1_000, threads=16)[:3]

    def test_disjoint_address_spaces(self):
        traces = _thread_traces(2_000, threads=4)
        line_sets = []
        for trace in traces:
            line_sets.append({i.line_addr for i in trace
                              if i.opcode.is_mem})
        for a in range(len(line_sets)):
            for b in range(a + 1, len(line_sets)):
                assert not (line_sets[a] & line_sets[b])

    def test_syncs_aligned_across_threads(self):
        traces = _thread_traces(3_000, threads=4)
        positions = [
            [i for i, ins in enumerate(t) if ins.opcode is Opcode.SYNC]
            for t in traces
        ]
        assert all(p == positions[0] for p in positions)
        # The barrier reduction derives them from the profile alone.
        interval = profile_by_name("rb").sync_interval
        assert positions[0] == list(range(interval, 3_000, interval))

    def test_zero_threads_rejected(self):
        with pytest.raises(ValueError):
            _thread_traces(100, threads=0)


_COLUMNS = ("opcode_ids", "dest_cls", "dest_idx", "srcs", "addrs",
            "line_addrs", "pcs", "mispredicted")


def _columns(trace):
    dec = trace.decoded()
    return tuple(getattr(dec, name) for name in _COLUMNS)


def _profile_digest(profile):
    """Digest of the columns of a 2,000-instruction trace and a 50-
    instruction continuation from the same generator, plus the RNG state
    after both, over seeds {0, 7, 99991} x {profile default, sync every
    97}. ``repr`` keeps value types in the digest (``int`` vs ``bool``,
    tuple vs list)."""
    digest = hashlib.sha256()
    for seed in (0, 7, 99991):
        for interval in (None, 97):
            generator = TraceGenerator(profile, seed=seed)
            first = generator.generate(2000, sync_interval=interval)
            tail = generator.generate(50, sync_interval=interval)
            digest.update(repr((_columns(first), _columns(tail),
                                generator.rng.getstate())).encode())
    return digest.hexdigest()[:16]


# Pinned from the instruction-object generator the columnar one replaced:
# every seeded trace the repository ever produced is unchanged.
_PINNED_DIGESTS = {
    "perlbench": "0ca82c6733381964",
    "bzip2": "1653188578acaef5",
    "gcc": "545c2873fdd678d8",
    "mcf": "caba3ffefc8d09ff",
    "milc": "70bf4941e3301416",
    "namd": "a4f244e92eb2d476",
    "gobmk": "bc3f3d40f6be408d",
    "hmmer": "75b95e5eef032a96",
    "sjeng": "9c9385db1c58bd49",
    "libquantum": "5bc081741b3a84ca",
    "lbm": "9597ded2eabee2aa",
    "sphinx3": "658dfac406b0a096",
    "soplex": "eb68f005459af181",
    "h264ref": "75e51bc8c8bb49b9",
    "perlbench_r": "397ca0e4c3bc600b",
    "gcc_r": "46ebd5e8fa472ec8",
    "mcf_r": "6a1f876d788b064a",
    "omnetpp_r": "4eb4e00bdada8c05",
    "xalancbmk_r": "6180801e1822d33e",
    "x264_r": "2b1ac5111267d5e5",
    "deepsjeng_r": "ca2bf8977a259586",
    "nab_r": "cce340da25e6bee9",
    "barnes": "41b0948ef74b569e",
    "fmm": "def6c50b8dc343f7",
    "ocean": "31a1692b5dd50ca8",
    "radiosity": "577ea0377336fca9",
    "water-ns": "d9ddcd25aa804478",
    "water-sp": "90b722ea654c17e9",
    "genome": "a55c9d259af0baf9",
    "intruder": "bca0b47ac65f3687",
    "kmeans": "ca5596f6eee44118",
    "vacation": "a3b904351d9f86ed",
    "pc": "4b9fe57dd2de920e",
    "rb": "e96c50a3ccc6503d",
    "sps": "c6610926eb880941",
    "tatp": "dcb3b53e93dfeef6",
    "tpcc": "3d1d66339fe609c3",
    "r20w80": "31b93835b8849838",
    "r50w50": "106c2596c0a85fb5",
    "lulesh": "9b9e7ec46714c13d",
    "xsbench": "8569f01d1b171c5d",
}


class TestGeneratedColumnsPinned:
    def test_every_profile_is_pinned(self):
        assert set(_PINNED_DIGESTS) == {p.name for p in ALL_PROFILES}

    @pytest.mark.parametrize("name", sorted(_PINNED_DIGESTS))
    def test_columns_match_pin(self, name):
        assert _profile_digest(profile_by_name(name)) \
            == _PINNED_DIGESTS[name]

    @pytest.mark.parametrize(
        "n", [1, 2, 3, 5, 7, 8, 9, 15, 16, 17, 63, 64, 65, 1023, 1024, 1025,
              (1 << 23) - 1, 1 << 23, (1 << 23) + 1])
    def test_randbelow_draws_like_randrange(self, n):
        ours, theirs = random.Random(n), random.Random(n)
        for __ in range(200):
            assert randbelow(ours.getrandbits, n) == theirs.randrange(n)
        assert ours.getstate() == theirs.getstate()

    def test_randbelow_rejects_empty_range(self):
        with pytest.raises(ValueError):
            randbelow(random.Random(0).getrandbits, 0)

    def test_instruction_view_round_trips_to_the_columns(self):
        trace = TraceGenerator(profile_by_name("water-ns"), seed=3).generate(
            3000)
        rebuilt = Trace(trace.instructions)
        assert rebuilt.decoded() is not trace.decoded()
        assert _columns(rebuilt) == _columns(trace)
        assert len(rebuilt) == len(trace) == 3000

    def test_instruction_view_is_built_once(self):
        trace = generate_trace(profile_by_name("rb"), length=200)
        assert trace.instructions is trace.instructions
        assert trace[5] is trace.instructions[5]

    def test_stats_and_stores_materialize_nothing(self):
        trace = generate_trace(profile_by_name("gcc"), length=2000)
        stats = trace.stats()
        stores = trace.stores()
        assert trace._instructions is None
        assert len(stores) == stats.opcode_counts[Opcode.STORE]
        assert all(s.opcode is Opcode.STORE for s in stores)
        assert [s.addr for s in stores] == [
            i.addr for i in trace if i.opcode is Opcode.STORE]
        assert stats == Trace(trace.instructions).stats()
