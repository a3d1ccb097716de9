"""The litmus engine end to end: DSL, compiler, harness, CLI."""

import json

import pytest

from repro.litmus.compile import (
    compile_interleaving,
    interleavings,
    location_addrs,
    thread_traces,
    value_map,
)
from repro.litmus.families import curated_suite, program_by_name
from repro.litmus.harness import (
    INORDER_SCHEMES,
    LitmusViolation,
    RELAXED_SCHEMES,
    _Check,
    check_program,
    reference_program,
    run_suite,
    target_matrix,
)
from repro.litmus.program import LitmusProgram, store
from repro.litmus.workload import LitmusWorkload, litmus_point
from repro.litmus.__main__ import main


class TestProgramDsl:
    def test_validation(self):
        with pytest.raises(ValueError):
            store("x", 0)                       # values must be nonzero
        with pytest.raises(ValueError):
            LitmusProgram(name="empty", threads=((),))
        with pytest.raises(ValueError):
            LitmusProgram(name="bad", threads=((store("x", 1),),),
                          same_line=(("x", "ghost"),))

    def test_locations_first_appearance_order(self):
        program = LitmusProgram(
            name="t", threads=((store("b", 1), store("a", 1)),
                               (store("c", 1),)))
        assert program.locations == ("b", "a", "c")

    def test_roundtrip_and_describe(self):
        for program in curated_suite():
            assert LitmusProgram.from_dict(program.to_dict()) == program
            assert LitmusProgram.from_canonical(
                program.canonical()) == program
        assert program_by_name("mp+fence").describe() == \
            "t0: x=1; barrier; y=1 || t1: r=y; r=x"

    def test_store_disjoint(self):
        assert program_by_name("mp").store_disjoint
        assert not program_by_name("2+2w").store_disjoint

    def test_reference_program_relaxes(self):
        program = program_by_name("mp+fence+line")
        relaxed = reference_program(program, next(iter(RELAXED_SCHEMES)))
        assert relaxed.same_line == ()
        assert all(op.kind != "barrier"
                   for ops in relaxed.threads for op in ops)
        assert reference_program(program, "ppa") is program


class TestCompiler:
    def test_interleavings_deterministic_and_bounded(self):
        program = program_by_name("2+2w")
        inters = interleavings(program, limit=6)
        assert inters == interleavings(program, limit=6)
        assert len(inters) <= 6
        # The two pure sequentializations are always kept.
        assert inters[0] == (0, 0, 1, 1)
        assert inters[-1] == (1, 1, 0, 0)
        for inter in inters:
            assert sorted(inter) == [0, 0, 1, 1]

    def test_compile_is_deterministic(self):
        program = program_by_name("mp+fence")
        inter = interleavings(program)[0]
        a = compile_interleaving(program, inter)
        b = compile_interleaving(program, inter)
        assert [str(i) for i in a] == [str(i) for i in b]
        assert a.name == f"litmus:mp+fence/{''.join(map(str, inter))}"

    def test_value_map_is_injective_and_interleaving_invariant(self):
        program = program_by_name("2+2w")
        vmap = value_map(program)
        assert len(vmap) == 4                  # four distinct stores
        assert all(payload != 0 for payload in vmap)
        # The payload a store writes cannot depend on the interleaving,
        # or observed-state decoding would be ambiguous.
        assert value_map(program) == vmap

    def test_locations_get_distinct_lines(self):
        program = program_by_name("2+2w")       # no same_line grouping
        addrs = location_addrs(program)
        lines = {addr // 64 for addr in addrs.values()}
        assert len(lines) == len(addrs)

    def test_same_line_grouping_shares_a_line(self):
        addrs = location_addrs(program_by_name("2+2w+line"))
        assert len({addr // 64 for addr in addrs.values()}) == 1

    def test_thread_traces_split_threads(self):
        program = program_by_name("mp+fence")
        traces = thread_traces(program)
        assert len(traces) == 2


class TestWorkloadWiring:
    def test_workload_ignores_interner_layout_args(self):
        program = program_by_name("mp")
        inter = interleavings(program)[0]
        workload = LitmusWorkload.from_program(program, inter)
        reference = compile_interleaving(program, inter)
        built = workload.build_trace(999, seed=7, addr_base=0x10_0000,
                                     sync_interval=50)
        assert [str(i) for i in built] == [str(i) for i in reference]
        assert workload.region_extents(addr_base=0x10_0000) == ()

    def test_point_shape(self):
        program = program_by_name("mp")
        point = litmus_point(program, interleavings(program)[0], "ppa")
        assert point.warmup == 0
        assert point.track_values
        assert point.capture_persist_log
        trace = compile_interleaving(program, interleavings(program)[0])
        assert point.length == len(trace)

    def test_point_payload_roundtrip(self, tmp_path):
        """A litmus point survives the worker/cache payload contract."""
        from repro.orchestrator.cache import ResultCache
        from repro.orchestrator.campaign import Campaign

        program = program_by_name("wo")
        point = litmus_point(program, interleavings(program)[0], "ppa")
        cache = ResultCache(str(tmp_path))
        one = Campaign(cache=cache)
        one.add(point)
        first = one.run()[0]
        two = Campaign(cache=cache)
        two.add(point)
        again = two.run()[0]
        assert first.ok and again.ok
        assert again.stats.cycles == first.stats.cycles
        assert again.persist_log is not None


class TestConformance:
    def test_ppa_ooo_is_sound_with_full_coverage(self):
        result = check_program(program_by_name("mp+fence"), "ooo", "ppa")
        assert result.sound
        assert result.coverage == 1.0
        assert result.runs == 10

    def test_inorder_rejects_unknown_scheme(self):
        with pytest.raises(ValueError):
            check_program(program_by_name("wo"), "inorder", "capri")
        assert "capri" not in INORDER_SCHEMES

    def test_multicore_skips_store_overlap(self):
        result = check_program(program_by_name("2+2w"), "multicore", "ppa")
        assert result.skipped
        assert result.runs == 0

    def test_multicore_runs_disjoint_programs(self):
        result = check_program(program_by_name("sb"), "multicore", "ppa")
        assert not result.skipped
        assert result.sound

    def test_strict_mode_raises_first_class_violation(self):
        program = program_by_name("wo")
        check = _Check(program, "ooo", "ppa", strict=True)
        addr = location_addrs(program)["x"]
        with pytest.raises(LitmusViolation) as excinfo:
            check.note(3.0, {addr: 0xDEAD}, "nvm", (0, 0))
        violation = excinfo.value
        assert violation.program == "wo"
        assert violation.interleaving == (0, 0)
        assert violation.fail_time == 3.0
        assert "unknown payload" in str(violation)

    def test_lenient_mode_collects_violations(self):
        program = program_by_name("wo")
        check = _Check(program, "ooo", "ppa", strict=False)
        addrs = location_addrs(program)
        vmap = value_map(program)
        y_payload = next(payload for payload, (loc, __) in vmap.items()
                         if loc == "y")
        # y's payload sitting at x's address is a cross-location leak.
        check.note(3.0, {addrs["x"]: y_payload}, "nvm", (0, 0))
        assert not check.result.sound
        assert len(check.result.violations) == 1

    def test_suite_report_aggregates(self):
        report = run_suite((program_by_name("wo"),),
                           (("ooo", "ppa"), ("ooo", "baseline")))
        assert report.ok
        assert report.checked == 2
        assert report.soundness_violations == 0
        data = report.to_dict()
        assert data["ok"] and data["checked"] == 2
        assert "== litmus conformance ==" in report.to_text()

    def test_target_matrix_filters_inorder(self):
        matrix = target_matrix(("inorder",), None)
        assert set(matrix) == {("inorder", "ppa"), ("inorder", "baseline")}
        with pytest.raises(ValueError):
            target_matrix(("riscy",), None)


class TestCli:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for program in curated_suite():
            assert program.name in out

    def test_enumerate_json(self, capsys):
        assert main(["enumerate", "mp+fence", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["program"] == "mp+fence"
        assert sorted(map(tuple, data["allowed"])) == \
            [(0, 0), (1, 0), (1, 1)]

    @pytest.mark.parametrize("argv,message", [
        (["run", "--cores", "bogus"], "unknown core 'bogus'"),
        (["run", "--schemes", "bogus"], "unknown scheme 'bogus'"),
        (["run", "--programs", "bogus"], "unknown litmus program 'bogus'"),
        (["enumerate", "bogus"], "unknown litmus program 'bogus'"),
    ])
    def test_unknown_names_exit_2_in_one_line(self, argv, message, capsys):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(message)
        assert len(captured.err.strip().splitlines()) == 1
        assert captured.out == ""

    def test_run_subset_json(self, capsys):
        code = main(["run", "--programs", "wo,wo+fence", "--cores", "ooo",
                     "--schemes", "ppa,baseline", "--json"])
        out = capsys.readouterr().out
        assert code == 0
        data = json.loads(out)
        assert data["ok"]
        assert data["soundness_violations"] == 0
        assert data["checked"] == 4
