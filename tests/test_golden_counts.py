"""Golden-count pins: exact model outputs frozen per (core, scheme).

Perf work on the simulator must be *bit-exact*: only data representation
and access patterns may change, never the event order or arithmetic.
These tests pin exact cycle, instruction, and persist totals for one
(core x scheme x workload) configuration per scheme — captured from the
pre-optimization tree — plus 12,000-instruction runs and two uncached
sweep campaigns on both engines, so any accidental model drift fails
loudly with the numbers in hand. ``perfbench/run.py`` checks the three
timed user paths against its own digest pins.

Every value here is a *model output*, deterministic across machines and
Python versions (seeded RNG, pure-float timing math); a legitimate model
change must update these pins explicitly and say why.
"""

import pytest

from repro import simulate

# (scheme, cycles, nvm_line_writes, persist_ops, persist_coalesced,
#  regions, stores) for gcc at length 3000 on the OoO core.
OOO_GOLDEN = [
    ("baseline", 2156.0, 0, 0, 0, 0, 155),
    ("ppa", 2170.0, 32, 32, 123, 4, 155),
    ("replaycache", 13053.0, 155, 0, 0, 257, 155),
    ("capri", 2543.0, 0, 0, 0, 85, 155),
    ("eadr", 2776.0, 0, 0, 0, 0, 155),
    ("dram-only", 1860.0, 0, 0, 0, 0, 155),
    ("psp-undolog", 16885.0, 310, 0, 0, 20, 155),
    ("psp-redolog", 16636.0, 307, 0, 0, 20, 155),
    ("sb-gate", 4921.0, 155, 0, 0, 1, 155),
]


class TestOoOGoldenCounts:
    @pytest.mark.parametrize(
        "scheme,cycles,line_writes,persist_ops,coalesced,regions,stores",
        OOO_GOLDEN, ids=[row[0] for row in OOO_GOLDEN])
    def test_gcc_3000(self, scheme, cycles, line_writes, persist_ops,
                      coalesced, regions, stores):
        stats = simulate("gcc", scheme=scheme, core="ooo",
                         length=3000).stats
        assert stats.instructions == 3000
        assert stats.cycles == cycles
        assert stats.nvm_line_writes == line_writes
        assert stats.persist_ops == persist_ops
        assert stats.persist_coalesced == coalesced
        assert len(stats.regions) == regions
        assert len(stats.stores) == stores
        assert stats.wb_full_stall_cycles == 0.0


class TestInOrderGoldenCounts:
    def test_ppa_rb_3000(self):
        stats = simulate("rb", scheme="ppa", core="inorder",
                         length=3000).stats
        assert stats.instructions == 3000
        assert stats.cycles == 117306.0
        assert stats.nvm_line_writes == 156
        assert len(stats.regions) == 7
        assert len(stats.entries) == 187

    def test_baseline_rb_3000(self):
        stats = simulate("rb", scheme="baseline", core="inorder",
                         length=3000).stats
        assert stats.instructions == 3000
        assert stats.cycles == 116922.0
        assert stats.nvm_line_writes == 0
        assert len(stats.regions) == 0
        assert len(stats.entries) == 0


class TestMulticoreGoldenCounts:
    def test_ppa_water_ns_4x1500(self):
        stats = simulate("water-ns", scheme="ppa", core="multicore",
                         threads=4, length=1500).stats
        assert stats.total_instructions == 6000
        assert stats.makespan == 1071.0
        assert stats.nvm_line_writes == 86


# (core, scheme, app, cycles) at seed 0 and 12,000 instructions.
LONG_GOLDEN = [
    ("ooo", "baseline", "gcc", 7566.0),
    ("ooo", "ppa", "gcc", 7608.0),
    ("ooo", "ppa", "mcf", 32821.0),
    ("ooo", "capri", "gcc", 9689.0),
    ("ooo", "psp-undolog", "rb", 84860.0),
    ("inorder", "ppa", "rb", 388472.0),
]


class TestLongRunGoldenCounts:
    @pytest.mark.parametrize(
        "core,scheme,app,cycles", LONG_GOLDEN,
        ids=[f"{core}-{scheme}-{app}" for core, scheme, app, _
             in LONG_GOLDEN])
    def test_12000(self, core, scheme, app, cycles):
        stats = simulate(app, scheme=scheme, core=core, length=12_000,
                         seed=0).stats
        assert stats.instructions == 12_000
        assert stats.cycles == cycles

    def test_multicore_ppa_water_ns_4x3000(self):
        stats = simulate("water-ns", scheme="ppa", core="multicore",
                         threads=4, length=3000, seed=0).stats
        assert stats.total_instructions == 12_000
        assert stats.makespan == 2331.0


# (sweep, apps, total cycles, total instructions) of an uncached
# campaign at 4,000 instructions per point.
CAMPAIGN_GOLDEN = [
    ("fig16", ("rb",), 47707.0, 48_000),
    ("fig15", ("rb", "mcf", "lbm", "water-ns"), 149054.0, 96_000),
]


class TestCampaignGoldenCounts:
    """Both engines give the same totals: the batched cohort kernel is
    bit-exact with the scalar reference over a whole sweep."""

    @pytest.mark.parametrize("engine", ["scalar", "batched"])
    @pytest.mark.parametrize(
        "sweep,apps,cycles,instructions", CAMPAIGN_GOLDEN,
        ids=[row[0] for row in CAMPAIGN_GOLDEN])
    def test_sweep_totals(self, sweep, apps, cycles, instructions, engine):
        from repro.orchestrator.campaign import Campaign
        from repro.orchestrator.campaigns import build_sweep, sweep_spec

        campaign = Campaign(cache=None, engine=engine)
        campaign.extend(build_sweep(sweep_spec(sweep, apps=apps,
                                               length=4000)))
        results = campaign.run()
        assert all(result.ok for result in results)
        assert sum(result.cycles for result in results) == cycles
        assert sum(result.instructions for result in results) \
            == instructions


class TestCrashOracleGolden:
    def test_ppa_rb_midpoint_crash(self):
        result = simulate("rb", scheme="ppa", core="ooo", length=2000)
        crash = result.crash_api.crash_at(result.stats.cycles / 2)
        recovery = result.crash_api.recover(crash)
        assert crash.fail_time == 800.5
        assert crash.last_committed_seq == 752
        assert recovery.resume_pc == 4197317
        assert recovery.replayed == 7


# (scheme, program, cycles, nvm_line_writes, stores) for the first
# compiled interleaving on the OoO core, plus the conformance counts
# (allowed, observed, crash_points, runs) of the full check — one
# representative litmus program per scheme. These pin both the timing of
# the tiny hand-built traces and the exact observed-crash-state sweep.
LITMUS_GOLDEN = [
    ("baseline", "mp", 8.0, 0, 2, 4, 1, 6, 6),
    ("ppa", "mp+fence", 516.0, 2, 2, 3, 3, 80, 10),
    ("replaycache", "wo", 4.0, 2, 2, 4, 3, 3, 1),
    ("capri", "mp", 8.0, 0, 2, 4, 3, 17, 6),
    ("eadr", "sb", 412.0, 0, 2, 4, 1, 6, 6),
    ("dram-only", "coalesce", 5.0, 0, 3, 4, 1, 1, 1),
    ("psp-undolog", "wo+line", 94.0, 4, 2, 4, 3, 3, 1),
    ("psp-redolog", "2+2w", 5.0, 4, 4, 9, 5, 24, 6),
    ("sb-gate", "sb+fence", 527.0, 2, 2, 4, 4, 60, 20),
]


class TestLitmusGoldenCounts:
    @pytest.mark.parametrize(
        "scheme,program,cycles,line_writes,stores,"
        "allowed,observed,crash_points,runs",
        LITMUS_GOLDEN, ids=[row[0] for row in LITMUS_GOLDEN])
    def test_representative_program(self, scheme, program, cycles,
                                    line_writes, stores, allowed,
                                    observed, crash_points, runs):
        from repro.litmus.compile import interleavings
        from repro.litmus.families import program_by_name
        from repro.litmus.harness import check_program
        from repro.litmus.workload import litmus_point
        from repro.orchestrator.execute import simulate_point
        from repro.orchestrator.points import config_for

        prog = program_by_name(program)
        point = litmus_point(prog, interleavings(prog)[0], scheme,
                             config=config_for(scheme, None))
        stats, __ = simulate_point(point)
        assert stats.cycles == cycles
        assert stats.nvm_line_writes == line_writes
        assert len(stats.stores) == stores

        result = check_program(prog, "ooo", scheme)
        assert result.sound
        assert len(result.allowed) == allowed
        assert len(result.observed) == observed
        assert result.crash_points == crash_points
        assert result.runs == runs
