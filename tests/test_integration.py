"""Cross-module integration: the paper's headline orderings end to end."""

from repro import simulate
from repro.analysis.stats import gmean
from repro.experiments.runner import run_points
from repro.orchestrator.points import DEFAULT_WARMUP, make_point

APPS = ("gcc", "rb")
LENGTH = 4_000


def _stats(app, scheme, **kwargs):
    """Stats of one point, run through the experiments' campaign path."""
    return run_points([make_point(app, scheme, **kwargs)])[0]


def _ratio(app, scheme):
    """``scheme``'s cycles over the baseline's for one app."""
    target, base = run_points([make_point(app, s, length=LENGTH)
                               for s in (scheme, "baseline")])
    return target.cycles / base.cycles


def _multithreaded(app, scheme, threads):
    return simulate(app, scheme=scheme, core="multicore", threads=threads,
                    length=2_000, warmup=DEFAULT_WARMUP).stats


class TestSchemeOrdering:
    """On warmed caches, the paper's ranking must hold:
    baseline <= PPA < Capri < ReplayCache."""

    def test_full_ordering(self):
        schemes = ("baseline", "ppa", "capri", "replaycache")
        stats = run_points([make_point(app, scheme, length=LENGTH)
                            for app in APPS for scheme in schemes])
        for index, _app in enumerate(APPS):
            base, ppa, capri, rc = (s.cycles for s in
                                    stats[4 * index:4 * index + 4])
            assert base <= ppa < capri < rc

    def test_ppa_overhead_is_single_digit_for_friendly_apps(self):
        ratio = _ratio("gcc", "ppa")
        assert 1.0 <= ratio < 1.10

    def test_replaycache_is_multiples_slower(self):
        ratio = _ratio("gcc", "replaycache")
        assert ratio > 3.0

    def test_eadr_hurts_memory_intensive_apps(self):
        ratio = _ratio("mcf", "eadr")
        assert ratio > 1.2

    def test_memory_mode_slower_than_dram_only(self):
        base, dram = run_points([make_point("lbm", scheme, length=LENGTH)
                                 for scheme in ("baseline", "dram-only")])
        assert base.cycles > dram.cycles


class TestRegionScale:
    def test_ppa_regions_an_order_longer_than_capri(self):
        ppa, capri = run_points([make_point("gcc", scheme, length=LENGTH)
                                 for scheme in ("ppa", "capri")])
        assert ppa.mean_region_instrs > 8 * capri.mean_region_instrs

    def test_ppa_regions_hide_persistence(self):
        ppa = _stats("gcc", "ppa", length=LENGTH)
        assert ppa.region_end_stall_fraction < 0.10


class TestCoalescingEffect:
    def test_most_stores_coalesce(self):
        ppa = _stats("gcc", "ppa", length=LENGTH)
        total = ppa.persist_ops + ppa.persist_coalesced
        assert ppa.persist_coalesced / total > 0.5

    def test_nvm_writes_below_store_count(self):
        ppa = _stats("gcc", "ppa", length=LENGTH)
        assert ppa.nvm_line_writes < len(ppa.stores)


class TestMultithreadedIntegration:
    def test_runner_multithreaded_path(self):
        result = _multithreaded("rb", "ppa", threads=2)
        assert result.threads == 2
        assert result.makespan > 0

    def test_multithreaded_runs_are_deterministic(self):
        first = _multithreaded("rb", "ppa", threads=2)
        second = _multithreaded("rb", "ppa", threads=2)
        assert first.makespan == second.makespan
        assert first.imbalance_cycles == second.imbalance_cycles


class TestDeterminism:
    def test_identical_runs_are_bit_identical(self):
        # Two campaigns with no cache between them: both simulate.
        a = _stats("water-ns", "ppa", length=2_500)
        b = _stats("water-ns", "ppa", length=2_500)
        assert a.cycles == b.cycles
        assert len(a.regions) == len(b.regions)
        assert [s.value for s in a.stores] == [s.value for s in b.stores]

    def test_seed_changes_results(self):
        a = _stats("water-ns", "ppa", length=2_500, seed=0)
        b = _stats("water-ns", "ppa", length=2_500, seed=1)
        assert a.cycles != b.cycles


class TestSuiteLevelShape:
    def test_gmean_overhead_small_across_sample(self):
        sample = ("gcc", "sjeng", "rb", "water-ns", "mcf")
        ratios = [_ratio(app, "ppa") for app in sample]
        assert 1.0 < gmean(ratios) < 1.12
