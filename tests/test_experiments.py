"""The experiment harness: registry, runner, and light experiment runs."""

import pytest

from repro.experiments.base import Experiment, ExperimentResult
from repro.experiments.registry import all_experiments, get_experiment
from repro.experiments.runner import (
    configure_disk_cache,
    disk_cache,
    run_points,
)
from repro.experiments import figures, tables, ablations
from repro.orchestrator.points import make_point

LIGHT_APPS = ("gcc", "rb")
LIGHT = dict(apps=LIGHT_APPS, length=2_000)


class TestRegistry:
    EXPECTED = {
        "fig1", "fig5", "fig8", "fig9", "fig10", "fig11", "fig12",
        "fig13", "fig14", "fig15", "fig16", "fig17", "fig18", "fig19",
        "tab1", "tab4", "tab5", "tab6", "sec713",
        "ablation-async", "ablation-coalescing", "ablation-boundary",
        "ablation-integrity",
        "ext-psp", "ext-region-length", "ext-sbgate", "ext-inorder",
        "litmus",
    }

    def test_every_figure_and_table_registered(self):
        assert set(all_experiments()) == self.EXPECTED

    def test_get_experiment(self):
        experiment = get_experiment("fig8")
        assert experiment.experiment_id == "fig8"
        assert "2%" in experiment.paper_claim

    def test_unknown_experiment_rejected(self):
        with pytest.raises(ValueError):
            get_experiment("fig99")


class TestRunner:
    def test_slowdown_of_baseline_is_one(self):
        first, second = run_points(
            [make_point("gcc", "baseline", length=1_000)] * 2)
        assert first.cycles / second.cycles == 1.0

    def test_backend_injected_per_scheme(self):
        eadr, base = run_points([make_point("gcc", scheme, length=1_000)
                                 for scheme in ("eadr", "baseline")])
        assert eadr.cycles != base.cycles

    def test_sweep_figure_reuses_an_orchestrator_campaign(self, tmp_path):
        from repro.orchestrator import Campaign
        from repro.orchestrator.campaigns import (
            build_sweep,
            summarize_sweep,
            sweep_spec,
        )

        configure_disk_cache(tmp_path)
        spec = sweep_spec("fig15", apps=["rb"], length=1_500)
        campaign = Campaign(cache=disk_cache())
        campaign.extend(build_sweep(spec))
        rows = summarize_sweep(
            spec, [result.stats for result in campaign.run()])

        counters = disk_cache().counters
        counters.reset()
        result = figures.run_fig15(apps=("rb",), length=1_500)
        assert counters.misses == 0
        assert counters.hits == len(campaign.points)
        assert result.rows == [[label, mean] for label, mean in rows]


class TestResultRendering:
    def test_to_text_contains_rows(self):
        result = ExperimentResult(
            experiment_id="x", title="demo", columns=["a", "b"],
            rows=[["app", 1.25]], summary={"g": 1.0}, notes="n")
        text = result.to_text()
        assert "demo" in text and "1.250" in text and "notes: n" in text

    def test_experiment_callable(self):
        experiment = Experiment("x", "t", "claim",
                                lambda **kw: ExperimentResult(
                                    "x", "t", ["c"], [[1]]))
        assert experiment().rows == [[1]]


class TestLightFigureRuns:
    """Tiny-configuration smoke runs of each figure experiment."""

    def test_fig1(self):
        result = figures.run_fig1(**LIGHT)
        assert result.summary["gmean_slowdown"] > 2.0

    def test_fig5(self):
        result = figures.run_fig5(**LIGHT)
        assert result.rows
        for row in result.rows:
            for fraction in row[1:]:
                assert 0.0 <= fraction <= 1.0

    def test_fig8(self):
        result = figures.run_fig8(**LIGHT)
        assert 1.0 <= result.summary["ppa_gmean"] < \
            result.summary["capri_gmean"]

    def test_fig9(self):
        result = figures.run_fig9(**LIGHT)
        assert result.summary["memory_mode_gmean"] >= 1.0

    def test_fig10(self):
        result = figures.run_fig10(apps=("mcf", "lbm"), length=2_000)
        assert result.summary["psp_gmean"] > result.summary["ppa_gmean"]

    def test_fig11(self):
        result = figures.run_fig11(**LIGHT)
        assert all(row[1] >= 0.0 for row in result.rows)

    def test_fig12(self):
        result = figures.run_fig12(**LIGHT)
        assert result.summary["mean_increase_pct"] >= 0.0

    def test_fig13(self):
        result = figures.run_fig13(**LIGHT)
        assert result.summary["mean_others"] > \
            result.summary["mean_stores"]

    def test_fig14(self):
        result = figures.run_fig14(**LIGHT)
        assert result.summary["gmean"] >= 0.99

    def test_fig17(self):
        result = figures.run_fig17(apps=("gcc",), length=2_000)
        assert len(result.rows) == 5

    def test_fig18_bandwidth_monotone_trend(self):
        result = figures.run_fig18(apps=("rb", "water-ns"), length=3_000)
        slow = result.summary["gmean_1.0"]
        default = result.summary["gmean_2.3"]
        assert slow >= default

    def test_fig16_small_prf_hurts(self):
        result = figures.run_fig16(apps=("gcc",), length=3_000)
        assert result.summary["gmean_80_80"] > \
            result.summary["gmean_180_168"] - 0.01


class TestTableRuns:
    def test_tab1_rows(self):
        assert len(tables.run_tab1().rows) == 2

    def test_tab4_summary(self):
        result = tables.run_tab4()
        assert result.summary["core_area_fraction_pct"] < 0.01

    def test_tab5_rows(self):
        assert len(tables.run_tab5().rows) == 3

    def test_tab6_rows(self):
        assert len(tables.run_tab6().rows) == 4

    def test_sec713_summary(self):
        result = tables.run_sec713()
        assert result.summary["total_bytes"] == 1838.0


class TestAblationRuns:
    def test_integrity_ablation_shows_corruption(self):
        result = ablations.run_ablation_integrity(length=2_000,
                                                  failure_points=8)
        on_row, off_row = result.rows
        assert on_row[1] == 0          # masking on: never corrupt
        assert off_row[1] > 0          # masking off: corruption observed

    def test_async_ablation_direction(self):
        result = ablations.run_ablation_async(apps=("rb",), length=2_000)
        async_mean = result.rows[0][1]
        sync_mean = result.rows[1][1]
        assert sync_mean > async_mean
