"""Engine contract tests: resolution, the batch planner, scalar-vs-
batched parity (golden pins included), forced mid-flight divergence, and
the cache's engine-aware keying.

The batched kernel must be *bit-exact* against the scalar kernel: every
stat a lane produces — cycles, line writes, per-region footprints, store
values — must be indistinguishable from a scalar run of the same point.
These tests pin that promise three ways: against the frozen golden
counts, property-based over randomly perturbed cohorts, and through the
forced-divergence hook that retires lanes to the scalar kernel
mid-flight.
"""

import os
import warnings

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

from repro.config import skylake_default
from repro.engine import (
    ENGINE_ENV_VAR,
    ENGINES,
    default_engine,
    engine_env,
    resolve_engine,
)
from repro.engine.batched import KERNEL_SCHEMES, run_cohort
from repro.engine.plan import cohort_key, plan_points, plan_units
from repro.orchestrator.campaign import Campaign
from repro.orchestrator.execute import _simulate_engine, simulate_point
from repro.orchestrator.points import make_point

BASE = skylake_default()
ALL_SCHEMES = ("baseline", "ppa", "replaycache", "capri", "eadr",
               "dram-only", "psp-undolog", "psp-redolog", "sb-gate")


def _pt(profile="rb", scheme="ppa", config=None, length=1_500, **kw):
    return make_point(profile, scheme, config=config or BASE,
                      length=length, **kw)


def _prf_sweep(n, profile="rb", scheme="ppa", length=1_500):
    sizes = [(180, 168), (120, 112), (256, 238), (90, 90), (300, 280),
             (150, 140), (200, 190), (110, 100)]
    return [_pt(profile, scheme, BASE.with_prf(i, f), length=length)
            for i, f in sizes[:n]]


class TestEngineResolution:
    def test_engines_tuple(self):
        assert ENGINES == ("auto", "scalar", "batched")

    def test_explicit_engine_wins_over_env(self, monkeypatch):
        monkeypatch.setenv(ENGINE_ENV_VAR, "batched")
        assert resolve_engine("scalar") == "scalar"

    def test_none_resolves_env_default_auto(self, monkeypatch):
        monkeypatch.delenv(ENGINE_ENV_VAR, raising=False)
        assert resolve_engine(None) == "auto"
        monkeypatch.setenv(ENGINE_ENV_VAR, "batched")
        assert resolve_engine(None) == "batched"
        assert default_engine() == "batched"

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError, match="engine"):
            resolve_engine("vectorized")

    def test_engine_env_pins_and_restores(self, monkeypatch):
        monkeypatch.setenv(ENGINE_ENV_VAR, "scalar")
        with engine_env("batched"):
            assert os.environ[ENGINE_ENV_VAR] == "batched"
        assert os.environ[ENGINE_ENV_VAR] == "scalar"

    def test_engine_env_restores_unset(self, monkeypatch):
        monkeypatch.delenv(ENGINE_ENV_VAR, raising=False)
        with engine_env("batched"):
            assert os.environ[ENGINE_ENV_VAR] == "batched"
        assert ENGINE_ENV_VAR not in os.environ


class TestPlanner:
    def test_auto_batches_compatible_sweep(self):
        points = _prf_sweep(4)
        plan = plan_points(points, "auto")
        assert len(plan.cohorts) == 1
        assert plan.cohorts[0].indices == [0, 1, 2, 3]
        assert plan.batched_points == 4
        assert plan.scalar_indices == []

    def test_auto_batches_singletons(self):
        points = [_pt("rb", "ppa"), _pt("gcc", "ppa")]
        plan = plan_points(points, "auto")
        assert [c.indices for c in plan.cohorts] == [[0], [1]]
        assert plan.scalar_indices == []
        assert plan.reasons == {}
        assert plan.summary() == {**plan_points(points, "batched").summary(),
                                  "engine": "auto"}
        # The executors run width-1 cohorts as singletons, with no reason:
        # per-point execution puts them on the kernel itself.
        units = plan_units(points, "auto")
        assert units.cohorts == [] and units.reasons == {}
        assert units.units() == [[0], [1]]

    def test_batched_engine_batches_singletons(self):
        plan = plan_points([_pt("rb", "ppa")], "batched")
        assert len(plan.cohorts) == 1
        assert plan.scalar_indices == []

    def test_scalar_engine_plans_nothing(self):
        plan = plan_points(_prf_sweep(4), "scalar")
        assert plan.cohorts == []
        assert plan.batched_points == 0

    def test_unbatchable_schemes_stay_scalar_with_reason(self):
        points = [_pt("rb", "psp-undolog"), _pt("rb", "ppa"),
                  _pt("rb", "ppa", BASE.with_prf(120, 112))]
        plan = plan_points(points, "auto")
        assert plan.scalar_indices == [0]
        assert "psp-undolog" in plan.reasons[0]
        assert len(plan.cohorts) == 1

    def test_persist_log_capture_is_unbatchable(self):
        point = _pt("rb", "ppa", capture_persist_log=True)
        plan = plan_points([point], "batched")
        assert plan.scalar_indices == [0]
        assert "persist-log" in plan.reasons[0]

    def test_cohort_key_splits_profiles_and_lengths(self):
        a, b = _pt("rb", "ppa"), _pt("gcc", "ppa")
        assert cohort_key(a) != cohort_key(b)
        assert cohort_key(a) != cohort_key(_pt("rb", "ppa", length=2_000))
        assert cohort_key(a) == cohort_key(
            _pt("rb", "ppa", BASE.with_prf(120, 112)))

    def test_run_cohort_rejects_mixed_cohorts(self):
        with pytest.raises(ValueError, match="incompatible"):
            run_cohort([_pt("rb", "ppa"), _pt("gcc", "ppa")])
        with pytest.raises(ValueError, match="unbatchable"):
            run_cohort([_pt("rb", "psp-undolog")])


@pytest.mark.usefixtures("untraced_unsanitized")
class TestGoldenParity:
    """Golden pins must hold bit-exactly under ``engine="batched"`` for
    every scheme — kernel schemes through the lockstep kernel, the rest
    through the documented scalar fallback."""

    @pytest.mark.parametrize("scheme", ALL_SCHEMES)
    def test_gcc_3000_pins_under_batched(self, scheme):
        point = make_point("gcc", scheme, length=3_000)
        scalar = simulate_point(point, engine="scalar")[0]
        stats, _, engine_used = _simulate_engine(point, "batched")
        expected = "batched" if scheme in KERNEL_SCHEMES else "scalar"
        assert engine_used == expected
        assert stats.to_dict() == scalar.to_dict()

    def test_track_values_parity(self):
        point = _pt("rb", "ppa", track_values=True)
        scalar = simulate_point(point, engine="scalar")[0]
        batched, _, engine_used = _simulate_engine(point, "batched")
        assert engine_used == "batched"
        assert [s.value for s in batched.stores] == \
               [s.value for s in scalar.stores]


class TestDivergence:
    def test_forced_divergence_matches_scalar(self):
        points = _prf_sweep(3)
        want = [simulate_point(p, engine="scalar")[0].to_dict()
                for p in points]
        lanes = run_cohort(points, diverge_at={1: 400})
        assert lanes[1].diverged_at == 400
        assert lanes[1].engine == "scalar"
        assert lanes[0].engine == lanes[2].engine == "batched"
        for lane, expected in zip(lanes, want):
            assert lane.error is None
            assert lane.stats.to_dict() == expected

    @settings(max_examples=8, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.data())
    def test_perturbed_cohorts_bit_exact(self, data):
        n = data.draw(st.integers(2, 6), label="lanes")
        scheme = data.draw(st.sampled_from(sorted(KERNEL_SCHEMES)),
                           label="scheme")
        points = []
        for lane in range(n):
            prf_int = data.draw(st.integers(70, 300), label=f"prf{lane}")
            prf_fp = data.draw(st.integers(70, prf_int), label=f"fp{lane}")
            wpq = data.draw(st.sampled_from([4, 16, 64]), label=f"w{lane}")
            points.append(_pt("rb", scheme,
                              BASE.with_prf(prf_int, prf_fp).with_wpq(wpq),
                              length=1_200))
        diverge_at = {
            lane: data.draw(st.integers(1, 1_199), label=f"d{lane}")
            for lane in range(n)
            if data.draw(st.booleans(), label=f"div{lane}")}
        lanes = run_cohort(points, diverge_at=diverge_at)
        for i, (lane, point) in enumerate(zip(lanes, points)):
            assert lane.error is None
            want = simulate_point(point, engine="scalar")[0]
            assert lane.stats.to_dict() == want.to_dict(), f"lane {i}"
            if i in diverge_at:
                assert lane.engine == "scalar"
                assert lane.diverged_at == diverge_at[i]


@pytest.mark.usefixtures("untraced_unsanitized")
class TestCampaignEngine:
    def _run_campaign(self, engine, points):
        campaign = Campaign(cache=None, jobs=1, sanitize=False,
                            engine=engine)
        campaign.extend(points)
        return campaign, campaign.run()

    def test_auto_campaign_matches_scalar_bit_exact(self):
        points = _prf_sweep(4) + [_pt("rb", "psp-undolog")]
        _, scalar = self._run_campaign("scalar", points)
        campaign, auto = self._run_campaign("auto", points)
        assert campaign.telemetry.engine == "auto"
        assert campaign.telemetry.cohorts == 1
        assert campaign.telemetry.batched_points == 4
        for s, a in zip(scalar, auto):
            assert a.stats.to_dict() == s.stats.to_dict()
        engines = [r.engine for r in auto]
        assert engines[:4] == ["batched"] * 4
        assert engines[4] == "scalar"

    def test_batched_campaign_demotes_width1_cohorts(self):
        # A lone batchable point forms a width-1 cohort; the campaign
        # runs it per-point (keeping the run_point_payload seam) but the
        # pinned engine still pushes it through the kernel.
        campaign, results = self._run_campaign("batched", [_pt("rb", "ppa")])
        assert campaign.telemetry.cohorts == 0
        assert results[0].engine == "batched"
        assert results[0].stats is not None


class TestCacheEngineKeying:
    def test_engine_digest_is_disjoint(self):
        from repro.orchestrator.cache import point_digest

        point = _pt("rb", "ppa")
        neutral = point_digest(point)
        assert point_digest(point, engine="batched") != neutral
        assert point_digest(point, engine="scalar") != neutral
        assert point_digest(point, engine="scalar") != \
               point_digest(point, engine="batched")

    def test_stale_v4_payload_rejected(self):
        from repro.orchestrator.serialize import stats_from_payload

        with pytest.raises(ValueError, match="schema 4"):
            stats_from_payload({"schema": 4, "stats": {}})

    def test_scalar_cached_point_not_served_to_batched_audit(self, tmp_path):
        # A drift audit that insists on engine="batched" must never be
        # handed a scalar-produced cache entry: the engine-keyed digest
        # gives the audit its own key space.
        from repro.orchestrator.cache import ResultCache, point_digest
        from repro.orchestrator.serialize import payload_from_run

        cache = ResultCache(tmp_path)
        point = _pt("rb", "ppa")
        stats, _ = simulate_point(point, engine="scalar")
        cache.put(point_digest(point),
                  payload_from_run(stats, None, 0.1, engine="scalar"))
        assert cache.get(point_digest(point)) is not None
        assert cache.get(point_digest(point, engine="batched")) is None

    def test_payload_records_engine(self):
        from repro.orchestrator.serialize import (
            CACHE_SCHEMA_VERSION,
            payload_from_run,
        )

        stats, _ = simulate_point(_pt("rb", "ppa"), engine="scalar")
        payload = payload_from_run(stats, None, 0.1, engine="batched")
        assert payload["schema"] == CACHE_SCHEMA_VERSION == 6
        assert payload["engine"] == "batched"


class TestFacadeEngine:
    def test_facade_batched_matches_scalar(self):
        from repro import simulate

        scalar = simulate("gcc", scheme="baseline", length=2_000,
                          engine="scalar").stats
        batched = simulate("gcc", scheme="baseline", length=2_000,
                           engine="batched").stats
        assert batched.to_dict() == scalar.to_dict()

    @pytest.mark.usefixtures("untraced_unsanitized")
    @pytest.mark.parametrize("scheme,core", [
        ("ppa", "ooo"), ("baseline", "ooo"), ("eadr", "ooo"),
        ("dram-only", "ooo"), ("capri", "ooo"), ("ppa", "inorder"),
        ("baseline", "inorder")])
    def test_default_single_point_runs_on_the_kernel(self, scheme, core,
                                                      monkeypatch):
        from repro import simulate
        from repro.engine import batched
        from repro.orchestrator.serialize import stats_to_dict

        monkeypatch.delenv(ENGINE_ENV_VAR, raising=False)
        widths = []
        run = batched.run_cohort

        def recording(points, **kwargs):
            widths.append(len(points))
            return run(points, **kwargs)

        monkeypatch.setattr(batched, "run_cohort", recording)
        result = simulate("mcf", scheme=scheme, core=core, length=1_500)
        assert widths == [1]
        scalar = simulate("mcf", scheme=scheme, core=core, length=1_500,
                          engine="scalar")
        assert widths == [1]
        assert stats_to_dict(result.stats) == stats_to_dict(scalar.stats)
        assert result.telemetry is None
        assert (result.crash_api is None) == (scheme != "ppa")

    @pytest.mark.usefixtures("untraced_unsanitized")
    @pytest.mark.parametrize("core", ["ooo", "inorder"])
    def test_lazy_crash_api_matches_scalar_life_cycle(self, core,
                                                      monkeypatch):
        from repro import simulate
        from repro.orchestrator.serialize import stats_to_dict

        monkeypatch.delenv(ENGINE_ENV_VAR, raising=False)
        result = simulate("rb", scheme="ppa", core=core, length=1_500)
        scalar = simulate("rb", scheme="ppa", core=core, length=1_500,
                          engine="scalar")
        api = result.crash_api
        assert api is result.crash_api            # built once, then kept
        assert type(api) is type(scalar.crash_api)
        assert stats_to_dict(api.stats) == stats_to_dict(result.stats)
        half = result.stats.cycles / 2
        crash = api.crash_at(half)
        reference = scalar.crash_api.crash_at(half)
        assert crash.last_committed_seq >= 0
        assert crash == reference
        assert api.recover(crash) == scalar.crash_api.recover(reference)

    @pytest.mark.usefixtures("untraced_unsanitized")
    def test_auto_singleton_point_reports_the_kernel(self):
        # The honest producer of a width-1 unit under ``auto``.
        point = _pt("rb", "baseline")
        assert _simulate_engine(point, "auto")[2] == "batched"
        assert _simulate_engine(point, "scalar")[2] == "scalar"

    def test_facade_rejects_unknown_engine(self):
        from repro import simulate

        with pytest.raises(ValueError, match="engine"):
            simulate("gcc", scheme="baseline", length=500,
                     engine="simd")


class TestDeprecatedEntryPoints:
    """The per-core ``run`` methods and the experiments runner were once
    deprecated delegates; they are plain entry points now and warn
    nothing."""

    @staticmethod
    def _trace(length=300):
        from repro.workloads import generate_trace, profile_by_name

        return generate_trace(profile_by_name("rb"), length=length, seed=0)

    def test_core_run_is_warning_free(self):
        from repro.persistence import make_policy
        from repro.pipeline.core import OoOCore

        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            stats = OoOCore(BASE, make_policy("ppa")).run(self._trace())
        assert stats.instructions == 300

    def test_processor_run_is_warning_free(self):
        from repro.core.processor import PersistentProcessor

        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            stats = PersistentProcessor(BASE).run(self._trace())
        assert stats.instructions == 300

    def test_run_points_is_warning_free(self):
        from repro.experiments.runner import run_points

        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            stats, = run_points([make_point("rb", "ppa", length=300)])
        assert stats.instructions == 300

    def test_facade_emits_no_deprecation_noise(self, recwarn):
        from repro import simulate

        simulate("rb", scheme="ppa", length=300, engine="auto")
        assert not [w for w in recwarn.list
                    if issubclass(w.category, DeprecationWarning)]


class TestBatchedBenchSuite:
    def test_batched_suite_registered(self):
        from repro.bench.suite import SUITES, suite_benchmarks

        assert "batched" in SUITES
        names = [b.name for b in suite_benchmarks("batched")]
        assert "campaign:fig16:rb" in names
        assert "campaign:fig16:rb:batched" in names


@pytest.mark.usefixtures("untraced_unsanitized")
class TestLaneErrorTransport:
    """Lane failures must cross the process pool as picklable records,
    whatever exotic exception the kernel (or its scalar fallback)
    raised."""

    class _Unpicklable(RuntimeError):
        def __init__(self, message):
            super().__init__(message)
            self.hostage = lambda: None      # lambdas cannot pickle

    def test_unpicklable_exception_reduces_to_record(self, monkeypatch):
        import pickle

        from repro.engine import batched

        def boom(point):
            raise self._Unpicklable("lane exploded")

        monkeypatch.setattr(batched, "_scalar_rerun", boom)
        lane = run_cohort(_prf_sweep(2), diverge_at={0: 100})[0]
        assert lane.error is not None
        assert lane.stats is None
        assert lane.error.type_name == "_Unpicklable"
        assert "lane exploded" in lane.error.message
        assert "lane exploded" in lane.error.traceback
        assert str(lane.error) == "_Unpicklable: lane exploded"
        # The whole LaneResult — not just the error — must survive the
        # pool's pickle round trip.
        clone = pickle.loads(pickle.dumps(lane))
        assert clone.error == lane.error
        with pytest.raises(Exception):
            pickle.dumps(self._Unpicklable("direct"))

    def test_simulate_engine_raises_cohort_lane_error(self, monkeypatch):
        from repro.engine import batched
        from repro.engine.batched import LaneError, LaneResult
        from repro.orchestrator.execute import CohortLaneError

        def fake_cohort(points, **kwargs):
            return [LaneResult(None, engine="scalar", error=LaneError(
                "WeirdError", "no transport"))]

        monkeypatch.setattr(batched, "run_cohort", fake_cohort)
        with pytest.raises(CohortLaneError,
                           match="WeirdError: no transport"):
            _simulate_engine(_pt("rb", "ppa"), "batched")


class TestInOrderBatching:
    """The in-order lane kernel: both INORDER_KERNEL_SCHEMES batch, the
    planner separates cores, and the facade routes stats-only in-order
    baseline runs through the kernel."""

    @pytest.mark.parametrize("scheme", ["ppa", "baseline"])
    def test_inorder_cohort_matches_scalar(self, scheme):
        points = [_pt("rb", scheme, BASE.with_wpq(w), length=800,
                      warmup=0, core="inorder") for w in (8, 16, 24)]
        lanes = run_cohort(points)
        for lane, point in zip(lanes, points):
            assert lane.error is None
            assert lane.engine == "batched"
            want = simulate_point(point, engine="scalar")[0]
            assert lane.stats.to_dict() == want.to_dict()

    def test_inorder_unbatchable_scheme_reason(self):
        from repro.engine.plan import unbatchable_reason

        point = _pt("rb", "eadr", length=800, warmup=0, core="inorder")
        reason = unbatchable_reason(point)
        assert reason is not None and "in-order" in reason
        plan = plan_points([point], "batched")
        assert plan.reasons[0] == reason
        assert plan.summary()["scalar_reasons"] == {reason: 1}

    def test_cohort_key_separates_cores(self):
        ooo = _pt("rb", "ppa", length=800)
        inorder = _pt("rb", "ppa", length=800, warmup=0, core="inorder")
        assert cohort_key(ooo) != cohort_key(inorder)

    def test_facade_inorder_baseline_batched_parity(self):
        from repro import simulate

        scalar = simulate("rb", scheme="baseline", core="inorder",
                          length=800, engine="scalar").stats
        batched = simulate("rb", scheme="baseline", core="inorder",
                           length=800, engine="batched").stats
        assert batched.to_dict() == scalar.to_dict()

    def test_facade_capri_batched_parity(self):
        from repro import simulate

        scalar = simulate("gcc", scheme="capri", length=2_000,
                          engine="scalar").stats
        batched = simulate("gcc", scheme="capri", length=2_000,
                           engine="batched").stats
        assert batched.to_dict() == scalar.to_dict()
        assert batched.extra["capri_path_writes"] == \
            scalar.extra["capri_path_writes"]


@pytest.mark.usefixtures("untraced_unsanitized")
class TestCampaignScalarReasons:
    """Campaign telemetry carries the planner's per-reason histogram of
    why points stayed on the scalar kernel."""

    def _campaign(self, engine, points, **kwargs):
        campaign = Campaign(cache=None, jobs=1, sanitize=False,
                            engine=engine, **kwargs)
        campaign.extend(points)
        campaign.run()
        return campaign.telemetry

    def test_scalar_engine_reason(self):
        telemetry = self._campaign("scalar", [_pt("rb", "ppa",
                                                  length=600)])
        assert telemetry.to_dict()["scalar_reasons"] == \
            {"engine=scalar": 1}

    def test_auto_reasons_histogram(self):
        points = _prf_sweep(3, length=600) + \
            [_pt("rb", "psp-undolog", length=600),
             _pt("gcc", "ppa", length=600)]
        telemetry = self._campaign("auto", points)
        reasons = telemetry.to_dict()["scalar_reasons"]
        assert reasons == {"scheme 'psp-undolog' has no batched kernel": 1}
        # The lone gcc point runs as a singleton on the one-lane kernel.
        assert telemetry.batched_points == 4
        assert telemetry.cohorts == 1

    def test_traced_campaign_reason(self, tmp_path):
        campaign = Campaign(cache=None, jobs=1, sanitize=False,
                            engine="auto", trace_dir=str(tmp_path))
        campaign.extend(_prf_sweep(2, length=400))
        campaign.run()
        assert campaign.telemetry.scalar_reasons == \
            {"tracing needs scalar instrumentation": 2}
