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

import json
import math
import time
import warnings
from dataclasses import replace

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, Phase, given, settings

from repro.config import skylake_default
from repro.engine import (
    ENGINE_ENV_VAR,
    ENGINES,
    default_engine,
    resolve_engine,
)
from repro.engine.batched import KERNEL_SCHEMES, run_cohort
from repro.engine.plan import cohort_key, plan_points
from repro.orchestrator.campaign import Campaign
from repro.orchestrator.execute import _simulate_engine, simulate_point
from repro.orchestrator.points import (
    INORDER_SCHEMES,
    bandwidth_share,
    make_point,
)
from repro.orchestrator.serialize import stats_to_dict
from repro.workloads.interning import interned_trace

BASE = skylake_default()
ALL_SCHEMES = ("baseline", "ppa", "replaycache", "capri", "eadr",
               "dram-only", "psp-undolog", "psp-redolog", "sb-gate")


# The divergence properties simulate every example on both engines, so
# shrinking a failure would take minutes: they report it unshrunk.
_NO_SHRINK = tuple(phase for phase in Phase if phase is not Phase.shrink)


def _pt(profile="rb", scheme="ppa", config=None, length=1_500, **kw):
    return make_point(profile, scheme, config=config or BASE,
                      length=length, **kw)


def _prf_sweep(n, profile="rb", scheme="ppa", length=1_500):
    sizes = [(180, 168), (120, 112), (256, 238), (90, 90), (300, 280),
             (150, 140), (200, 190), (110, 100)]
    return [_pt(profile, scheme, BASE.with_prf(i, f), length=length)
            for i, f in sizes[:n]]


def _with_width(config, width):
    return replace(config, core=replace(config.core, width=width))


def _store_seqs(point):
    """The seq of every store in ``point``'s trace, in program order."""
    from repro.isa.decoded import OP_STORE

    dec = interned_trace(point.profile, point.length,
                         seed=point.seed).decoded()
    return [seq for seq, op in enumerate(dec.opcode_ids) if op == OP_STORE]


def _fail_persist_store(monkeypatch, module, target):
    """Make the ``target``-th ``persist_store`` call (1-based) of the
    kernel in ``module`` raise. Lanes walk one after another and a ppa
    lane persists each store once, so the call number picks the lane and
    the store; the scalar re-run has its own write buffer and never sees
    the injected binding."""
    real_buffer = module.write_buffer
    calls = [0]

    def write_buffer(*args):
        closures = list(real_buffer(*args))
        persist_store = closures[1]

        def flaky(*call):
            calls[0] += 1
            if calls[0] == target:
                raise RuntimeError("injected into a persist_store call")
            return persist_store(*call)

        closures[1] = flaky
        return closures

    monkeypatch.setattr(module, "write_buffer", write_buffer)


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


@pytest.mark.usefixtures("untraced_unsanitized")
class TestPlanner:
    def test_auto_batches_compatible_sweep(self):
        points = _prf_sweep(4)
        plan = plan_points(points, "auto")
        assert len(plan.cohorts) == 1
        assert plan.cohorts[0].indices == [0, 1, 2, 3]
        assert plan.batched_points == 4
        assert plan.reasons == {}

    def test_auto_batches_singletons(self):
        points = [_pt("rb", "ppa"), _pt("gcc", "ppa")]
        plan = plan_points(points, "auto")
        assert [c.indices for c in plan.cohorts] == [[0], [1]]
        assert plan.reasons == {}
        assert plan.summary() == {**plan_points(points, "batched").summary(),
                                  "engine": "auto"}
        # Both front ends run these as one-lane kernel units.
        assert [(u.indices, u.kernel) for u in plan.units] == \
            [([0], True), ([1], True)]

    def test_batched_engine_batches_singletons(self):
        plan = plan_points([_pt("rb", "ppa")], "batched")
        assert len(plan.cohorts) == 1
        assert plan.reasons == {}

    def test_scalar_engine_plans_nothing(self):
        plan = plan_points(_prf_sweep(4), "scalar")
        assert plan.cohorts == []
        assert plan.batched_points == 0

    def test_unbatchable_schemes_stay_scalar_with_reason(self):
        points = [_pt("rb", "psp-undolog"), _pt("rb", "ppa"),
                  _pt("rb", "ppa", BASE.with_prf(120, 112))]
        plan = plan_points(points, "auto")
        assert list(plan.reasons) == [0]
        assert "psp-undolog" in plan.reasons[0]
        assert len(plan.cohorts) == 1

    def test_persist_log_capture_is_unbatchable(self):
        point = _pt("rb", "ppa", capture_persist_log=True)
        plan = plan_points([point], "batched")
        assert list(plan.reasons) == [0]
        assert "persist-log" in plan.reasons[0]

    def test_cohort_key_splits_profiles_and_lengths(self):
        a, b = _pt("rb", "ppa"), _pt("gcc", "ppa")
        assert cohort_key(a) != cohort_key(b)
        assert cohort_key(a) != cohort_key(_pt("rb", "ppa", length=2_000))
        assert cohort_key(a) == cohort_key(
            _pt("rb", "ppa", BASE.with_prf(120, 112)))

    def test_track_values_lanes_share_one_cohort(self):
        # The store-value stream is lane-invariant: each lane reads it or
        # zeros, so points differing only in track_values share a prologue.
        points = [_pt("rb", "ppa", config, track_values=tv)
                  for config, tv in ((BASE, True),
                                     (BASE.with_prf(120, 112), False),
                                     (BASE.with_prf(90, 90), True),
                                     (BASE, False))]
        assert len({cohort_key(p) for p in points}) == 1
        plan = plan_points(points, "auto")
        assert [c.indices for c in plan.cohorts] == [[0, 1, 2, 3]]
        assert plan.reasons == {}
        lanes = run_cohort(points)
        for lane, point in zip(lanes, points):
            assert lane.engine == "batched" and lane.error is None
            want = simulate_point(point, engine="scalar")[0]
            assert lane.stats.to_dict() == want.to_dict()
        values = [[s.value for s in lane.stats.stores] for lane in lanes]
        assert values[0] == values[2] and any(values[0])
        assert not any(values[1]) and not any(values[3])

    def test_run_cohort_rejects_mixed_cohorts(self):
        with pytest.raises(ValueError, match="incompatible"):
            run_cohort([_pt("rb", "ppa"), _pt("gcc", "ppa")])
        with pytest.raises(ValueError, match="unbatchable"):
            run_cohort([_pt("rb", "psp-undolog")])


class TestClosedFormCeil:
    """Both kernels round a time up to its cycle as ``-(-t // 1.0)``;
    ``BandwidthLimiter.take`` computes ``float(int(t))`` plus one for a
    fractional part. The two agree, sign of zero included."""

    @staticmethod
    def _check(t):
        assert repr(-(-t // 1.0)) == repr(float(int(t)) + (t > int(t)))

    @given(st.floats(0.0, 2.0 ** 52))
    def test_ceil_identity(self, t):
        self._check(t)

    @given(st.integers(0, 2 ** 52))
    def test_ceil_identity_whole(self, n):
        self._check(float(n))
        self._check(math.nextafter(float(n), math.inf))

    @pytest.mark.parametrize("t", [
        0.0, 5e-324, 0.5, math.nextafter(1.0, 0.0), 1.0,
        math.nextafter(1.0, 2.0), 4503599627370495.5, 2.0 ** 52,
        2.0 ** 53, 1e300])
    def test_ceil_identity_edges(self, t):
        self._check(t)


@pytest.mark.usefixtures("untraced_unsanitized")
class TestGoldenParity:
    """Golden pins must hold bit-exactly under ``engine="batched"`` for
    every scheme — kernel schemes through the lane-major kernels, the
    rest through the documented scalar fallback."""

    @pytest.mark.parametrize("scheme", ALL_SCHEMES)
    def test_gcc_3000_pins_under_batched(self, scheme):
        point = make_point("gcc", scheme, length=3_000)
        scalar = simulate_point(point, engine="scalar")[0]
        stats, _, engine_used, _ = _simulate_engine(point, "batched")
        expected = "batched" if scheme in KERNEL_SCHEMES else "scalar"
        assert engine_used == expected
        assert stats.to_dict() == scalar.to_dict()

    @pytest.mark.parametrize("scheme,core,prf", [
        *((scheme, "ooo", None) for scheme in sorted(KERNEL_SCHEMES)),
        ("ppa", "inorder", None),
        # Undersized: masked registers are reclaimed at region drains.
        ("ppa", "ooo", (48, 48)),
    ], ids=[*sorted(KERNEL_SCHEMES), "ppa-inorder", "ppa-prf48"])
    def test_track_values_parity(self, scheme, core, prf):
        config = BASE.with_prf(*prf) if prf else BASE
        point = _pt("rb", scheme, config, track_values=True, core=core,
                    **({"warmup": 0} if core == "inorder" else {}))
        scalar = simulate_point(point, engine="scalar")[0]
        batched, _, engine_used, _ = _simulate_engine(point, "batched")
        assert engine_used == "batched"
        records = "entries" if core == "inorder" else "stores"
        values = [s.value for s in getattr(batched, records)]
        assert values == [s.value for s in getattr(scalar, records)]
        assert any(values)
        assert batched.to_dict() == scalar.to_dict()
        if prf:
            assert any(r.cause == "prf" for r in batched.regions)


    @pytest.mark.parametrize("core", ["ooo", "inorder"])
    def test_thread_point_parity(self, core):
        # Thread 5 of 32: its own trace and heap, and a bandwidth share
        # below one in its NVM model.
        point = _pt("rb", "ppa", thread=(5, 32), core=core,
                    **({"warmup": 0} if core == "inorder" else {}))
        assert bandwidth_share(point) < 1.0
        scalar = simulate_point(point, engine="scalar")[0]
        batched, _, engine_used, _ = _simulate_engine(point, "batched")
        assert engine_used == "batched"
        assert batched.name == "rb/t5"
        assert batched.to_dict() == scalar.to_dict()

    def test_one_threads_widths_form_one_cohort(self):
        points = [_pt("rb", "ppa", thread=(5, count), warmup=0)
                  for count in (8, 16, 32, 64)]
        plan = plan_points(points, "batched")
        assert [c.indices for c in plan.cohorts] == [[0, 1, 2, 3]]
        lanes = run_cohort(points)
        for lane, point in zip(lanes, points):
            assert lane.engine == "batched"
            want = simulate_point(point, engine="scalar")[0]
            assert lane.stats.to_dict() == want.to_dict()
        # The share reaches the NVM model: a cold run slows as it shrinks.
        cycles = [lane.stats.cycles for lane in lanes]
        assert cycles == sorted(set(cycles))


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

    @settings(max_examples=8, deadline=None, phases=_NO_SHRINK,
              suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.data())
    def test_perturbed_cohorts_bit_exact(self, data):
        n = data.draw(st.integers(2, 6), label="lanes")
        scheme = data.draw(st.sampled_from(sorted(KERNEL_SCHEMES)),
                           label="scheme")
        # Optionally every lane is thread ``tid`` of a run whose width
        # (hence NVM bandwidth share) varies per lane.
        tid = data.draw(st.sampled_from([None, 0, 5]), label="tid")
        points = []
        for lane in range(n):
            prf_int = data.draw(st.integers(70, 300), label=f"prf{lane}")
            prf_fp = data.draw(st.integers(70, prf_int), label=f"fp{lane}")
            wpq = data.draw(st.sampled_from([4, 16, 64]), label=f"w{lane}")
            # Narrow widths fill rename and commit cycles, so the takes
            # often move on to the next cycle.
            width = data.draw(st.integers(1, 8), label=f"width{lane}")
            tv = data.draw(st.booleans(), label=f"tv{lane}")
            thread = None if tid is None else (tid, data.draw(
                st.sampled_from([8, 16, 64]), label=f"threads{lane}"))
            config = BASE.with_prf(prf_int, prf_fp).with_wpq(wpq)
            points.append(_pt("rb", scheme, _with_width(config, width),
                              length=1_200, track_values=tv,
                              thread=thread))
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

    @settings(max_examples=8, deadline=None, phases=_NO_SHRINK,
              suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.data())
    def test_perturbed_undersized_cohorts_bit_exact(self, data):
        # Only PRFs this small make rename's allocation drain pop, or
        # release registers at or before the previous rename cycle; these
        # are apps where they do. Histogram key order is part of the
        # result, so the stats compare as JSON.
        length = 4_000
        n = data.draw(st.integers(2, 4), label="lanes")
        app = data.draw(st.sampled_from(["lbm", "lulesh", "water-ns",
                                         "xsbench"]), label="app")
        scheme = data.draw(st.sampled_from(["ppa", "baseline", "capri"]),
                           label="scheme")
        points = []
        for lane in range(n):
            prf_int = data.draw(st.integers(36, 64), label=f"prf{lane}")
            prf_fp = data.draw(st.integers(36, prf_int), label=f"fp{lane}")
            width = data.draw(st.integers(1, 8), label=f"width{lane}")
            config = _with_width(BASE.with_prf(prf_int, prf_fp), width)
            points.append(_pt(app, scheme, config, length=length))
        lanes = run_cohort(points)
        for i, (lane, point) in enumerate(zip(lanes, points)):
            try:
                want = simulate_point(point, engine="scalar")[0]
            except Exception as err:
                assert lane.stats is None, f"lane {i}"
                assert lane.error.type_name == type(err).__name__
                assert lane.error.message == str(err)
                continue
            assert lane.error is None, f"lane {i}: {lane.error}"
            assert json.dumps(stats_to_dict(lane.stats)) == \
                json.dumps(stats_to_dict(want)), f"lane {i}"

    @pytest.mark.parametrize("app", ["lbm", "water-ns"])
    def test_undersized_prf_allocation_drain_bit_exact(self, app):
        # Fixed cohorts whose renames pop registers in the allocation
        # drain, which the property above draws only now and then.
        points = [_pt(app, "ppa", BASE.with_prf(i, f), length=4_000)
                  for i, f in ((36, 36), (40, 39), (56, 39), (64, 49))]
        for lane, point in zip(run_cohort(points), points):
            want = simulate_point(point, engine="scalar")[0]
            assert lane.engine == "batched"
            assert json.dumps(stats_to_dict(lane.stats)) == \
                json.dumps(stats_to_dict(want))

    @pytest.mark.parametrize("core", ["ooo", "inorder"])
    def test_non_finite_time_diverges_like_scalar(self, core):
        # A take of an infinite time raises in the scalar model; the
        # kernel's closed form must raise too, not carry a NaN cycle on.
        # A point refuses such a latency, so the config is set behind
        # its back.
        config = replace(BASE, core=replace(BASE.core,
                                            lat_int_alu=float("inf")))
        kw = {"warmup": 0, "core": "inorder"} if core == "inorder" else {}
        with pytest.raises(ValueError, match="core.lat_int_alu"):
            _pt("rb", "ppa", config, length=500, **kw)
        point = _pt("rb", "ppa", BASE, length=500, **kw)
        object.__setattr__(point, "config", config)
        lane, = run_cohort([point])
        assert lane.engine == "scalar" and lane.stats is None
        with pytest.raises(OverflowError) as err:
            simulate_point(point, engine="scalar")
        assert lane.error.message == str(err.value)

    def test_stop_index_outside_the_trace_never_fires(self):
        points = _prf_sweep(4, length=1_200)
        lanes = run_cohort(points, diverge_at={0: -1, 1: 1_200, 2: 5_000,
                                               3: 0})
        assert [lane.engine for lane in lanes] == ["batched"] * 3 + ["scalar"]
        assert [lane.diverged_at for lane in lanes] == [None] * 3 + [0]
        for lane, point in zip(lanes, points):
            want = simulate_point(point, engine="scalar")[0]
            assert lane.stats.to_dict() == want.to_dict()

    @staticmethod
    def _fail_second_lanes_fifth_store(monkeypatch, points):
        """Make the batched kernel raise at the second lane's fifth store;
        returns the first lane's store seqs."""
        from repro.engine import batched

        stores = _store_seqs(points[0])
        _fail_persist_store(monkeypatch, batched, len(stores) + 5)
        return stores

    def test_raise_mid_walk_diverges_only_that_lane(self, monkeypatch):
        points = _prf_sweep(3, length=1_200)
        want = [simulate_point(p, engine="scalar")[0].to_dict()
                for p in points]
        stores = self._fail_second_lanes_fifth_store(monkeypatch, points)
        lanes = run_cohort(points)
        assert lanes[1].engine == "scalar"
        assert lanes[1].diverged_at == stores[4]
        assert lanes[0].engine == lanes[2].engine == "batched"
        assert lanes[0].diverged_at is lanes[2].diverged_at is None
        for lane, expected in zip(lanes, want):
            assert lane.error is None
            assert lane.stats.to_dict() == expected

    @pytest.mark.usefixtures("untraced_unsanitized")
    def test_campaign_counts_the_divergence_as_the_service_does(
            self, monkeypatch, tmp_path):
        """A simulated point whose lane diverged counts once in
        ``lane_divergences``; the same point served warm counts none."""
        from repro.orchestrator.cache import ResultCache

        points = _prf_sweep(3, length=1_200)
        self._fail_second_lanes_fifth_store(monkeypatch, points)
        cold = Campaign(cache=ResultCache(tmp_path), engine="batched")
        cold.extend(points)
        results = cold.run()
        assert [r.engine for r in results] == ["batched", "scalar",
                                               "batched"]
        telemetry = cold.telemetry
        assert telemetry.lane_divergences == 1
        assert telemetry.to_dict()["lane_divergences"] == 1
        assert " 3 simulated (2 batched in 1 cohorts, 1 diverged)" \
            in telemetry.summary_line()

        warm = Campaign(cache=ResultCache(tmp_path), engine="batched")
        warm.extend(points)
        assert all(r.cache_hit for r in warm.run())
        assert warm.telemetry.lane_divergences == 0
        assert " 0 simulated (0 batched in 0 cohorts, 0 diverged)" \
            in warm.telemetry.summary_line()


@pytest.mark.usefixtures("untraced_unsanitized")
class TestLaneWallClock:
    """Each lane reports its own cost: its walk, its scalar re-run and
    an even share of the cohort prologue."""

    def test_lane_wall_clocks_fit_the_call(self):
        points = _prf_sweep(4)
        start = time.perf_counter()
        lanes = run_cohort(points, diverge_at={2: 300})
        elapsed = time.perf_counter() - start
        assert lanes[2].engine == "scalar"
        assert all(lane.wall_clock > 0 for lane in lanes)
        assert sum(lane.wall_clock for lane in lanes) <= elapsed

    @pytest.mark.parametrize("core", ["ooo", "inorder"])
    def test_cohort_payloads_carry_lane_wall_clocks(self, core):
        from repro.orchestrator.execute import run_cohort_payloads

        points = [_pt("rb", "ppa", BASE.with_wpq(w), length=800,
                      warmup=0, core=core) for w in (8, 16, 24)]
        start = time.perf_counter()
        payloads = run_cohort_payloads(points)
        elapsed = time.perf_counter() - start
        clocks = [payload["wall_clock"] for payload in payloads]
        assert all(clock > 0 for clock in clocks)
        assert sum(clocks) <= elapsed


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
        # A lone batchable point is a one-lane kernel unit: it runs on the
        # kernel, but telemetry counts cohorts of two or more lanes only.
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
        assert payload["schema"] == CACHE_SCHEMA_VERSION == 9
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


class TestFacadePointParity:
    """``repro.simulate`` on a profile is the value-tracking point of the
    same arguments: equal stats for every catalog scheme out-of-order
    and both in-order schemes, warm and cold, on either engine."""

    @pytest.mark.parametrize("engine", ["scalar", "auto"])
    @pytest.mark.parametrize("warmup", [0, 1])
    @pytest.mark.parametrize("scheme,core", [
        *((scheme, "ooo") for scheme in ALL_SCHEMES),
        ("ppa", "inorder"), ("baseline", "inorder")])
    def test_facade_equals_point(self, scheme, core, warmup, engine):
        from repro import simulate

        result = simulate("rb", scheme=scheme, core=core, length=400,
                          warmup=warmup, seed=3, engine=engine)
        point = make_point("rb", scheme, length=400, warmup=warmup,
                           seed=3, track_values=True, core=core)
        want = simulate_point(point, engine="scalar")[0]
        assert stats_to_dict(result.stats) == stats_to_dict(want)


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
    """The in-order lane kernel: both INORDER_SCHEMES batch, the
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

    @pytest.mark.usefixtures("untraced_unsanitized")
    def test_every_inorder_scheme_has_the_kernel(self):
        # The planner checks no in-order scheme: each must plan onto the
        # kernel.
        points = [_pt("rb", scheme, length=800, warmup=0, core="inorder")
                  for scheme in INORDER_SCHEMES]
        plan = plan_points(points, "auto")
        assert plan.reasons == {}
        assert [(u.indices, u.kernel) for u in plan.units] == \
            [([i], True) for i in range(len(INORDER_SCHEMES))]

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

    def test_raise_mid_walk_diverges_only_that_lane(self, monkeypatch):
        from repro.engine import inorder_lanes

        points = [_pt("rb", "ppa", BASE.with_wpq(w), length=800,
                      warmup=0, core="inorder") for w in (8, 16, 24)]
        want = [simulate_point(p, engine="scalar")[0].to_dict()
                for p in points]
        stores = _store_seqs(points[0])
        _fail_persist_store(monkeypatch, inorder_lanes,
                            2 * len(stores) + 3)
        lanes = run_cohort(points)
        assert lanes[2].engine == "scalar"
        assert lanes[2].diverged_at == stores[2]
        assert lanes[0].engine == lanes[1].engine == "batched"
        for lane, expected in zip(lanes, want):
            assert lane.error is None
            assert lane.stats.to_dict() == expected

    @settings(max_examples=8, deadline=None, phases=_NO_SHRINK,
              suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.data())
    def test_perturbed_inorder_cohorts_bit_exact(self, data):
        length = 1_200
        n = data.draw(st.integers(2, 6), label="lanes")
        scheme = data.draw(st.sampled_from(sorted(INORDER_SCHEMES)),
                           label="scheme")
        points = []
        for lane in range(n):
            wpq = data.draw(st.sampled_from([4, 16, 64]), label=f"w{lane}")
            csq = data.draw(st.sampled_from([4, 16, 40]), label=f"c{lane}")
            wb = data.draw(st.sampled_from([2, 8, 16]), label=f"b{lane}")
            width = data.draw(st.integers(1, 8), label=f"width{lane}")
            config = _with_width(BASE.with_wpq(wpq).with_csq(csq), width)
            config = replace(config, ppa=replace(config.ppa,
                                                 writebuffer_entries=wb))
            tv = data.draw(st.booleans(), label=f"tv{lane}")
            points.append(_pt("rb", scheme, config, length=length,
                              warmup=0, core="inorder", track_values=tv))
        # A stop index outside the trace never fires.
        diverge_at = {
            lane: data.draw(st.integers(-2, length + 2), label=f"d{lane}")
            for lane in range(n)
            if data.draw(st.booleans(), label=f"div{lane}")}
        lanes = run_cohort(points, diverge_at=diverge_at)
        for i, (lane, point) in enumerate(zip(lanes, points)):
            assert lane.error is None
            want = simulate_point(point, engine="scalar")[0]
            assert lane.stats.to_dict() == want.to_dict(), f"lane {i}"
            if 0 <= diverge_at.get(i, -1) < length:
                assert lane.engine == "scalar"
                assert lane.diverged_at == diverge_at[i]
            else:
                assert lane.engine == "batched"
                assert lane.diverged_at is None


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

    def test_env_traced_campaign_plans_no_cohorts(self, monkeypatch):
        # The tracer that REPRO_TRACE=1 gives each run needs the scalar
        # kernel; the planner sees it, so the telemetry tells the truth.
        monkeypatch.setenv("REPRO_TRACE", "1")
        telemetry = self._campaign("auto", _prf_sweep(3, length=400))
        assert telemetry.cohorts == 0
        assert telemetry.batched_points == 0
        assert telemetry.scalar_reasons == {"telemetry tracer active": 3}

    def test_sanitized_campaign_plans_no_cohorts(self):
        from repro.sanitizer import sanitized

        with sanitized():
            telemetry = self._campaign("auto", _prf_sweep(3, length=400))
        assert telemetry.cohorts == 0
        assert telemetry.batched_points == 0
        assert telemetry.scalar_reasons == {"sanitizer probes installed": 3}


@pytest.mark.usefixtures("untraced_unsanitized")
class TestUnitsCarryTheEngine:
    """Pool workers run each unit as the planning process chose it; the
    session default REPRO_ENGINE does not reach them."""

    @pytest.mark.parametrize("engine,env,produced", [
        ("scalar", "auto", "scalar"), ("auto", "scalar", "batched")])
    def test_explicit_engine_beats_the_env_in_workers(
            self, engine, env, produced, monkeypatch):
        monkeypatch.setenv(ENGINE_ENV_VAR, env)
        campaign = Campaign(cache=None, jobs=2, sanitize=False,
                            engine=engine)
        campaign.extend(_prf_sweep(2, length=400)
                        + [_pt("gcc", "ppa", length=400)])
        results = campaign.run()
        assert all(r.ok for r in results)
        assert all(r.worker is not None for r in results)
        assert [r.engine for r in results] == [produced] * 3
