"""The observability plane: /metrics exposition, trace stitching,
structured logs, heartbeats, and engine/cache introspection.

End-to-end tests run a real daemon (background thread, localhost TCP)
and exercise the full pipeline: scheduler metrics -> Prometheus render
-> strict parse, and scheduler manifest + worker kernel traces ->
stitched Perfetto document. The zero-overhead guards mirror the tracer
discipline in ``test_telemetry``: with ``REPRO_LOG`` unset, no
:class:`StructuredLog` may ever be constructed.
"""

from __future__ import annotations

import asyncio
import json
import pstats
import threading

import pytest

from repro.observe.prometheus import (
    _Families,
    family_for,
    parse_prometheus,
    render_prometheus,
)
from repro.observe.slog import (
    LOG_ENV_VAR,
    StructuredLog,
    log_for_run,
    reset_log,
)
from repro.observe.stitch import manifest_path, stitch_campaign
from repro.observe.watch import render, snapshot, watch_loop
from repro.orchestrator.cache import ResultCache
from repro.orchestrator.campaign import Campaign
from repro.orchestrator.execute import run_cohort_payloads
from repro.orchestrator.points import make_point
from repro.orchestrator.serialize import point_to_dict
from repro.service import FleetScheduler, ServiceClient, serve_background
from repro.service.scheduler import CampaignJob
from repro.telemetry.metrics import MetricHistogram, MetricsRegistry

LENGTH = 1_200


# ---------------------------------------------------------------------------
# Satellite: MetricsRegistry / MetricHistogram thread-safety
# ---------------------------------------------------------------------------

class TestMetricsThreadSafety:
    def test_concurrent_mutation_loses_nothing(self):
        registry = MetricsRegistry()
        threads, per_thread = 8, 500

        def hammer(seed: int) -> None:
            for i in range(per_thread):
                registry.counter("shared.count").inc()
                registry.histogram("shared.lat").add(float(seed * i % 7))
                registry.gauge("shared.gauge").set(float(i))
                # Create-on-first-use races: same names from all threads.
                registry.counter(f"tenant.t{i % 3}.hits").inc()

        workers = [threading.Thread(target=hammer, args=(seed,))
                   for seed in range(threads)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join()
        assert registry.counter("shared.count").value \
            == threads * per_thread
        assert registry.histogram("shared.lat").count \
            == threads * per_thread
        total = sum(registry.counter(f"tenant.t{k}.hits").value
                    for k in range(3))
        assert total == threads * per_thread

    def test_snapshot_is_isolated_copy(self):
        hist = MetricHistogram("x")
        hist.add(1.0)
        snap = hist.snapshot()
        hist.add(2.0)
        assert snap == [1.0]
        assert hist.count == 2


# ---------------------------------------------------------------------------
# Satellite: percentile edge cases
# ---------------------------------------------------------------------------

class TestPercentileEdges:
    def test_empty_histogram_reports_zero(self):
        hist = MetricHistogram("x")
        for p in (0.0, 50.0, 100.0):
            assert hist.percentile(p) == 0.0

    def test_single_sample_dominates_every_percentile(self):
        hist = MetricHistogram("x")
        hist.add(4.25)
        for p in (0.0, 1.0, 50.0, 99.0, 100.0):
            assert hist.percentile(p) == 4.25

    def test_bounds_are_min_and_max(self):
        hist = MetricHistogram("x")
        for v in (5.0, 1.0, 3.0, 2.0, 4.0):
            hist.add(v)
        assert hist.percentile(0.0) == 1.0
        assert hist.percentile(100.0) == 5.0
        assert hist.percentile(50.0) == 3.0

    @pytest.mark.parametrize("bad", [-0.001, 100.001, float("nan")])
    def test_out_of_range_percentile_raises(self, bad):
        hist = MetricHistogram("x")
        hist.add(1.0)
        with pytest.raises(ValueError, match="percentile"):
            hist.percentile(bad)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"),
                                     float("-inf")])
    def test_non_finite_samples_rejected_loudly(self, bad):
        hist = MetricHistogram("x")
        with pytest.raises(ValueError, match="finite"):
            hist.add(bad)
        assert hist.count == 0

    def test_to_dict_carries_p95(self):
        hist = MetricHistogram("x")
        for v in range(1, 101):
            hist.add(float(v))
        summary = hist.to_dict()
        assert summary["p95"] == 95.0
        assert summary["p50"] == 50.0


# ---------------------------------------------------------------------------
# Satellite: Prometheus formatting + the strict parser
# ---------------------------------------------------------------------------

class TestPrometheusFormat:
    def test_family_mapping(self):
        assert family_for("tenant.alice.point_seconds") \
            == ("repro_tenant_point_seconds", {"tenant": "alice"})
        assert family_for("service.sim_seconds") \
            == ("repro_service_sim_seconds", {})
        assert family_for("cohort.width-max") \
            == ("repro_cohort_width_max", {})

    def test_scalar_reason_maps_to_labelled_family(self):
        assert family_for("service.scalar_reason.engine_scalar") \
            == ("repro_service_scalar_reason",
                {"reason": "engine_scalar"})

    def test_scalar_reason_counters_share_one_family(self):
        # Every distinct fallback reason becomes one labelled series of
        # a single family, with the free-text reason slugged for the
        # metric name and carried verbatim-enough in the label.
        scheduler = FleetScheduler(cache=None, workers=2)
        scheduler._count_scalar_reasons({
            "engine=scalar": 3,
            "scheme 'psp-undolog' has no batched kernel": 2,
        })
        parsed = parse_prometheus(render_prometheus(scheduler))
        assert parsed.value("repro_service_scalar_reason",
                            reason="engine_scalar") == 3
        assert parsed.value(
            "repro_service_scalar_reason",
            reason="scheme_psp_undolog_has_no_batched_kernel") == 2

    def test_label_escaping_round_trips(self):
        fams = _Families()
        nasty = 'a"b\\c\nd'
        fams.add("repro_test_gauge", "gauge", 'help with "quotes" \\ too',
                 {"tenant": nasty}, 7.0)
        parsed = parse_prometheus(fams.render())
        assert parsed.value("repro_test_gauge", tenant=nasty) == 7.0

    def test_histogram_buckets_are_cumulative_and_exact(self):
        fams = _Families()
        samples = [0.002, 0.002, 0.04, 0.2, 250.0, 400.0]
        fams.add_histogram("repro_test_seconds", "h", {}, samples)
        parsed = parse_prometheus(fams.render())
        series = {labels["le"]: value for labels, value
                  in parsed.series("repro_test_seconds_bucket")}
        assert series["+Inf"] == 6
        assert series["0.005"] == 2
        assert series["300"] == 5          # 400.0 only lands in +Inf
        assert parsed.value("repro_test_seconds_count") == 6
        assert parsed.value("repro_test_seconds_sum") \
            == pytest.approx(sum(samples))
        # Companion gauges are exact nearest-rank, not bucket estimates.
        assert parsed.value("repro_test_seconds_p50") == 0.04
        assert parsed.value("repro_test_seconds_p99") == 400.0

    @pytest.mark.usefixtures("untraced_unsanitized")
    def test_render_is_deterministic_given_state(self):
        scheduler = FleetScheduler(cache=None, workers=2)
        scheduler.metrics.counter("service.simulated").inc(3)
        scheduler.metrics.histogram("tenant.a.point_seconds").add(0.5)
        first = render_prometheus(scheduler)
        parsed = parse_prometheus(first)
        assert parsed.value("repro_service_simulated") == 3
        assert parsed.value("repro_tenant_point_seconds_count",
                            tenant="a") == 1
        assert parsed.has("repro_service_uptime_seconds")
        assert parsed.value("repro_service_info", engine=scheduler.engine,
                            sanitize="0") == 1


class TestPrometheusParserRejections:
    def check(self, text, match):
        with pytest.raises(ValueError, match=match):
            parse_prometheus(text)

    def test_missing_final_newline(self):
        self.check("# TYPE a counter\na 1", "newline")

    def test_sample_without_type(self):
        self.check("a_total 1\n", "no TYPE")

    def test_duplicate_series(self):
        self.check("# TYPE a gauge\na 1\na 2\n", "duplicate series")

    def test_duplicate_type(self):
        self.check("# TYPE a gauge\n# TYPE a counter\n",
                   "duplicate TYPE")

    def test_negative_counter(self):
        self.check("# TYPE a counter\na -1\n", "invalid value")

    def test_bad_label_escape(self):
        self.check('# TYPE a gauge\na{x="\\t"} 1\n', "bad escape")

    def test_histogram_missing_inf_bucket(self):
        self.check('# TYPE h histogram\nh_bucket{le="1"} 1\n'
                   "h_sum 1\nh_count 1\n", r"\+Inf")

    def test_histogram_non_cumulative(self):
        self.check('# TYPE h histogram\nh_bucket{le="1"} 3\n'
                   'h_bucket{le="2"} 2\nh_bucket{le="+Inf"} 3\n'
                   "h_sum 1\nh_count 3\n", "not cumulative")

    def test_histogram_inf_disagrees_with_count(self):
        self.check('# TYPE h histogram\nh_bucket{le="+Inf"} 3\n'
                   "h_sum 1\nh_count 4\n", "_count")

    def test_histogram_missing_count_is_value_error(self):
        self.check('# TYPE h histogram\nh_bucket{le="+Inf"} 1\n'
                   "h_sum 1\n", "missing")


# ---------------------------------------------------------------------------
# Tentpole: structured JSONL logging (+ zero-overhead guard)
# ---------------------------------------------------------------------------

@pytest.fixture
def clean_slog():
    reset_log()
    yield
    reset_log()


class TestStructuredLog:
    def test_emit_writes_correlated_jsonl(self, tmp_path):
        log = StructuredLog(str(tmp_path / "run.jsonl"))
        log.emit("point.done", campaign="c0001", tenant="alice",
                 point="rb:ppa", wall=0.5)
        log.emit("cache.gc", removed=3)
        log.close()
        lines = [json.loads(line) for line in
                 (tmp_path / "run.jsonl").read_text().splitlines()]
        assert [r["event"] for r in lines] == ["point.done", "cache.gc"]
        assert lines[0]["campaign"] == "c0001"
        assert lines[0]["tenant"] == "alice"
        assert all("ts" in r and "pid" in r for r in lines)

    def test_unserializable_fields_never_raise(self, tmp_path):
        log = StructuredLog(str(tmp_path / "run.jsonl"))
        log.emit("odd", weird=object(), nan=float("nan"))
        log.close()
        record = json.loads((tmp_path / "run.jsonl").read_text())
        assert record["event"] == "odd"

    def test_log_for_run_singleton_and_off(self, tmp_path, monkeypatch,
                                           clean_slog):
        monkeypatch.delenv(LOG_ENV_VAR, raising=False)
        assert log_for_run() is None
        target = tmp_path / "svc.jsonl"
        monkeypatch.setenv(LOG_ENV_VAR, str(target))
        first = log_for_run()
        assert first is not None and log_for_run() is first

    def test_campaign_emits_correlated_events(self, tmp_path,
                                              monkeypatch, clean_slog):
        target = tmp_path / "campaign.jsonl"
        monkeypatch.setenv(LOG_ENV_VAR, str(target))
        campaign = Campaign(cache=ResultCache(tmp_path / "cache"), jobs=1)
        campaign.extend([make_point("rb", "ppa", length=LENGTH)])
        results = campaign.run()
        assert all(r.ok for r in results)
        reset_log()                       # flush + close the file handle
        events = [json.loads(line)
                  for line in target.read_text().splitlines()]
        kinds = [e["event"] for e in events]
        assert kinds[0] == "campaign.start"
        assert "campaign.point" in kinds
        assert kinds[-1] == "campaign.done"
        point_event = next(e for e in events
                           if e["event"] == "campaign.point")
        assert point_event["point"] == "rb:ppa"
        assert point_event["source"] in ("sim", "hit")

    def test_zero_overhead_when_unset(self, tmp_path, monkeypatch,
                                      clean_slog):
        """With REPRO_LOG unset, no StructuredLog is ever constructed
        anywhere on the campaign path (CI guard)."""
        monkeypatch.delenv(LOG_ENV_VAR, raising=False)

        def explode(self, *args, **kwargs):
            raise AssertionError(
                "StructuredLog constructed with REPRO_LOG unset")

        monkeypatch.setattr(StructuredLog, "__init__", explode)
        assert log_for_run() is None
        cache = ResultCache(tmp_path / "cache")
        campaign = Campaign(cache=cache, jobs=1)
        campaign.extend([make_point("rb", "ppa", length=LENGTH)])
        results = campaign.run()
        assert all(r.ok for r in results)
        cache.gc()                        # maintenance path is guarded too
        cache.evict(max_bytes=10**9)


# ---------------------------------------------------------------------------
# Tentpole: /metrics on a live daemon + introspection breakdowns
# ---------------------------------------------------------------------------

@pytest.fixture
def daemon(tmp_path):
    """A live daemon with cache + auto engine; yields (client, scheduler)."""
    scheduler = FleetScheduler(cache=ResultCache(tmp_path / "simcache"),
                               workers=2, engine="auto", heartbeat=0.05)
    handle = serve_background(scheduler, port=0)
    try:
        yield ServiceClient(port=handle.port), scheduler
    finally:
        handle.stop()


def _prf_points(n):
    sizes = [(180, 168), (120, 112), (256, 238), (90, 90)]
    from repro.config import skylake_default
    base = skylake_default()
    return [make_point("rb", "ppa", config=base.with_prf(i, f),
                       length=LENGTH) for i, f in sizes[:n]]


@pytest.mark.usefixtures("untraced_unsanitized")
class TestDaemonMetrics:
    def test_scrape_is_valid_and_carries_the_acceptance_series(
            self, daemon):
        client, scheduler = daemon
        job = client.submit("alice", points=[point_to_dict(p)
                                             for p in _prf_points(4)])
        final = client.wait(job["id"], timeout=300)
        assert final["state"] == "done"

        text = client.metrics()
        parsed = parse_prometheus(text)   # strict: raises on violation
        # Acceptance: per-tenant latency quantiles as labelled series.
        assert parsed.value("repro_tenant_point_seconds_count",
                            tenant="alice") == 4
        for q in ("p50", "p95", "p99"):
            assert parsed.value(f"repro_tenant_point_seconds_{q}",
                                tenant="alice") >= 0.0
        # Acceptance: batched-engine cohort metrics.
        assert parsed.value("repro_service_cohort_width_count") >= 1
        assert parsed.value("repro_service_lanes_batched") >= 1
        assert parsed.has("repro_service_batched_instrs_per_sec_count")
        # Fleet + cache families.
        assert parsed.value("repro_service_uptime_seconds") > 0
        assert parsed.value("repro_service_workers") == 2
        assert parsed.value("repro_cache_entries") == 4
        engines = parsed.series("repro_cache_entries_by_engine")
        assert sum(value for _, value in engines) == 4
        assert parsed.value("repro_service_queue_wait_seconds_count") >= 1
        assert parsed.value("repro_service_campaigns_by_state",
                            state="done") == 1

    def test_scrape_counts_scalar_fallback_reasons(self, daemon):
        client, _ = daemon
        points = _prf_points(2) + [make_point("rb", "psp-undolog",
                                              length=LENGTH)]
        job = client.submit("dana", points=[point_to_dict(p)
                                            for p in points])
        final = client.wait(job["id"], timeout=300)
        assert final["state"] == "done"
        parsed = parse_prometheus(client.metrics())
        assert parsed.value(
            "repro_service_scalar_reason",
            reason="scheme_psp_undolog_has_no_batched_kernel") == 1
        assert parsed.value("repro_service_lanes_batched") == 2

    def test_status_surfaces_cache_inventory_breakdowns(self, daemon):
        client, _ = daemon
        job = client.submit("bob", points=[point_to_dict(p)
                                           for p in _prf_points(2)])
        client.wait(job["id"], timeout=300)
        status = client.status()
        inventory = status["cache_inventory"]
        assert inventory["entries"] == 2
        assert inventory["stale_schema"] == 0
        assert sum(inventory["engines"].values()) == 2
        assert status["heartbeat"] == pytest.approx(0.05)

    def test_event_stream_replays_heartbeats(self, daemon):
        client, _ = daemon
        job = client.submit("carol", points=[point_to_dict(p)
                                             for p in _prf_points(2)])
        client.wait(job["id"], timeout=300)
        events = list(client.events(job["id"]))
        kinds = {e["type"] for e in events}
        # wait() already proved heartbeats don't confuse clients; the
        # replayed history shows they were interleaved on the stream.
        assert "point" in kinds and "campaign" in kinds
        beats = [e for e in events if e["type"] == "heartbeat"]
        for beat in beats:
            assert beat["campaign"] == job["id"]
            assert 0 <= beat["done"] <= beat["total"]

    def test_cache_inventory_is_ttl_cached(self, tmp_path):
        scheduler = FleetScheduler(cache=ResultCache(tmp_path / "c"),
                                   workers=1)
        first = scheduler.cache_inventory()
        assert first is not None and first["entries"] == 0
        assert scheduler.cache_inventory() is first


class TestHeartbeat:
    def test_stalled_campaign_still_beats(self):
        """A campaign making no point progress gets periodic heartbeats
        on its event stream."""

        async def scenario():
            scheduler = FleetScheduler(cache=None, workers=1,
                                       heartbeat=0.05)
            await scheduler.start()
            try:
                point = make_point("rb", "ppa", length=LENGTH)
                job = CampaignJob("c9998", "slow", [point], {})
                scheduler.jobs[job.id] = job  # never dispatched: stalled
                await asyncio.sleep(0.4)
                return list(job.events)
            finally:
                await scheduler.close()

        events = asyncio.run(scenario())
        beats = [e for e in events if e["type"] == "heartbeat"]
        assert len(beats) >= 2
        assert beats[0]["campaign"] == "c9998"
        assert beats[0]["done"] == 0 and beats[0]["total"] == 1
        assert beats[1]["ts"] > beats[0]["ts"]

    def test_heartbeat_zero_disables(self):
        scheduler = FleetScheduler(cache=None, workers=1, heartbeat=0)
        assert scheduler.heartbeat is None


# ---------------------------------------------------------------------------
# Tentpole: cross-process trace stitching
# ---------------------------------------------------------------------------

@pytest.fixture
def traced_daemon(tmp_path):
    trace_dir = tmp_path / "traces"
    scheduler = FleetScheduler(cache=ResultCache(tmp_path / "simcache"),
                               workers=1, trace_dir=str(trace_dir))
    handle = serve_background(scheduler, port=0)
    try:
        yield ServiceClient(port=handle.port), trace_dir
    finally:
        handle.stop()


class TestStitch:
    def test_stitched_trace_has_both_sides_of_one_point(
            self, traced_daemon, tmp_path):
        client, trace_dir = traced_daemon
        job = client.submit("alice", matrix={"apps": ["rb"],
                                             "schemes": ["ppa"],
                                             "length": LENGTH})
        final = client.wait(job["id"], timeout=300)
        assert final["state"] == "done"
        campaign_id = job["id"]

        manifest_file = manifest_path(trace_dir, campaign_id)
        assert manifest_file.is_file()
        manifest = json.loads(manifest_file.read_text())
        entry = manifest["points"][0]
        assert entry["span_id"] == f"{campaign_id}/0"
        assert entry["source"] == "sim"
        span_names = {s["name"] for s in entry["spans"]}
        assert {"queue-wait", "simulate", "cache-put"} <= span_names

        summary = stitch_campaign(trace_dir, campaign=campaign_id)
        assert summary["worker_traces"] == 1
        stitched = json.loads((trace_dir / f"{campaign_id}-stitched.json")
                              .read_text())
        events = stitched["traceEvents"]
        sched = [e for e in events if e.get("pid") == 1
                 and e.get("ph") == "X"]
        assert any(e["name"] == "simulate"
                   and e["args"]["span_id"] == f"{campaign_id}/0"
                   for e in sched)
        worker = [e for e in events if e.get("pid") == 100]
        assert worker, "worker kernel trace was not merged"
        context = next(e for e in worker if e["name"] == "trace-context")
        assert context["args"]["span_id"] == f"{campaign_id}/0"
        assert context["args"]["trace_id"] == campaign_id

    def test_span_id_mismatch_is_an_error(self, traced_daemon):
        client, trace_dir = traced_daemon
        job = client.submit("alice", matrix={"apps": ["gcc"],
                                             "schemes": ["ppa"],
                                             "length": LENGTH})
        client.wait(job["id"], timeout=300)
        worker_file = trace_dir / "gcc-ppa.json"
        trace = json.loads(worker_file.read_text())
        for event in trace["traceEvents"]:
            if event.get("name") == "trace-context":
                event["args"]["span_id"] = "c9999/7"
        worker_file.write_text(json.dumps(trace))
        with pytest.raises(ValueError, match="span_id"):
            stitch_campaign(trace_dir, campaign=job["id"])

    def test_missing_manifest_is_a_clear_error(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="manifest"):
            stitch_campaign(tmp_path)

    def test_stitch_cli_json(self, traced_daemon, capsys):
        from repro.observe.__main__ import main as observe_main

        client, trace_dir = traced_daemon
        job = client.submit("alice", matrix={"apps": ["rb"],
                                             "schemes": ["baseline"],
                                             "length": LENGTH})
        client.wait(job["id"], timeout=300)
        code = observe_main(["stitch", "--trace-dir", str(trace_dir),
                             "--campaign", job["id"], "--json"])
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["campaign"] == job["id"]
        assert summary["events"] > 0


# ---------------------------------------------------------------------------
# Tentpole: the watch dashboard (and its --once --json contract)
# ---------------------------------------------------------------------------

class TestWatch:
    def test_snapshot_and_render(self, daemon):
        client, _ = daemon
        job = client.submit("alice", points=[point_to_dict(p)
                                             for p in _prf_points(2)])
        client.wait(job["id"], timeout=300)
        snap = snapshot(client)
        assert snap["scrape"]["ok"] and snap["scrape"]["samples"] > 0
        frame = render(snap)
        assert "repro.service" in frame
        assert "alice" in frame
        assert "scrape   /metrics ok" in frame

    def test_watch_once_exits_zero(self, daemon, capsys):
        client, _ = daemon
        assert watch_loop(client, once=True) == 0
        assert "repro.service" in capsys.readouterr().out

    def test_watch_once_json_cli(self, daemon, capsys):
        from repro.observe.__main__ import main as observe_main

        client, _ = daemon
        code = observe_main(["watch", "--port", str(client.port),
                             "--once", "--json"])
        assert code == 0
        snap = json.loads(capsys.readouterr().out)
        assert "status" in snap and snap["scrape"]["ok"]

    def test_unreachable_daemon_is_exit_one(self, capsys):
        client = ServiceClient(port=1, timeout=0.5)
        assert watch_loop(client, once=True) == 1


# ---------------------------------------------------------------------------
# Tentpole: slow-point profiler
# ---------------------------------------------------------------------------

class TestSlowPointProfiler:
    def test_threshold_zero_profiles_everything(self, tmp_path,
                                                monkeypatch):
        monkeypatch.setenv("REPRO_SLOW_SIM_PROFILE", "0")
        monkeypatch.setenv("REPRO_SLOW_SIM_PROFILE_DIR",
                           str(tmp_path / "slow"))
        # A one-lane kernel unit: the hook fires for it as for a scalar
        # singleton.
        [payload] = run_cohort_payloads([make_point("rb", "ppa",
                                                    length=600)])
        assert payload["cycles"] > 0
        dump = tmp_path / "slow" / "rb-ppa.pstats"
        assert dump.is_file()
        stats = pstats.Stats(str(dump))
        assert stats.total_calls > 0

    def test_every_slow_lane_of_a_cohort_is_profiled(self, tmp_path,
                                                     monkeypatch):
        from repro.orchestrator.campaigns import build_sweep, sweep_spec

        monkeypatch.setenv("REPRO_SLOW_SIM_PROFILE", "0")
        monkeypatch.setenv("REPRO_SLOW_SIM_PROFILE_DIR",
                           str(tmp_path / "slow"))
        points = [p for p in build_sweep(sweep_spec("fig16", apps=["rb"],
                                                    length=600))
                  if p.scheme == "ppa"][:2]
        assert len({p.name for p in points}) == 2
        payloads = run_cohort_payloads(points)
        assert [p["engine"] for p in payloads] == ["batched"] * 2
        dumps = sorted((tmp_path / "slow").glob("*.pstats"))
        assert [d.name for d in dumps] == sorted(
            p.name.replace(":", "-").replace("/", "-") + ".pstats"
            for p in points)

    def test_unset_threshold_profiles_nothing(self, tmp_path,
                                              monkeypatch):
        monkeypatch.delenv("REPRO_SLOW_SIM_PROFILE", raising=False)
        monkeypatch.setenv("REPRO_SLOW_SIM_PROFILE_DIR",
                           str(tmp_path / "slow"))
        run_cohort_payloads([make_point("rb", "ppa", length=600)])
        assert not (tmp_path / "slow").exists()

    def test_unparseable_threshold_is_off(self, monkeypatch):
        from repro.observe.profiler import profile_threshold

        monkeypatch.setenv("REPRO_SLOW_SIM_PROFILE", "soon")
        assert profile_threshold() is None
        monkeypatch.setenv("REPRO_SLOW_SIM_PROFILE", "-1")
        assert profile_threshold() is None
        monkeypatch.setenv("REPRO_SLOW_SIM_PROFILE", "1.5")
        assert profile_threshold() == 1.5


# ---------------------------------------------------------------------------
# Satellite: orchestrator status engine/stale-schema breakdown
# ---------------------------------------------------------------------------

class TestOrchestratorStatusBreakdown:
    def test_text_status_lists_engine_breakdown(self, tmp_path, capsys):
        from repro.orchestrator.__main__ import main as orch_main

        cache_dir = tmp_path / "cache"
        campaign = Campaign(cache=ResultCache(cache_dir), jobs=1)
        campaign.extend([make_point("rb", "ppa", length=LENGTH)])
        assert all(r.ok for r in campaign.run())
        capsys.readouterr()
        assert orch_main(["status", "--cache-dir", str(cache_dir)]) == 0
        out = capsys.readouterr().out
        assert "entries:       1" in out
        assert "engine " in out            # per-engine breakdown line
        assert orch_main(["status", "--cache-dir", str(cache_dir),
                          "--json"]) == 0
        info = json.loads(capsys.readouterr().out)
        assert "engines" in info and "stale_schema" in info
