"""Campaign execution: caching tiers, ordering, retries, telemetry."""

import pytest

from repro.config import skylake_default
from repro.orchestrator.cache import ResultCache
from repro.orchestrator.campaign import Campaign, CampaignError
from repro.orchestrator.points import SimPoint, make_point
from repro.workloads.profiles import profile_by_name

LENGTH = 1_500

POINTS = [("gcc", "ppa"), ("gcc", "baseline"), ("rb", "ppa"),
          ("rb", "baseline")]


def _populate(campaign):
    for app, scheme in POINTS:
        campaign.add_run(app, scheme, length=LENGTH, warmup=0)


def _bad_point() -> SimPoint:
    """A point whose simulation raises inside the worker (unknown scheme
    slips past make_point because we build the dataclass directly)."""
    return SimPoint(profile=profile_by_name("gcc"),
                    scheme="no-such-scheme", config=skylake_default(),
                    length=200, warmup=0)


class TestSerialCampaign:
    def test_results_in_submission_order(self, tmp_path):
        campaign = Campaign(cache=ResultCache(tmp_path))
        _populate(campaign)
        results = campaign.run()
        assert [r.index for r in results] == [0, 1, 2, 3]
        assert [r.point.profile.name for r in results] \
            == [app for app, _ in POINTS]
        assert all(r.ok and not r.cache_hit for r in results)

    def test_warm_rerun_simulates_nothing(self, tmp_path):
        cold = Campaign(cache=ResultCache(tmp_path))
        _populate(cold)
        cold_results = cold.run()
        assert cold.telemetry.simulated == len(POINTS)

        warm = Campaign(cache=ResultCache(tmp_path))
        _populate(warm)
        warm_results = warm.run()
        assert warm.telemetry.simulated == 0
        assert warm.telemetry.cache_hits == len(POINTS)
        for a, b in zip(cold_results, warm_results):
            assert a.stats == b.stats

    def test_no_cache_campaign(self):
        campaign = Campaign(cache=None)
        campaign.add_run("gcc", "ppa", length=LENGTH, warmup=0)
        results = campaign.run()
        assert results[0].ok
        assert campaign.telemetry.cache_hits == 0

    def test_progress_callback_sees_every_point(self, tmp_path):
        seen = []
        campaign = Campaign(
            cache=ResultCache(tmp_path),
            progress=lambda telemetry, result: seen.append(
                (result.index, result.cache_hit, telemetry.done)))
        _populate(campaign)
        campaign.run()
        assert [done for _, _, done in seen] == [1, 2, 3, 4]
        assert [index for index, _, _ in seen] == [0, 1, 2, 3]

    def test_failed_point_records_error_and_retries(self):
        campaign = Campaign(cache=None, retries=2)
        campaign.add(_bad_point())
        campaign.add_run("gcc", "ppa", length=LENGTH, warmup=0)
        results = campaign.run()
        assert results[0].error is not None
        assert results[0].stats is None
        assert results[0].attempts == 3          # initial try + 2 retries
        assert results[1].ok                     # later points still run
        assert campaign.telemetry.failures == 1
        assert campaign.telemetry.retries == 2

    def test_fail_fast_raises(self):
        campaign = Campaign(cache=None, retries=0, fail_fast=True)
        campaign.add(_bad_point())
        with pytest.raises(CampaignError):
            campaign.run()

    def test_persist_log_capture(self, tmp_path):
        from repro.failure.injector import PowerFailureInjector

        campaign = Campaign(cache=ResultCache(tmp_path))
        campaign.add(make_point("gcc", "ppa", length=LENGTH, warmup=0,
                                track_values=True, capture_persist_log=True))
        result = campaign.run()[0]
        assert result.persist_log
        injector = PowerFailureInjector(result.stats, result.persist_log)
        assert injector.nvm_image_at(result.stats.cycles)

        # The warm path hands back the same log from disk.
        warm = Campaign(cache=ResultCache(tmp_path))
        warm.add(make_point("gcc", "ppa", length=LENGTH, warmup=0,
                            track_values=True, capture_persist_log=True))
        warm_result = warm.run()[0]
        assert warm_result.cache_hit
        assert warm_result.persist_log == result.persist_log


class TestTraceCapture:
    def test_trace_dir_writes_per_point_chrome_traces(self, tmp_path):
        import json

        trace_dir = tmp_path / "traces"
        campaign = Campaign(cache=ResultCache(tmp_path / "cache"),
                            trace_dir=trace_dir)
        campaign.add_run("gcc", "ppa", length=LENGTH, warmup=0)
        campaign.add_run("rb", "baseline", length=LENGTH, warmup=0)
        results = campaign.run()
        assert all(r.ok for r in results)

        traces = sorted(trace_dir.glob("*.json"))
        assert len(traces) == 2
        for path in traces:
            document = json.loads(path.read_text())
            events = document["traceEvents"]
            assert any(e.get("ph") == "X" for e in events)

        # Tracing must not perturb the model: an untraced run of the
        # same points produces bit-identical stats.
        plain = Campaign(cache=None)
        plain.add_run("gcc", "ppa", length=LENGTH, warmup=0)
        plain.add_run("rb", "baseline", length=LENGTH, warmup=0)
        for traced, untraced in zip(results, plain.run()):
            assert traced.stats == untraced.stats

        # Cache hits replay stored payloads without re-simulating, so a
        # warm rerun writes no new traces.
        for path in traces:
            path.unlink()
        warm = Campaign(cache=ResultCache(tmp_path / "cache"),
                        trace_dir=trace_dir)
        warm.add_run("gcc", "ppa", length=LENGTH, warmup=0)
        warm.add_run("rb", "baseline", length=LENGTH, warmup=0)
        assert all(r.cache_hit for r in warm.run())
        assert not list(trace_dir.glob("*.json"))


class TestParallelCampaign:
    def test_pool_matches_serial(self, tmp_path):
        serial = Campaign(cache=None)
        _populate(serial)
        serial_results = serial.run()

        pooled = Campaign(cache=ResultCache(tmp_path / "pool"), jobs=2)
        _populate(pooled)
        pooled_results = pooled.run()
        assert pooled.telemetry.simulated == len(POINTS)
        for a, b in zip(serial_results, pooled_results):
            assert a.stats == b.stats

    def test_pool_failure_is_retried_then_reported(self):
        campaign = Campaign(cache=None, jobs=2, retries=1)
        campaign.add(_bad_point())
        campaign.add_run("rb", "ppa", length=LENGTH, warmup=0)
        results = campaign.run()
        assert results[0].error is not None and results[0].attempts == 2
        assert results[1].ok
        assert campaign.telemetry.retries == 1

    def test_pool_warm_rerun_hits_cache(self, tmp_path):
        cache_dir = tmp_path / "shared"
        cold = Campaign(cache=ResultCache(cache_dir), jobs=2)
        _populate(cold)
        cold.run()

        warm = Campaign(cache=ResultCache(cache_dir), jobs=2)
        _populate(warm)
        warm.run()
        assert warm.telemetry.simulated == 0
        assert warm.telemetry.cache_hits == len(POINTS)


def _sleepy_run_point(point, sanitize=False, trace_dir=None,
                      trace_ctx=None):
    """Stand-in worker: sleeps for the duration encoded in the point's
    label, then delegates to the real worker. Module-level so the pool
    can unpickle it by name in forked workers."""
    import time as _time

    from repro.orchestrator.execute import run_point_payload

    _time.sleep(float(point.label.rsplit("=", 1)[1]))
    return run_point_payload(point, sanitize, trace_dir, trace_ctx)


def _timed_point(app: str, seconds: float, seed: int = 0):
    return make_point(app, "ppa", length=300, warmup=0, seed=seed,
                      label=f"{app}:sleep={seconds}")


class TestPoolDeadlines:
    """Per-point timeouts are deadlines from submission to the pool, not
    from whenever the collector gets around to the point — and a worker
    that blows its deadline is killed so its slot comes back."""

    @pytest.fixture(autouse=True)
    def _sleepy_workers(self, monkeypatch):
        import repro.orchestrator.pool as pool_module

        monkeypatch.setattr(pool_module, "run_point_payload",
                            _sleepy_run_point)

    def test_wedged_point_is_killed_and_slot_reclaimed(self):
        import time as _time

        campaign = Campaign(cache=None, jobs=1, timeout=1.0, retries=0)
        campaign.add(_timed_point("gcc", 60.0))       # wedged forever
        campaign.add(_timed_point("rb", 0.0))
        start = _time.perf_counter()
        results = campaign.run()
        elapsed = _time.perf_counter() - start

        assert results[0].error is not None
        assert "deadline" in results[0].error
        assert results[1].ok, "the slot was never reclaimed"
        assert campaign.telemetry.timeouts == 1
        assert campaign.telemetry.failures == 1
        # Nothing ever waits on the 60s sleep: the wedged worker dies at
        # its 1s deadline and the fast point runs on the fresh pool.
        assert elapsed < 30.0

    def test_queued_points_get_their_own_budget(self):
        """With one worker slot, three 0.4s points under a 2s timeout all
        pass: each deadline starts when the point reaches the pool, so
        earlier points' runtimes don't eat later points' budgets."""
        campaign = Campaign(cache=None, jobs=1, timeout=2.0, retries=0)
        for seed in range(3):
            campaign.add(_timed_point("rb", 0.4, seed=seed))
        results = campaign.run()
        assert all(r.ok for r in results)
        assert campaign.telemetry.timeouts == 0

    def test_timeout_is_retried_then_reported(self):
        campaign = Campaign(cache=None, jobs=1, timeout=0.8, retries=1)
        campaign.add(_timed_point("gcc", 60.0))
        results = campaign.run()
        assert results[0].error is not None
        assert results[0].attempts == 2
        assert campaign.telemetry.timeouts == 2
        assert campaign.telemetry.retries == 1

    def test_no_timeout_still_completes(self):
        campaign = Campaign(cache=None, jobs=2, timeout=None)
        campaign.add(_timed_point("gcc", 0.0))
        campaign.add(_timed_point("rb", 0.1))
        assert all(r.ok for r in campaign.run())


class TestTelemetry:
    def test_utilization_and_summary(self, tmp_path):
        campaign = Campaign(cache=ResultCache(tmp_path))
        _populate(campaign)
        campaign.run()
        telemetry = campaign.telemetry
        assert telemetry.total == telemetry.done == len(POINTS)
        assert telemetry.busy_seconds > 0
        assert 0.0 <= telemetry.worker_utilization <= 1.0
        line = telemetry.summary_line()
        assert f"{len(POINTS)}/{len(POINTS)} points" in line
        assert "worker utilization" in line


class TestSweepCampaigns:
    def test_build_and_summarize_fig17(self, tmp_path):
        from repro.orchestrator.campaigns import (
            build_sweep,
            summarize_sweep,
            sweep_spec,
        )

        spec = sweep_spec("fig17", apps=("rb",), length=LENGTH)
        points = build_sweep(spec)
        assert len(points) == len(spec.configs) * 2
        campaign = Campaign(cache=ResultCache(tmp_path))
        campaign.extend(points)
        rows = summarize_sweep(
            spec, [result.stats for result in campaign.run()])
        assert [label for label, _ in rows] \
            == [label for label, _ in spec.configs]
        assert all(mean > 0 for _, mean in rows)

    def test_unknown_sweep_rejected(self):
        from repro.orchestrator.campaigns import sweep_spec

        with pytest.raises(ValueError):
            sweep_spec("fig99")


class TestCacheHitAccounting:
    """Cache hits are free in *this* campaign: wall_clock stays 0.0 and
    the original worker cost lives in cached_wall_clock instead, so
    busy_seconds / utilization / bench throughput never count banked
    simulation time as current work."""

    def test_hit_reports_cached_wall_clock_not_wall_clock(self, tmp_path):
        cold = Campaign(cache=ResultCache(tmp_path))
        _populate(cold)
        cold_results = cold.run()
        assert all(r.wall_clock > 0 and r.cached_wall_clock == 0.0
                   for r in cold_results)

        warm = Campaign(cache=ResultCache(tmp_path))
        _populate(warm)
        warm_results = warm.run()
        for cold_result, warm_result in zip(cold_results, warm_results):
            assert warm_result.cache_hit
            assert warm_result.wall_clock == 0.0
            assert warm_result.cached_wall_clock \
                == pytest.approx(cold_result.wall_clock)

    def test_warm_busy_seconds_exclude_banked_time(self, tmp_path):
        cold = Campaign(cache=ResultCache(tmp_path))
        _populate(cold)
        cold.run()
        warm = Campaign(cache=ResultCache(tmp_path))
        _populate(warm)
        warm.run()
        assert warm.telemetry.busy_seconds == 0.0

    def test_result_to_dict_carries_volume_and_cache_cost(self, tmp_path):
        cold = Campaign(cache=ResultCache(tmp_path))
        _populate(cold)
        cold.run()
        warm = Campaign(cache=ResultCache(tmp_path))
        _populate(warm)
        data = warm.run()[0].to_dict()
        assert data["cache_hit"] is True
        assert data["wall_clock"] == 0.0
        assert data["cached_wall_clock"] > 0
        assert data["cycles"] > 0 and data["instructions"] > 0

    def test_telemetry_to_dict(self, tmp_path):
        campaign = Campaign(cache=ResultCache(tmp_path))
        _populate(campaign)
        campaign.run()
        data = campaign.telemetry.to_dict()
        assert data["done"] == data["total"] == len(POINTS)
        assert data["cache_misses"] == len(POINTS)
        assert data["busy_seconds"] > 0
        assert 0.0 <= data["worker_utilization"] <= 1.0


class TestCliJson:
    def test_run_json_emits_results_and_telemetry(self, tmp_path, capsys):
        import json

        from repro.orchestrator.__main__ import main

        code = main(["run", "fig16", "--apps", "rb", "--length",
                     str(LENGTH), "--cache-dir", str(tmp_path), "--json"])
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["campaign"] == "fig16"
        assert data["telemetry"]["failures"] == 0
        assert data["summary"] and all(
            row["gmean_slowdown"] > 0 for row in data["summary"])
        assert all(r["cycles"] > 0 for r in data["results"])
        assert data["cache_root"] == str(tmp_path)

    def test_status_json_and_banked_throughput(self, tmp_path, capsys):
        import json

        from repro.orchestrator.__main__ import main

        campaign = Campaign(cache=ResultCache(tmp_path))
        _populate(campaign)
        campaign.run()
        capsys.readouterr()

        assert main(["status", "--cache-dir", str(tmp_path),
                     "--json"]) == 0
        info = json.loads(capsys.readouterr().out)
        assert info["entries"] == len(POINTS)
        assert info["sim_cycles"] > 0
        assert info["sim_instructions"] > 0
        assert info["sim_seconds"] > 0

        assert main(["status", "--cache-dir", str(tmp_path)]) == 0
        text = capsys.readouterr().out
        assert "banked sim:" in text
        assert "throughput:" in text

    def test_status_plan_previews_batching(self, tmp_path, capsys):
        import json

        from repro.orchestrator.__main__ import main

        assert main(["status", "--cache-dir", str(tmp_path),
                     "--plan", "capri", "--engine", "auto",
                     "--json"]) == 0
        plan = json.loads(capsys.readouterr().out)["plan"]
        assert plan["campaign"] == "capri"
        assert plan["engine"] == "auto"
        assert plan["scalar_points"] == 0
        assert plan["batched_points"] == plan["points"] > 0
        assert plan["scalar_reasons"] == {}
        assert all(width >= 2 for width in plan["cohort_widths"])

        assert main(["status", "--cache-dir", str(tmp_path),
                     "--plan", "fig16", "--engine", "scalar"]) == 0
        text = capsys.readouterr().out
        assert "plan preview:" in text
        assert "scalar x" in text and "engine=scalar" in text

    def test_status_plan_rejects_non_sweeps_cleanly(self, tmp_path,
                                                    capsys):
        from repro.orchestrator.__main__ import main

        assert main(["status", "--cache-dir", str(tmp_path),
                     "--plan", "matrix"]) == 2
        err = capsys.readouterr().err
        assert "no fixed grid to preview" in err
        assert len(err.strip().splitlines()) == 1

        assert main(["status", "--cache-dir", str(tmp_path),
                     "--plan", "fig99"]) == 2
        err = capsys.readouterr().err
        assert "unknown sweep 'fig99'" in err and "fig16" in err

    def test_unknown_app_is_rejected_cleanly(self, tmp_path, capsys):
        from repro.orchestrator.__main__ import main

        for argv in (["run", "fig16", "--apps", "nosuchapp"],
                     ["run", "matrix", "--apps", "nosuchapp",
                      "--schemes", "ppa"]):
            assert main(argv + ["--cache-dir", str(tmp_path)]) == 2
            err = capsys.readouterr().err
            assert err.strip() == "unknown workload 'nosuchapp'"
        # status has no --apps: argparse rejects it with the usual exit 2.
        with pytest.raises(SystemExit) as excinfo:
            main(["status", "--cache-dir", str(tmp_path), "--plan",
                  "fig16", "--apps", "nosuchapp"])
        assert excinfo.value.code == 2

    def test_meaningless_limits_are_rejected_cleanly(self, capsys):
        from repro.orchestrator.__main__ import main as orchestrator
        from repro.service.__main__ import main as service

        sweep = ["fig16", "--apps", "rb"]
        for main, argv, flag in (
            (orchestrator, ["run", *sweep, "--no-cache",
                            "--timeout", "-1"], "--timeout"),
            (orchestrator, ["run", *sweep, "--no-cache",
                            "--timeout", "0"], "--timeout"),
            (orchestrator, ["run", *sweep, "--no-cache",
                            "--length", "0"], "--length"),
            (service, ["serve", "--no-cache", "--timeout", "0"],
             "--timeout"),
            (service, ["submit", *sweep, "--tenant", "a", "--length",
                       "0"], "--length"),
        ):
            assert main(argv) == 2, argv
            captured = capsys.readouterr()
            assert captured.err.startswith(flag), argv
            assert len(captured.err.strip().splitlines()) == 1, argv
            assert captured.out == "", argv

    def test_failed_sweep_points_exit_cleanly(self, monkeypatch, capsys):
        import repro.orchestrator.pool as pool_module
        from repro.orchestrator.__main__ import main

        def broken_worker(*args):
            raise RuntimeError("injected worker failure")

        monkeypatch.setattr(pool_module, "run_point_payload",
                            broken_worker)
        monkeypatch.setattr(pool_module, "run_cohort_payloads",
                            broken_worker)
        assert main(["run", "fig16", "--apps", "rb", "--no-cache",
                     "--length", "300", "--retries", "0"]) == 1
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 13                 # 12 points + telemetry
        assert all("FAILED" in line and "injected worker failure" in line
                   for line in lines[:12])
        assert lines[12].startswith("[campaign] 12/12 points")
        assert "12 failed" in lines[12]
