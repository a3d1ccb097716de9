"""Telemetry subsystem: tracer mechanics, trace well-formedness across
schemes, exporter structure, the zero-overhead-off guarantee, and the
``python -m repro.telemetry`` CLI."""

from __future__ import annotations

import json

import pytest

import repro
from repro import telemetry
from repro.telemetry import Span, Tracer, TracerScope, tracing
from repro.telemetry.export import (
    chrome_trace_events,
    timeline_summary,
    top_regions,
    write_chrome_trace,
    write_jsonl,
)

SCHEMES = ["ppa", "capri", "psp-undolog", "sb-gate"]
CLOSE_REASONS = {"prf", "csq", "sync", "compiler", "end"}


# ---------------------------------------------------------------------------
# Tracer mechanics
# ---------------------------------------------------------------------------

class TestTracer:
    def test_span_clamps_negative_duration(self):
        tracer = Tracer()
        event = tracer.span("t", "x", 10.0, 5.0)
        assert event.dur == 0.0
        assert event.end == 10.0

    def test_begin_close_accounting(self):
        tracer = Tracer()
        span = tracer.begin("t", "x", 1.0)
        assert tracer.open_span_count == 1
        assert not tracer.events
        span.close(4.0, outcome="done")
        assert tracer.open_span_count == 0
        assert tracer.events[0].dur == 3.0
        assert tracer.events[0].args["outcome"] == "done"

    def test_scope_prefixes_tracks_and_shares_storage(self):
        tracer = Tracer()
        scope = tracer.scope("core0")
        assert isinstance(scope, TracerScope)
        scope.span("regions", "r", 0.0, 5.0, cat="region")
        nested = scope.scope("wb")
        nested.instant("q", "i", 1.0)
        assert tracer.tracks() == ["core0/regions", "core0/wb/q"]
        scope.metrics.counter("c").inc()
        assert tracer.metrics.counter("c").value == 1

    def test_query_filters(self):
        tracer = Tracer()
        tracer.span("a", "s1", 0.0, 1.0, cat="region")
        tracer.span("a", "s2", 0.0, 1.0, cat="store")
        tracer.instant("a", "i1", 0.5, cat="region-close")
        assert len(tracer.spans()) == 2
        assert len(tracer.spans(cat="region")) == 1
        assert len(tracer.instants(cat="region-close")) == 1

    def test_tracing_context_sets_and_restores_ambient(self, monkeypatch):
        monkeypatch.delenv("REPRO_TRACE", raising=False)
        assert telemetry.tracer_for_run() is None
        with tracing() as outer:
            assert telemetry.tracer_for_run() is outer
            assert telemetry.active_tracer() is outer
            with tracing(outer.scope("inner")) as scope:
                assert telemetry.tracer_for_run() is scope
            assert telemetry.tracer_for_run() is outer
        assert telemetry.tracer_for_run() is None

    def test_env_var_creates_fresh_per_run_tracer(self, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE", "1")
        first = telemetry.tracer_for_run()
        second = telemetry.tracer_for_run()
        assert isinstance(first, Tracer)
        assert first is not second
        assert telemetry.last_tracer() is second


# ---------------------------------------------------------------------------
# Zero overhead when off
# ---------------------------------------------------------------------------

class TestZeroOverheadOff:
    def test_untraced_run_allocates_no_tracer(self, monkeypatch,
                                              small_trace, config):
        """The no-trace fast path must never construct a Tracer."""
        def explode(self):
            raise AssertionError("Tracer allocated on the untraced path")

        monkeypatch.delenv("REPRO_TRACE", raising=False)
        monkeypatch.setattr(Tracer, "__init__", explode)
        from repro.core.processor import PersistentProcessor

        proc = PersistentProcessor(config)
        stats = proc.run(small_trace)
        assert proc.tracer is None
        assert stats.instructions == len(small_trace)

    def test_traced_stats_bit_exact_vs_untraced(self, small_trace, config):
        from repro.core.processor import PersistentProcessor

        baseline = PersistentProcessor(config).run(small_trace)
        with tracing():
            traced_proc = PersistentProcessor(config)
            traced = traced_proc.run(small_trace)
        assert traced_proc.tracer is not None
        assert traced.to_dict() == baseline.to_dict()

    def test_traced_inorder_bit_exact(self, small_trace, config):
        from repro.inorder.core import InOrderCore

        baseline = InOrderCore(config).run(small_trace)
        with tracing():
            traced = InOrderCore(config).run(small_trace)
        assert traced.to_dict() == baseline.to_dict()


# ---------------------------------------------------------------------------
# Trace well-formedness across schemes
# ---------------------------------------------------------------------------

@pytest.fixture(params=SCHEMES)
def traced_run(request):
    result = repro.simulate("rb", scheme=request.param, length=2_000,
                            trace=True)
    return request.param, result


class TestWellFormedness:
    def test_every_open_span_closes(self, traced_run):
        __, result = traced_run
        assert result.telemetry.open_span_count == 0

    def test_region_spans_present_with_reasons(self, traced_run):
        __, result = traced_run
        tracer = result.telemetry
        regions = tracer.spans(cat="region")
        assert regions, "every scheme forms at least one region"
        closes = tracer.instants(cat="region-close")
        assert len(closes) == len(regions)
        for event in closes:
            assert event.args["reason"] in CLOSE_REASONS

    def test_store_durability_spans_cover_commit_to_durable(
            self, traced_run):
        __, result = traced_run
        stores = result.telemetry.spans(cat="store")
        assert stores
        for event in stores:
            assert event.dur >= 0.0
            assert event.ts >= 0.0

    def test_persist_and_nvm_tracks_populated(self, traced_run):
        scheme, result = traced_run
        tracer = result.telemetry
        assert tracer.spans(cat="nvm"), "WPQ slot spans"
        if scheme in ("ppa", "capri"):
            # Only the write-buffer-based schemes have a launch->WPQ
            # stage; the software/SB schemes write NVM lines directly.
            assert tracer.spans(cat="persist"), "WB launch->WPQ spans"

    def test_chrome_export_timestamps_monotone_per_track(self, traced_run):
        __, result = traced_run
        events = chrome_trace_events(result.telemetry)
        last_ts: dict[int, float] = {}
        for entry in events:
            if entry["ph"] == "M":
                continue
            tid = entry["tid"]
            assert entry["ts"] >= last_ts.get(tid, 0.0)
            last_ts[tid] = entry["ts"]

    def test_chrome_export_structure(self, traced_run, tmp_path):
        scheme, result = traced_run
        path = tmp_path / f"{scheme}.json"
        result.write_chrome_trace(path)
        document = json.loads(path.read_text())
        events = document["traceEvents"]
        assert isinstance(events, list) and events
        phases = {entry["ph"] for entry in events}
        assert phases <= {"M", "X", "i", "C"}
        names = [entry["args"]["name"] for entry in events
                 if entry["ph"] == "M" and entry["name"] == "thread_name"]
        assert "regions" in names and "stores" in names
        for entry in events:
            if entry["ph"] == "X":
                assert entry["dur"] >= 0.0
            if entry["ph"] == "i":
                assert entry["s"] == "t"

    def test_jsonl_export_round_trips(self, traced_run, tmp_path):
        scheme, result = traced_run
        path = tmp_path / f"{scheme}.jsonl"
        result.write_jsonl(path)
        lines = path.read_text().splitlines()
        assert len(lines) == len(result.telemetry.events)
        record = json.loads(lines[0])
        assert {"name", "track", "ph", "ts"} <= set(record)


# ---------------------------------------------------------------------------
# Life-cycle events: checkpoint, recovery, multicore, sanitizer
# ---------------------------------------------------------------------------

class TestLifecycleEvents:
    def test_checkpoint_and_recovery_spans(self):
        result = repro.simulate("rb", scheme="ppa", length=2_000,
                                trace=True)
        crash = result.crash_api.crash_at(result.stats.cycles / 2)
        result.crash_api.recover(crash)
        tracer = result.telemetry
        ckpt = {e.name for e in tracer.spans(cat="checkpoint")}
        assert {"stop-pipeline", "walk-csq", "walk-crt",
                "jit-checkpoint"} <= ckpt
        jit = [e for e in tracer.spans(cat="checkpoint")
               if e.name == "jit-checkpoint"][0]
        assert jit.ts == crash.fail_time
        assert jit.args["entries"] == crash.checkpoint.controller_cycles
        recovery = tracer.spans(cat="recovery")
        assert recovery and recovery[0].name == "csq-replay"
        resume = tracer.instants(cat="recovery")
        assert resume[0].args["resume_pc"] == crash.checkpoint.lcpc + 1
        assert tracer.open_span_count == 0

    def test_multicore_scoped_tracks(self):
        result = repro.simulate("rb", core="multicore", scheme="ppa",
                                length=2_000, threads=2, trace=True)
        tracks = set(result.telemetry.tracks())
        assert any(t.startswith("core0/") for t in tracks)
        assert any(t.startswith("core1/") for t in tracks)
        system = [e for e in result.telemetry.spans(cat="run")
                  if e.track == "system"]
        assert system, "barrier segments + whole-run span"
        run_span = [e for e in system if e.name.startswith("run ")][0]
        assert run_span.dur == pytest.approx(result.stats.makespan)

    def test_sanitizer_violation_lands_on_trace(self):
        from repro.sanitizer import probes

        with tracing() as tracer:
            with pytest.raises(probes.SanitizerError):
                probes._fail("wb.occupancy", "too many ops in flight",
                             time=123.0, occupancy=9)
        violations = tracer.instants(cat="violation")
        assert len(violations) == 1
        event = violations[0]
        assert event.track == "sanitizer"
        assert event.name == "violation:wb.occupancy"
        assert event.ts == 123.0
        assert "too many ops" in event.args["message"]

    def test_sanitized_traced_run_is_clean(self, small_trace, config):
        from repro.core.processor import PersistentProcessor
        from repro.sanitizer import sanitized

        with tracing() as tracer:
            with sanitized():
                PersistentProcessor(config).run(small_trace)
        assert not tracer.instants(cat="violation")


# ---------------------------------------------------------------------------
# Summaries and the CLI
# ---------------------------------------------------------------------------

class TestSummariesAndCli:
    def test_timeline_summary_and_top_regions(self):
        result = repro.simulate("rb", scheme="ppa", length=2_000,
                                trace=True)
        summary = timeline_summary(result.telemetry)
        assert summary["events"] == len(result.telemetry.events)
        assert summary["open_spans"] == 0
        assert sum(summary["region_close_causes"].values()) \
            == len(result.telemetry.spans(cat="region"))
        assert "region.drain_wait" in summary["metrics"]
        regions = top_regions(result.telemetry, n=3)
        assert len(regions) <= 3
        assert regions == sorted(regions, key=lambda e: e.dur,
                                 reverse=True)

    def test_cli_summary_and_exports(self, tmp_path, capsys):
        from repro.telemetry.__main__ import main

        out = tmp_path / "trace.json"
        jsonl = tmp_path / "trace.jsonl"
        code = main(["rb", "--scheme", "ppa", "--length", "2000",
                     "--top", "3", "--crash", "0.5",
                     "--out", str(out), "--jsonl", str(jsonl)])
        assert code == 0
        printed = capsys.readouterr().out
        assert "region close causes" in printed
        assert "longest regions" in printed
        document = json.loads(out.read_text())
        cats = {e.get("cat") for e in document["traceEvents"]}
        assert {"region", "store", "checkpoint"} <= cats
        assert jsonl.exists()

    def test_cli_rejects_crash_without_crash_api(self, capsys):
        from repro.telemetry.__main__ import main

        code = main(["rb", "--scheme", "capri", "--length", "2000",
                     "--crash", "0.5"])
        assert code == 2

    @pytest.mark.parametrize("argv,message", [
        (["rb", "--length", "0"],
         "--length must be at least 1 instruction (got 0)"),
        (["rb", "--core", "multicore", "--threads", "0"],
         "--threads must be at least 1 thread (got 0)"),
        (["rb", "--crash", "-0.5"],
         "--crash must be a fraction in [0, 1] (got -0.5)"),
        (["rb", "--crash", "2"],
         "--crash must be a fraction in [0, 1] (got 2)"),
    ])
    def test_cli_rejects_bad_limits_in_one_line(self, argv, message,
                                                 capsys):
        from repro.telemetry.__main__ import main

        assert main(argv) == 2
        assert capsys.readouterr().err.strip() == message

    @pytest.mark.parametrize("argv,message", [
        (["bogusapp"], "unknown workload 'bogusapp'"),
        (["rb", "--core", "inorder", "--scheme", "capri"],
         "the in-order core supports scheme 'ppa' or 'baseline', "
         "not 'capri'"),
    ])
    def test_cli_rejects_bad_names_in_one_line(self, argv, message,
                                               capsys):
        from repro.telemetry.__main__ import main

        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.strip() == message
        assert captured.out == ""

    def test_write_helpers_raise_on_untraced_result(self, tmp_path,
                                                    monkeypatch):
        monkeypatch.delenv("REPRO_TRACE", raising=False)
        result = repro.simulate("rb", scheme="ppa", length=2_000)
        assert result.telemetry is None
        with pytest.raises(RuntimeError, match="not traced"):
            result.write_chrome_trace(tmp_path / "x.json")


# ---------------------------------------------------------------------------
# Export helpers on hand-built tracers
# ---------------------------------------------------------------------------

class TestExportEdgeCases:
    def test_nonfinite_args_become_strings(self, tmp_path):
        tracer = Tracer()
        tracer.span("t", "s", 0.0, 1.0, durable=float("inf"),
                    obj=object())
        path = write_chrome_trace(tracer, tmp_path / "t.json")
        document = json.loads(path.read_text())
        span = [e for e in document["traceEvents"] if e["ph"] == "X"][0]
        assert span["args"]["durable"] == "inf"
        assert isinstance(span["args"]["obj"], str)

    def test_counter_events_render_as_chrome_counters(self):
        tracer = Tracer()
        tracer.counter("wb", "occupancy", 5.0, 3.0)
        events = chrome_trace_events(tracer)
        counter = [e for e in events if e["ph"] == "C"][0]
        assert counter["args"] == {"occupancy": 3.0}

    def test_jsonl_handles_unserializable_args(self, tmp_path):
        tracer = Tracer()
        tracer.instant("t", "i", 0.0, payload={1, 2})
        path = write_jsonl(tracer, tmp_path / "t.jsonl")
        record = json.loads(path.read_text())
        assert "payload" in record["args"]


def test_span_helper_class_reexported():
    assert telemetry.Span is Span


class TestCliJson:
    def test_json_mode_emits_run_summary_and_regions(self, capsys):
        from repro.telemetry.__main__ import main

        code = main(["rb", "--scheme", "ppa", "--length", "2000",
                     "--top", "2", "--json"])
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["run"]["scheme"] == "ppa"
        assert data["run"]["length"] == 2000
        assert data["summary"]["events"] > 0
        assert len(data["top_regions"]) <= 2
        for region in data["top_regions"]:
            assert region["cycles"] >= 0 and region["track"]
