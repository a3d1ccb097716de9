"""The campaign service: scheduler fairness, single-flight, API, client.

End-to-end tests run a real daemon (background thread + event loop,
localhost TCP with an ephemeral port — Unix-socket paths can exceed the
108-char cap under pytest tmp dirs) and talk to it with the stock
:class:`ServiceClient`, so the full wire protocol is exercised.
"""

from __future__ import annotations

import json
import socket
import threading
import time

import pytest

from repro.orchestrator.cache import ResultCache
from repro.orchestrator.campaign import Campaign
from repro.orchestrator.points import make_point
from repro.orchestrator.serialize import (
    point_to_dict,
    stats_from_payload,
)
from repro.service import FleetScheduler, ServiceClient, serve_background
from repro.service.client import ServiceError

LENGTH = 1_200


@pytest.fixture
def service(tmp_path):
    """A live daemon with a fresh cache; yields (client, scheduler)."""
    scheduler = FleetScheduler(cache=ResultCache(tmp_path / "simcache"),
                               workers=2)
    handle = serve_background(scheduler, port=0)
    try:
        yield ServiceClient(port=handle.port), scheduler
    finally:
        handle.stop()


def _matrix(apps, schemes=("ppa",)):
    return {"apps": list(apps), "schemes": list(schemes),
            "length": LENGTH}


class TestApiBasics:
    def test_health_and_status(self, service):
        client, _ = service
        health = client.healthz()
        assert health["ok"] and health["service"] == "repro.service"
        status = client.status()
        assert status["workers"] == 2
        assert status["tenants"] == []
        assert status["campaigns"] == []

    def test_unknown_campaign_is_404(self, service):
        client, _ = service
        with pytest.raises(ServiceError) as excinfo:
            client.campaign("c9999")
        assert excinfo.value.status == 404

    def test_bad_submissions_are_400(self, service):
        client, _ = service
        for body in (
            {},                                        # no tenant
            {"tenant": "a"},                           # no work
            {"tenant": "a", "sweep": "fig99"},         # unknown sweep
            {"tenant": "a", "sweep": "fig16",
             "matrix": _matrix(["rb"])},               # ambiguous
            {"tenant": "a", "sweep": "fig16", "quota": 0},
        ):
            with pytest.raises(ServiceError) as excinfo:
                client.request("POST", "/v1/campaigns", body)
            assert excinfo.value.status == 400, body

    def test_invalid_points_are_400(self, service):
        client, _ = service
        good = point_to_dict(make_point("rb", "ppa", length=LENGTH,
                                        warmup=0))
        core = {**good["config"]["core"], "lat_int_alu": -1}
        memory = {**good["config"]["memory"],
                  "nvm": {**good["config"]["memory"]["nvm"],
                          "read_latency_ns": -1}}
        for changes in ({"core": "foo"},
                        {"core": "inorder", "scheme": "replaycache"},
                        {"thread": [5, 2]},
                        {"config": {**good["config"], "core": core}},
                        {"config": {**good["config"], "memory": memory}}):
            with pytest.raises(ServiceError) as excinfo:
                client.submit("alice", points=[{**good, **changes}])
            assert excinfo.value.status == 400, changes
        assert "must be a finite latency" in str(excinfo.value)

    def test_route_miss_is_404(self, service):
        client, _ = service
        with pytest.raises(ServiceError) as excinfo:
            client.request("GET", "/v1/nothing")
        assert excinfo.value.status == 404


class TestCampaignLifecycle:
    def test_matrix_campaign_completes_bit_exact(self, service):
        client, _ = service
        job = client.submit("alice", matrix=_matrix(["gcc", "rb"]))
        assert job["state"] == "running" and job["total"] == 2
        final = client.wait(job["id"], timeout=300)
        assert final["state"] == "done"
        assert final["done"] == 2 and final["failures"] == 0
        assert final["simulated"] == 2

        # The service's payloads decode to exactly the stats a direct
        # in-process campaign produces.
        results = client.results(job["id"], include_stats=True)
        direct = Campaign(cache=None)
        direct.add_run("gcc", "ppa", length=LENGTH, warmup=40_000)
        direct.add_run("rb", "ppa", length=LENGTH, warmup=40_000)
        for index, reference in enumerate(direct.run()):
            payload = results["payloads"][str(index)]
            assert stats_from_payload(payload) == reference.stats

    def test_warm_resubmission_is_all_cache_hits(self, service):
        client, _ = service
        cold = client.wait(client.submit(
            "alice", matrix=_matrix(["rb"]))["id"], timeout=300)
        assert cold["simulated"] == 1
        warm = client.wait(client.submit(
            "bob", matrix=_matrix(["rb"]))["id"], timeout=300)
        assert warm["cache_hits"] == 1
        assert warm["simulated"] == 0 and warm["deduped"] == 0

    def test_explicit_point_submission(self, service):
        client, _ = service
        point = make_point("rb", "baseline", length=LENGTH, warmup=0)
        job = client.submit("carol", points=[point_to_dict(point)])
        final = client.wait(job["id"], timeout=300)
        assert final["state"] == "done" and final["done"] == 1

    def test_events_replay_and_terminal_event(self, service):
        client, _ = service
        job = client.submit("alice", matrix=_matrix(["rb"]))
        client.wait(job["id"], timeout=300)
        # A fresh stream on a finished campaign replays history and ends.
        events = list(client.events(job["id"]))
        kinds = [event["type"] for event in events]
        assert kinds.count("point") == 1
        assert kinds[-1] == "campaign"
        assert events[-1]["state"] == "done"

    def test_drop_forgets_finished_campaigns_only(self, service):
        client, _ = service
        job = client.submit("alice", matrix=_matrix(["rb"]))
        client.wait(job["id"], timeout=300)
        assert client.drop(job["id"])["ok"]
        with pytest.raises(ServiceError) as excinfo:
            client.campaign(job["id"])
        assert excinfo.value.status == 404

    def test_failed_point_reported_not_fatal(self, service):
        client, _ = service
        bad = point_to_dict(make_point("rb", "ppa", length=LENGTH,
                                       warmup=0))
        bad["scheme"] = "no-such-scheme"
        job = client.submit("alice", points=[bad])
        final = client.wait(job["id"], timeout=300)
        assert final["state"] == "failed"
        assert final["failures"] == 1
        outcome = client.results(job["id"])["points"][0]
        assert outcome["ok"] is False and outcome["error"]


class TestMultiTenant:
    def test_single_flight_dedup_across_tenants(self, service):
        """Two tenants submit the identical campaign concurrently: the
        shared points are simulated exactly once, the second tenant joins
        the first tenant's in-flight runs (or hits the cache), and both
        get complete results."""
        client, scheduler = service
        spec = _matrix(["gcc", "rb", "mcf"])
        job_a = client.submit("alice", matrix=spec)
        job_b = client.submit("bob", matrix=spec)
        final_a = client.wait(job_a["id"], timeout=300)
        final_b = client.wait(job_b["id"], timeout=300)

        assert final_a["done"] == final_b["done"] == 3
        assert final_a["failures"] == final_b["failures"] == 0
        metrics = client.status()["metrics"]
        assert metrics["service.simulated"]["value"] == 3.0
        total = 0
        for tenant in ("alice", "bob"):
            for source in ("simulated", "deduped", "cache_hits"):
                counter = metrics.get(f"tenant.{tenant}.{source}")
                total += counter["value"] if counter else 0.0
        assert total == 6.0
        dedup = metrics.get("service.single_flight_dedup")
        hits = scheduler.cache.counters.hits
        assert (dedup["value"] if dedup else 0.0) + hits == 3.0

    def test_round_robin_lets_small_tenant_finish_first(self, tmp_path):
        """One worker, tenant A queues 4 points, tenant B queues 1:
        round-robin dispatch means B is served second, not fifth."""
        scheduler = FleetScheduler(cache=None, workers=1)
        handle = serve_background(scheduler, port=0)
        try:
            client = ServiceClient(port=handle.port)
            job_a = client.submit("a", matrix=_matrix(
                ["gcc", "mcf", "lbm", "libquantum"]))
            job_b = client.submit("b", matrix=_matrix(["rb"]))
            client.wait(job_a["id"], timeout=600)
            final_b = client.wait(job_b["id"], timeout=600)
            final_a = client.campaign(job_a["id"])
            assert final_a["state"] == final_b["state"] == "done"
            assert final_b["finished_at"] < final_a["finished_at"], \
                "fair scheduling must not serve A's whole queue first"
        finally:
            handle.stop()

    def test_quota_caps_inflight(self, tmp_path):
        """A tenant with quota=1 on a 2-worker fleet never occupies both
        slots, and the deferral is counted."""
        scheduler = FleetScheduler(cache=None, workers=2)
        handle = serve_background(scheduler, port=0)
        try:
            client = ServiceClient(port=handle.port)
            job = client.submit("greedy", matrix=_matrix(
                ["gcc", "rb", "mcf"]), quota=1)
            client.wait(job["id"], timeout=600)
            tenant = scheduler.tenants["greedy"]
            assert tenant.quota == 1
            metrics = scheduler.metrics.to_dict()
            deferred = metrics.get("tenant.greedy.quota_deferred")
            assert deferred and deferred["value"] > 0
        finally:
            handle.stop()


def _until(predicate, timeout: float = 30.0) -> None:
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "condition never held"
        time.sleep(0.01)


class TestWriteBehind:
    """A simulated lane is staged in the cache and reported when the
    worker returns it; the disk write follows off the critical path."""

    def test_campaign_finishes_before_its_files_exist(self, tmp_path,
                                                      monkeypatch):
        cache = ResultCache(tmp_path / "simcache")
        scheduler = FleetScheduler(cache=cache, workers=1)
        release = threading.Event()
        real_flush = cache.flush

        def held_flush() -> None:
            release.wait(60)
            real_flush()

        monkeypatch.setattr(cache, "flush", held_flush)
        handle = serve_background(scheduler, port=0)
        try:
            client = ServiceClient(port=handle.port)
            cold = client.wait(client.submit(
                "alice", matrix=_matrix(["rb"]))["id"], timeout=300)
            assert cold["state"] == "done" and cold["simulated"] == 1
            assert cache.entries() == [] and cache.staged == 1

            # Another tenant, same point, while the write is held: served
            # from the staged entry, nothing simulated again.
            warm = client.wait(client.submit(
                "bob", matrix=_matrix(["rb"]))["id"], timeout=300)
            assert warm["cache_hits"] == 1
            assert warm["simulated"] == 0 and warm["deduped"] == 0
            # Read in-process: a status scan would flush the entry.
            metrics = scheduler.metrics.to_dict()
            assert metrics["service.simulated"]["value"] == 1.0
            assert cache.entries() == []

            release.set()
            _until(lambda: "service.cache_flush_seconds"
                   in scheduler.metrics.to_dict())
            assert cache.staged == 0 and len(cache.entries()) == 1
        finally:
            release.set()
            handle.stop()

    def test_failed_cache_write_still_serves_the_point(self, tmp_path,
                                                       monkeypatch):
        cache = ResultCache(tmp_path / "simcache")

        def full_disk(*args, **kwargs):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(cache, "put", full_disk)
        scheduler = FleetScheduler(cache=cache, workers=1)
        handle = serve_background(scheduler, port=0)
        try:
            client = ServiceClient(port=handle.port)
            job = client.submit("alice", matrix=_matrix(["rb"]))
            final = client.wait(job["id"], timeout=300)
            assert final["state"] == "done" and final["simulated"] == 1
            payload = client.results(job["id"], include_stats=True)[
                "payloads"]["0"]
            assert payload["cycles"] > 0
            _until(lambda: cache.staged == 0)
            # The dropped write is a miss next time: simulated again.
            again = client.wait(client.submit(
                "bob", matrix=_matrix(["rb"]))["id"], timeout=300)
            assert again["cache_hits"] == 0 and again["simulated"] == 1
            assert cache.entries() == []
        finally:
            handle.stop()

    def test_stop_flushes_every_simulated_entry(self, tmp_path,
                                                monkeypatch):
        cache = ResultCache(tmp_path / "simcache")
        # Background writes never run; only the shutdown flush writes.
        monkeypatch.setattr(cache, "flush", lambda: None)
        scheduler = FleetScheduler(cache=cache, workers=2)
        handle = serve_background(scheduler, port=0)
        try:
            client = ServiceClient(port=handle.port)
            final = client.wait(client.submit(
                "alice", matrix=_matrix(["gcc", "rb", "mcf"]))["id"],
                timeout=300)
            assert final["simulated"] == 3
            assert cache.staged == 3 and cache.entries() == []
        finally:
            monkeypatch.undo()
            handle.stop()
        assert cache.staged == 0
        assert ResultCache(cache.root).inventory()["entries"] == 3


def _free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


class TestServiceCliErrors:
    """Client commands end in one stderr line: exit 2 when the daemon
    refuses the request, 1 when it is unreachable or fails."""

    def test_refused_submission_exits_2_in_one_line(self, service,
                                                    capsys):
        from repro.service.__main__ import main

        client, _ = service
        assert main(["submit", "fig16", "--tenant", "a", "--apps",
                     "nosuchapp", "--port", str(client.port)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("submit: HTTP 400: ")
        assert "nosuchapp" in captured.err
        assert len(captured.err.strip().splitlines()) == 1

    def test_daemon_failure_exits_1_in_one_line(self, service, capsys,
                                                monkeypatch):
        from repro.service.__main__ import main

        client, scheduler = service

        def broken():
            raise RuntimeError("status exploded")

        monkeypatch.setattr(scheduler, "status", broken)
        assert main(["status", "--port", str(client.port)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("status: HTTP 500: ")
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("argv", [
        ["submit", "fig16", "--tenant", "a"],
        ["status"],
        ["shutdown"],
        ["health"],
    ])
    def test_no_daemon_exits_1_in_one_line(self, argv, capsys):
        from repro.service.__main__ import main

        assert main(argv + ["--port", str(_free_port())]) == 1
        err = capsys.readouterr().err
        assert err.startswith("unreachable: ")
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("argv,message", [
        (["serve", "--workers", "0"],
         "--workers must be at least 1 worker (got 0)"),
        (["serve", "--quota", "0"],
         "--quota must be a positive integer (got 0)"),
        (["serve", "--retries", "-1"],
         "--retries must be at least 0 (got -1)"),
        (["submit", "fig16", "--tenant", "a", "--quota", "0"],
         "--quota must be a positive integer (got 0)"),
    ])
    def test_bad_limits_refused_before_any_connection(self, argv,
                                                      message, capsys):
        from repro.service.__main__ import main

        assert main(argv + ["--port", str(_free_port())]) == 2
        captured = capsys.readouterr()
        assert captured.err.strip() == message
        assert captured.out == ""


@pytest.mark.parametrize("build,argument,value,message", [
    pytest.param(build, argument, value, message,
                 id=f"{build.__name__}-{argument}")
    for build, argument, value, message in (
        (FleetScheduler, "workers", 0,
         "workers must be at least 1 worker (got 0)"),
        (FleetScheduler, "quota", 0,
         "quota must be a positive integer (got 0)"),
        (FleetScheduler, "retries", -1, "retries must be at least 0 (got -1)"),
        (FleetScheduler, "timeout", 0, "timeout must be > 0 seconds (got 0)"),
        (Campaign, "jobs", 0, "jobs must be at least 1 job (got 0)"),
        (Campaign, "retries", -1, "retries must be at least 0 (got -1)"),
        (Campaign, "timeout", -0.5,
         "timeout must be > 0 seconds (got -0.5)"),
    )
])
def test_constructors_refuse_what_the_cli_refuses(build, argument, value,
                                                  message):
    """In-process callers get the CLI's limits as a ValueError naming the
    argument, not a silently clamped fleet or campaign."""
    with pytest.raises(ValueError) as info:
        build(cache=None, **{argument: value})
    assert str(info.value) == message


class TestServiceCliAndShutdown:
    def test_status_cli_against_live_daemon(self, service, capsys):
        from repro.service.__main__ import main

        client, _ = service
        job = client.submit("alice", matrix=_matrix(["rb"]))
        client.wait(job["id"], timeout=300)
        assert main(["status", "--port", str(client.port)]) == 0
        out = capsys.readouterr().out
        assert "tenant alice" in out
        assert job["id"] in out

        assert main(["status", "--port", str(client.port),
                     "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["campaigns"][0]["id"] == job["id"]

    def test_submit_cli_wait(self, service, capsys):
        from repro.service.__main__ import main

        client, _ = service
        code = main(["submit", "matrix", "--tenant", "cli",
                     "--apps", "rb", "--schemes", "ppa",
                     "--length", str(LENGTH), "--wait",
                     "--port", str(client.port)])
        assert code == 0
        out = capsys.readouterr().out
        assert "done" in out and "1/1" in out

    def test_shutdown_stops_the_daemon(self, tmp_path):
        scheduler = FleetScheduler(cache=None, workers=1)
        handle = serve_background(scheduler, port=0)
        client = ServiceClient(port=handle.port)
        assert client.healthz()["ok"]
        assert client.shutdown()["stopping"]
        handle._thread.join(timeout=10)
        assert not handle._thread.is_alive()
        with pytest.raises((ServiceError, OSError)):
            client.healthz()
