"""The campaign service: scheduler fairness, single-flight, API, client.

End-to-end tests run a real daemon (background thread + event loop,
localhost TCP with an ephemeral port — Unix-socket paths can exceed the
108-char cap under pytest tmp dirs) and talk to it with the stock
:class:`ServiceClient`, so the full wire protocol is exercised.
"""

from __future__ import annotations

import json

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
