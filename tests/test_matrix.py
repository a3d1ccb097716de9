"""Whole-matrix smoke coverage: every workload and every scheme runs,
and every workload survives a crash under PPA."""

import pytest

from repro.core.processor import PersistentProcessor
from repro.experiments.runner import run_points
from repro.failure.consistency import verify_recovery
from repro.orchestrator.points import make_point
from repro.persistence.catalog import scheme_names
from repro.workloads.profiles import ALL_PROFILES
from repro.workloads.synthetic import generate_trace

LENGTH = 900


@pytest.mark.parametrize("profile", ALL_PROFILES,
                         ids=[p.name for p in ALL_PROFILES])
def test_every_workload_recovers_under_ppa(profile):
    """Run, crash mid-way, recover, verify — for all 41 applications."""
    processor = PersistentProcessor()
    trace = generate_trace(profile, length=LENGTH)
    stats = processor.run(trace)
    crash = processor.crash_at(stats.cycles * 0.5)
    result = processor.recover(crash)
    report = verify_recovery(stats, result.nvm_image,
                             crash.last_committed_seq)
    assert report.consistent, (profile.name, report.mismatches)


@pytest.mark.parametrize("scheme", sorted(scheme_names()))
@pytest.mark.parametrize("app", ["gcc", "lbm", "rb"])
def test_every_scheme_runs_every_kind_of_app(scheme, app):
    """Each persistence scheme simulates cleanly on compute-bound,
    streaming, and store-locality-heavy workloads."""
    stats = run_points([make_point(app, scheme, length=LENGTH)])[0]
    assert stats.instructions == LENGTH
    assert stats.cycles > 0
    # Schemes that track durability mark every store.
    if scheme in ("ppa", "capri", "replaycache", "sb-gate",
                  "psp-undolog", "psp-redolog"):
        assert all(s.durable_at < float("inf") for s in stats.stores)


@pytest.mark.parametrize("scheme", ["ppa", "capri", "replaycache"])
def test_region_schemes_partition_every_trace(scheme):
    stats = run_points([make_point("water-ns", scheme,
                                   length=LENGTH)])[0]
    assert stats.regions
    assert stats.regions[0].start_seq == 0
    assert stats.regions[-1].end_seq == LENGTH
    for previous, following in zip(stats.regions, stats.regions[1:]):
        assert following.start_seq == previous.end_seq
