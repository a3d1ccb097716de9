"""Region-distribution analysis helpers and the sb-gate comparator."""

import pytest

from repro.analysis.regions import (
    RegionLengthStats,
    boundary_interval_cycles,
    region_length_stats,
)
from repro.experiments.runner import run_points
from repro.orchestrator.points import make_point
from repro.pipeline.stats import RegionRecord


def _stats(app, scheme, **kwargs):
    """Stats of one point, run through the experiments' campaign path."""
    return run_points([make_point(app, scheme, **kwargs)])[0]


def region(start, end, stores=2, cause="prf", region_id=0) -> RegionRecord:
    return RegionRecord(region_id=region_id, start_seq=start, end_seq=end,
                        store_count=stores, boundary_time=float(end),
                        drain_wait=0.0, cause=cause)


class TestRegionLengthStats:
    def test_empty(self):
        stats = region_length_stats([])
        assert stats.count == 0
        assert stats.mean_instrs == 0.0

    def test_basic_distribution(self):
        regions = [region(0, 100), region(100, 300), region(300, 340)]
        stats = region_length_stats(regions)
        assert stats.count == 3
        assert stats.mean_instrs == pytest.approx((100 + 200 + 40) / 3)
        assert stats.min_instrs == 40
        assert stats.max_instrs == 200
        assert stats.p50_instrs == 100.0

    def test_cause_counts(self):
        regions = [region(0, 10, cause="prf"),
                   region(10, 20, cause="csq"),
                   region(20, 30, cause="csq")]
        assert region_length_stats(regions).causes == {"prf": 1, "csq": 2}

    def test_store_fraction(self):
        stats = region_length_stats([region(0, 100, stores=10)])
        assert stats.store_fraction == pytest.approx(0.1)

    def test_on_a_real_run(self):
        run = _stats("gcc", "ppa", length=4_000)
        stats = region_length_stats(run.regions)
        assert stats.count == len(run.regions)
        assert stats.min_instrs <= stats.p50_instrs <= stats.max_instrs
        assert stats.mean_instrs == pytest.approx(run.mean_region_instrs)

    def test_boundary_interval(self):
        run = _stats("gcc", "ppa", length=4_000)
        interval = boundary_interval_cycles(run)
        assert interval == pytest.approx(run.cycles / len(run.regions))


class TestSbGateScheme:
    def test_registered(self):
        from repro.persistence.catalog import make_policy, scheme_backend
        from repro.persistence.sbgate import SbGatePolicy
        assert isinstance(make_policy("sb-gate"), SbGatePolicy)
        assert scheme_backend("sb-gate") == "pmem-memory-mode"

    def test_much_slower_than_ppa(self):
        base, gate, ppa = run_points([
            make_point("rb", scheme, length=4_000)
            for scheme in ("baseline", "sb-gate", "ppa")])
        assert gate.cycles > 1.5 * ppa.cycles
        assert gate.cycles > base.cycles

    def test_sq_pressure_is_the_mechanism(self):
        """The slowdown comes from SQ occupancy, not region stalls."""
        from repro.config import skylake_default
        from repro.memory.hierarchy import MemorySystem
        from repro.persistence.sbgate import SbGatePolicy
        from repro.pipeline.core import OoOCore
        from repro.workloads.profiles import profile_by_name
        from repro.workloads.synthetic import TraceGenerator

        generator = TraceGenerator(profile_by_name("rb"), seed=0)
        memory = MemorySystem(skylake_default().memory)
        memory.prewarm_extents(generator.region_extents())
        trace = generator.generate(4_000)
        core = OoOCore(skylake_default(), SbGatePolicy(), memory=memory,
                       track_values=False)
        core.run(trace)
        assert core.sq.full_stall_cycles > 0

    def test_stores_durable_in_program_order(self):
        gate = _stats("rb", "sb-gate", length=4_000)
        durables = [s.durable_at for s in gate.stores]
        assert all(b >= a for a, b in zip(durables, durables[1:]))
