"""Software PSP logging policies (Section 2.2's argument, quantified)."""

import pytest

from repro.experiments.runner import run_points
from repro.orchestrator.points import make_point
from repro.persistence.catalog import make_policy, scheme_backend
from repro.persistence.swlog import RedoLogPolicy, UndoLogPolicy

LENGTH = 4_000


def _stats(app, scheme, **kwargs):
    """Stats of one point, run through the experiments' campaign path."""
    return run_points([make_point(app, scheme, **kwargs)])[0]


class TestCatalogIntegration:
    def test_schemes_registered(self):
        assert isinstance(make_policy("psp-undolog"), UndoLogPolicy)
        assert isinstance(make_policy("psp-redolog"), RedoLogPolicy)

    def test_psp_runs_app_direct(self):
        assert scheme_backend("psp-undolog") == "pmem-app-direct"
        assert scheme_backend("psp-redolog") == "pmem-app-direct"

    def test_invalid_transaction_size_rejected(self):
        with pytest.raises(ValueError):
            UndoLogPolicy(transaction_stores=0)


class TestBehaviour:
    def test_undo_log_slower_than_ideal_psp(self):
        base, ideal, undo = run_points([
            make_point("rb", scheme, length=LENGTH)
            for scheme in ("baseline", "eadr", "psp-undolog")])
        assert undo.cycles > ideal.cycles > base.cycles

    def test_redo_log_slower_than_ideal_psp(self):
        ideal = _stats("rb", "eadr", length=LENGTH)
        redo = _stats("rb", "psp-redolog", length=LENGTH)
        assert redo.cycles > ideal.cycles

    def test_ppa_beats_all_psp_variants(self):
        ppa = _stats("rb", "ppa", length=LENGTH)
        for scheme in ("eadr", "psp-undolog", "psp-redolog"):
            assert ppa.cycles < _stats("rb", scheme, length=LENGTH).cycles

    def test_log_writes_at_least_double_store_traffic(self):
        undo = _stats("rb", "psp-undolog", length=LENGTH)
        # Undo logging: one log entry plus one data flush per store.
        assert undo.extra["log_writes"] >= 2 * len(undo.stores)

    def test_transactions_form_regions(self):
        undo = _stats("rb", "psp-undolog", length=LENGTH)
        assert undo.regions
        txn_stores = [r.store_count for r in undo.regions[:-1]]
        if txn_stores:
            assert max(txn_stores) <= UndoLogPolicy().transaction_stores

    def test_stores_marked_durable(self):
        undo = _stats("rb", "psp-undolog", length=LENGTH)
        assert all(s.durable_at < float("inf") for s in undo.stores)

    def test_larger_transactions_amortize_barriers(self):
        from repro.config import skylake_default
        from repro.memory.hierarchy import MemorySystem
        from repro.pipeline.core import OoOCore
        from repro.workloads.profiles import profile_by_name
        from repro.workloads.synthetic import TraceGenerator
        import dataclasses

        config = skylake_default()
        config = dataclasses.replace(config, memory=dataclasses.replace(
            config.memory, backend="pmem-app-direct"))

        def run(txn):
            generator = TraceGenerator(profile_by_name("rb"), seed=0)
            memory = MemorySystem(config.memory)
            memory.prewarm_extents(generator.region_extents())
            trace = generator.generate(LENGTH)
            core = OoOCore(config, UndoLogPolicy(transaction_stores=txn),
                           memory=memory, track_values=False)
            return core.run(trace).cycles

        assert run(32) <= run(2)
