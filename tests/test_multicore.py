"""The multicore model: thread points, barrier alignment, contention,
makespan, and the Fig 19 grid pinned bit-exactly."""

import hashlib
import json

import pytest

import repro
from repro.experiments.figures import MULTITHREADED_APPS, fig19_runs
from repro.multicore.system import barrier_reduce, thread_points
from repro.orchestrator.points import bandwidth_share, make_point
from repro.workloads.profiles import profile_by_name

LENGTH = 2_500


def _multicore(scheme, threads, app="rb"):
    return repro.simulate(app, scheme=scheme, core="multicore",
                          threads=threads, length=LENGTH).stats


@pytest.fixture(scope="module")
def rb_baseline():
    return _multicore("baseline", 4)


class TestMakespan:
    def test_makespan_at_least_slowest_thread(self, rb_baseline):
        slowest = max(s.cycles for s in rb_baseline.per_thread)
        assert rb_baseline.makespan >= slowest

    def test_all_threads_ran_full_traces(self, rb_baseline):
        assert all(s.instructions == LENGTH
                   for s in rb_baseline.per_thread)
        assert rb_baseline.total_instructions == 4 * LENGTH

    def test_barrier_segments_counted(self, rb_baseline):
        # rb syncs every 900 instructions -> 2 syncs + final segment.
        assert rb_baseline.barrier_segments == 3

    def test_imbalance_nonnegative(self, rb_baseline):
        assert rb_baseline.imbalance_cycles >= 0.0

    def test_threads_are_named_after_their_traces(self, rb_baseline):
        assert [s.name for s in rb_baseline.per_thread] == [
            f"rb/t{tid}" for tid in range(4)]

    def test_reduction_reads_only_the_stats(self, rb_baseline):
        again = barrier_reduce(profile_by_name("rb"), "baseline", LENGTH,
                               rb_baseline.per_thread)
        assert again.to_dict() == rb_baseline.to_dict()


class TestContention:
    @staticmethod
    def _share(threads, tid=0):
        return bandwidth_share(make_point("rb", "ppa",
                                          thread=(tid, threads)))

    def test_share_is_full_at_base_threads(self):
        assert self._share(8) == self._share(8, tid=7) == 1.0
        assert bandwidth_share(make_point("rb", "ppa")) == 1.0

    def test_share_degrades_beyond_base(self):
        assert 0 < self._share(64) < self._share(16) < 1.0
        assert self._share(16) == (8 / 16) ** 0.2

    def test_zero_threads_rejected(self):
        with pytest.raises(ValueError):
            thread_points(profile_by_name("rb"), "ppa", 0)
        with pytest.raises(ValueError, match="not one of"):
            make_point("rb", "ppa", thread=(4, 4))

    def test_backend_follows_scheme(self):
        points = thread_points(profile_by_name("rb"), "dram-only", 2)
        assert {p.config.memory.backend for p in points} == {"dram-only"}


class TestPpaOnMulticore:
    def test_ppa_overhead_is_moderate(self, rb_baseline):
        ratio = _multicore("ppa", 4).makespan / rb_baseline.makespan
        assert 1.0 <= ratio < 1.5

    def test_per_thread_regions_formed(self):
        ppa = _multicore("ppa", 2)
        for stats in ppa.per_thread:
            assert stats.regions
            # sync primitives force boundaries on every core (Section 6)
            assert any(r.cause == "sync" for r in stats.regions)

    def test_nvm_writes_aggregate(self):
        ppa = _multicore("ppa", 2)
        assert ppa.nvm_line_writes == sum(
            s.nvm_line_writes for s in ppa.per_thread)


# SHA-256 of the canonical ``MulticoreStats.to_dict()`` JSON of every Fig
# 19 run at length 500 (seed 0, warm), as the per-thread scalar loop that
# preceded thread points produced them.
FIG19_LENGTH = 500
FIG19_DIGESTS = {
    "barnes:baseline:16": "aea91544ee0c76d01ffbf7653335d5aff33dec7708e44d85b40f58707addb93f",
    "barnes:baseline:32": "c29ffdfd774baa14469d0e673d455ed0f5599b1ceab94dbdde550c275316d27a",
    "barnes:baseline:64": "3737720251467b3174a7dd4e8eee3024f01c1ea51157abdf511bffd6b39d0a69",
    "barnes:baseline:8": "eda326ea01b7dd6bfde58922790d0e6cd2a05acf93acffdceba3024dae9ba8df",
    "barnes:ppa:16": "8e7f601404190be1b0b40409eda223f7a0236ab213fd68fbafcc05531d0eab7d",
    "barnes:ppa:32": "38a907698014a6293b1aa3dc49aaf58b867e6dd23008ca587241e37311393aa5",
    "barnes:ppa:64": "61b4d8ba13aa9941bce5d74e241de58dcb9191bb6ad966c54100fb8fc6a5ba49",
    "barnes:ppa:8": "4bd5001a762143a5aeedcf80938e8495c6755149ad771fc96c9f7f0533e54c7b",
    "rb:baseline:16": "5b90b42706af74fc58b6971b3ff7617eeeb115b8fce3a8af572439d823335d0d",
    "rb:baseline:32": "4e88169d3f77b7cd95fd2a240c2c07a8ef7f611408bfba84b855a6a41b26043f",
    "rb:baseline:64": "2c4f252c5b1e01c1d1a9ee41d6ffd005b9461f3ea0e4f7682691f26fd7fbc6ea",
    "rb:baseline:8": "1c640b2ac8aa9f5f99019257cbcecd11ce46f1c2dd3a99bf5cf65afa6e625ca3",
    "rb:ppa:16": "24666d3b445c3776eee42fd1df99d5a792c1fc3e4995d22bf1a2f7e75f1ca9cc",
    "rb:ppa:32": "140912a08ddf231bc9f0febb27326fab521e24d5e76b5e9fc49c0d71f62c1aba",
    "rb:ppa:64": "c015d43fe284d1b5fd9fe3886f0ea1c2317ce97418ec99de46b8c091fb84c0fc",
    "rb:ppa:8": "177f1e29eedad70b830833fc982b9730eec9b63f87b670d9e79e2d13da3b118a",
    "water-ns:baseline:16": "46e8beab801ab48a8b65eb030589eba6093319f55642831ee518faace50a1d9e",
    "water-ns:baseline:32": "d5587aea144c6667232eabc116c7c4d9b1803e5497a973f7f6e183336a1cf9ce",
    "water-ns:baseline:64": "947a2ea030196775c3f54660c10baea592551fa7677349075a6f5b73aa2e7996",
    "water-ns:baseline:8": "62e140dd3299eb810ee9b5f0e5e327c8cd2b71b86d06a7ce03279d557d00d795",
    "water-ns:ppa:16": "955a3cdfd3edf1453a7cf310afe893e19141819511bd2ee363b947d48219cff5",
    "water-ns:ppa:32": "b6e17682f96ae1020048c0629bf7924e8017c9d638206d22b049b25f794a5248",
    "water-ns:ppa:64": "4deceb2b98325458b1143a6ca823013eb77aed6b10efd7e703b9b7a950395984",
    "water-ns:ppa:8": "3a3d55eb461622d547c7d48773da2990bf821348b11d48d53c82289a5d934ffa",
}


def _digest(stats) -> str:
    text = json.dumps(stats.to_dict(), sort_keys=True,
                      separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


class TestFig19Pins:
    def test_campaign_grid_matches_pins(self):
        runs = fig19_runs(MULTITHREADED_APPS, (8, 16, 32, 64),
                          FIG19_LENGTH)
        assert {":".join(map(str, key)): _digest(stats)
                for key, stats in runs.items()} == FIG19_DIGESTS

    @pytest.mark.parametrize("engine", ["scalar", "batched"])
    def test_facade_matches_pin(self, engine):
        stats = repro.simulate("rb", scheme="ppa", core="multicore",
                               threads=16, length=FIG19_LENGTH,
                               warmup=40_000, engine=engine).stats
        assert _digest(stats) == FIG19_DIGESTS["rb:ppa:16"]
