"""Concurrent multi-process access to one shared ``.simcache``.

The campaign service fronts the cache for many tenants at once, and
independent CLI campaigns may share a cache directory with a running
daemon — so put/get/gc/inventory must tolerate each other from separate
processes: no lost entries, no crashes on vanishing files, no
double-counted maintenance.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import threading
import time

import pytest

from repro.orchestrator.cache import ResultCache, code_salt

DIGESTS = [f"{i:02x}" + f"{i:064x}"[-62:] for i in range(40)]


def _payload(i: int) -> dict:
    return {"stats": {"i": i}, "wall_clock": 0.01, "cycles": 100.0 + i,
            "instructions": 10 + i}


# ---------------------------------------------------------------------------
# Worker entry points (module level: must pickle for multiprocessing)
# ---------------------------------------------------------------------------

def _writer(root: str, items: list[tuple[int, str]], rounds: int) -> None:
    cache = ResultCache(root)
    for _ in range(rounds):
        for i, digest in items:
            cache.put(digest, _payload(i))


def _reader(root: str, items: list[tuple[int, str]], rounds: int) -> None:
    cache = ResultCache(root)
    for _ in range(rounds):
        for i, digest in items:
            payload = cache.get(digest)
            # A miss (not yet written / just gc'd) is fine; a present
            # payload must never be partial or corrupt.
            if payload is not None:
                assert payload["instructions"] == 10 + i


def _sweeper(root: str, rounds: int) -> None:
    cache = ResultCache(root)
    for _ in range(rounds):
        cache.gc(tmp_max_age=0.0)
        cache.inventory()
        time.sleep(0.001)


class TestConcurrentAccess:
    def test_parallel_put_get_gc_inventory(self, tmp_path):
        """Writers, readers, and maintenance sweepers hammer one cache
        directory; nobody crashes and every entry survives (all workers
        write under the current salt, so gc must not remove anything)."""
        root = str(tmp_path / "shared-simcache")
        items = list(enumerate(DIGESTS))
        half = len(items) // 2
        processes = [
            multiprocessing.Process(
                target=_writer, args=(root, items[:half], 8)),
            multiprocessing.Process(
                target=_writer, args=(root, items[half:], 8)),
            multiprocessing.Process(
                target=_writer, args=(root, items, 4)),  # overlapping
            multiprocessing.Process(
                target=_reader, args=(root, items, 12)),
            multiprocessing.Process(target=_sweeper, args=(root, 20)),
        ]
        for process in processes:
            process.start()
        for process in processes:
            process.join(timeout=120)
            assert process.exitcode == 0, \
                f"{process} crashed under concurrency"

        cache = ResultCache(root)
        for i, digest in enumerate(DIGESTS):
            assert cache.get(digest) == _payload(i)
        info = cache.inventory()
        assert info["entries"] == len(DIGESTS)
        assert info["tmp_orphans"] == 0

    def test_concurrent_gc_is_serialized_not_crashing(self, tmp_path):
        root = str(tmp_path / "gc-simcache")
        _writer(root, list(enumerate(DIGESTS)), 1)
        sweepers = [multiprocessing.Process(target=_sweeper,
                                            args=(root, 10))
                    for _ in range(3)]
        for process in sweepers:
            process.start()
        for process in sweepers:
            process.join(timeout=60)
            assert process.exitcode == 0
        assert ResultCache(root).inventory()["entries"] == len(DIGESTS)


class TestTmpOrphans:
    """A writer killed between mkstemp and os.replace leaves ``*.tmp``
    litter that previously no maintenance path ever saw."""

    def test_gc_reaps_stale_tmp_and_inventory_reports_them(self, tmp_path):
        cache = ResultCache(tmp_path / "simcache")
        cache.put(DIGESTS[0], _payload(0))
        shard = cache._path(DIGESTS[0]).parent
        stale = shard / "tmpdead1234.tmp"
        stale.write_text("{half-written")
        os.utime(stale, (time.time() - 7200, time.time() - 7200))
        fresh = shard / "tmplive5678.tmp"
        fresh.write_text("{in-progress")

        info = cache.inventory()
        assert info["tmp_orphans"] == 2
        assert info["tmp_bytes"] > 0
        assert info["entries"] == 1        # tmp litter is not an entry

        # Default-age gc reaps only the stale orphan; the fresh one may
        # belong to a live writer mid-put.
        assert cache.gc() == 1
        assert not stale.exists()
        assert fresh.exists()

        # Aggressive age reaps the rest.
        assert cache.gc(tmp_max_age=0.0) == 1
        assert not fresh.exists()
        assert cache.inventory()["tmp_orphans"] == 0
        assert cache.get(DIGESTS[0]) == _payload(0)


class TestVanishingEntries:
    """Another process's gc/evict may remove files mid-scan; inventory
    and gc must skip them, not raise FileNotFoundError."""

    def test_inventory_skips_entries_vanishing_mid_scan(self, tmp_path,
                                                        monkeypatch):
        cache = ResultCache(tmp_path / "simcache")
        for digest in DIGESTS[:4]:
            cache.put(digest, _payload(0))
        ghost = cache._path("ff" + "0" * 62)
        real = cache.entries()
        monkeypatch.setattr(ResultCache, "entries",
                            lambda self: real + [ghost])
        info = cache.inventory()            # must not raise
        assert info["entries"] == 4

    def test_gc_skips_entries_vanishing_mid_scan(self, tmp_path,
                                                 monkeypatch):
        cache = ResultCache(tmp_path / "simcache")
        cache.put(DIGESTS[0], _payload(0))
        ghost = cache._path("ff" + "0" * 62)
        real = cache.entries()
        monkeypatch.setattr(ResultCache, "entries",
                            lambda self: real + [ghost])
        assert cache.gc(all_entries=True) == 1


class TestIntegrity:
    def test_get_rejects_digest_filename_mismatch(self, tmp_path):
        """An entry renamed (or corrupted) to the wrong address must not
        be served as the renamed point's result."""
        cache = ResultCache(tmp_path / "simcache")
        cache.put(DIGESTS[0], _payload(0))
        wrong = cache._path(DIGESTS[1])
        wrong.parent.mkdir(parents=True, exist_ok=True)
        cache._path(DIGESTS[0]).rename(wrong)
        assert cache.get(DIGESTS[1]) is None
        assert not wrong.exists()
        assert cache.counters.misses == 1

    def test_put_get_roundtrip_still_exact(self, tmp_path):
        cache = ResultCache(tmp_path / "simcache")
        cache.put(DIGESTS[2], _payload(2), meta={"point": "x"})
        assert cache.get(DIGESTS[2]) == _payload(2)
        entry = json.loads(cache._path(DIGESTS[2]).read_text())
        assert entry["digest"] == DIGESTS[2]
        assert entry["salt"] == code_salt()


class TestWriteBehind:
    """``stage`` serves an entry from memory at once; ``flush`` writes it
    through the atomic ``put`` later and forgets it."""

    def test_staged_entry_is_a_hit_until_flushed_to_disk(self, tmp_path):
        cache = ResultCache(tmp_path / "simcache")
        cache.stage(DIGESTS[0], _payload(0), {"point": "x"})
        assert cache.staged == 1
        assert cache.contains(DIGESTS[0])
        assert not cache._path(DIGESTS[0]).exists()
        assert cache.get(DIGESTS[0]) == _payload(0)
        assert (cache.counters.hits, cache.counters.misses) == (1, 0)
        # Another process's view of the directory: not there yet.
        assert ResultCache(cache.root).get(DIGESTS[0]) is None

        cache.flush()
        assert cache.staged == 0
        entry = json.loads(cache._path(DIGESTS[0]).read_text())
        assert entry["meta"] == {"point": "x"}
        assert ResultCache(cache.root).get(DIGESTS[0]) == _payload(0)
        assert cache.get(DIGESTS[0]) == _payload(0)
        assert cache.counters.hits == 2

    def test_failed_write_is_dropped_not_retried(self, tmp_path,
                                                 monkeypatch):
        cache = ResultCache(tmp_path / "simcache")

        def full_disk(*args, **kwargs):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(cache, "put", full_disk)
        cache.stage(DIGESTS[0], _payload(0))
        assert cache.get(DIGESTS[0]) == _payload(0)
        cache.flush()                       # must not raise
        assert cache.staged == 0
        assert not cache.contains(DIGESTS[0])
        assert cache.get(DIGESTS[0]) is None
        assert (cache.counters.hits, cache.counters.misses) == (1, 1)

    def test_concurrent_flushes_leave_one_valid_file_per_digest(
            self, tmp_path):
        cache = ResultCache(tmp_path / "simcache")
        for i, digest in enumerate(DIGESTS):
            cache.stage(digest, _payload(i))
        start = threading.Barrier(2)

        def flush() -> None:
            start.wait()
            cache.flush()

        threads = [threading.Thread(target=flush) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert cache.staged == 0
        assert len(cache.entries()) == len(DIGESTS)
        assert cache.tmp_orphans() == []
        for i, digest in enumerate(DIGESTS):
            assert ResultCache(cache.root).get(digest) == _payload(i)


class TestShardEviction:
    def test_evict_drops_oldest_shards_to_budget(self, tmp_path):
        cache = ResultCache(tmp_path / "simcache")
        old = ["aa" + "0" * 62, "aa" + "1" * 61 + "0"]
        new = ["bb" + "0" * 62]
        for digest in old:
            cache.put(digest, _payload(1))
        past = time.time() - 1000
        for digest in old:
            os.utime(cache._path(digest), (past, past))
        for digest in new:
            cache.put(digest, _payload(2))

        total = cache.inventory()["bytes"]
        keep = cache._path(new[0]).stat().st_size
        report = cache.evict(max_bytes=keep)
        assert report["evicted_shards"] == 1
        assert report["removed_entries"] == 2
        assert report["bytes"] <= keep
        assert cache.get(new[0]) == _payload(2)
        assert all(cache.get(d) is None for d in old)
        assert total > keep                 # the eviction did something

    def test_evict_noop_within_budget_and_removes_corrupt(self, tmp_path):
        cache = ResultCache(tmp_path / "simcache")
        cache.put(DIGESTS[0], _payload(0))
        bad = cache._path(DIGESTS[1])
        bad.parent.mkdir(parents=True, exist_ok=True)
        bad.write_text("{never valid")
        report = cache.evict(max_bytes=1 << 30)
        assert report["evicted_shards"] == 0
        assert report["corrupt_removed"] == 1
        assert not bad.exists()
        assert cache.get(DIGESTS[0]) == _payload(0)


@pytest.mark.parametrize("all_entries", [False, True])
def test_gc_under_lock_leaves_lock_file(tmp_path, all_entries):
    cache = ResultCache(tmp_path / "simcache")
    cache.put(DIGESTS[0], _payload(0))
    cache.gc(all_entries=all_entries)
    assert (cache.root / ".lock").exists()
