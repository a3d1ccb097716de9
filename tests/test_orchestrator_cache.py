"""Content-addressed disk cache: keys, storage, inventory, gc."""

import dataclasses
import json
import zlib
from array import array

import pytest

from repro.config import skylake_default
from repro.orchestrator.cache import (
    ResultCache,
    code_salt,
    point_digest,
    read_entry,
)
from repro.orchestrator.points import make_point
from repro.orchestrator.serialize import compact_json, payload_from_run
from repro.pipeline.stats import CoreStats
from repro.workloads.profiles import profile_by_name


@pytest.fixture
def cache(tmp_path):
    return ResultCache(tmp_path / "simcache")


class TestPointDigest:
    def test_stable_across_calls(self):
        a = make_point("gcc", "ppa", length=1000)
        b = make_point("gcc", "ppa", length=1000)
        assert point_digest(a) == point_digest(b)

    def test_every_run_parameter_is_keyed(self):
        base = dict(length=1000, warmup=500, seed=0, track_values=False)
        reference = point_digest(make_point("gcc", "ppa", **base))
        for change in (dict(length=1001), dict(warmup=501), dict(seed=1),
                       dict(track_values=True)):
            digest = point_digest(make_point("gcc", "ppa",
                                             **{**base, **change}))
            assert digest != reference, change

    def test_scheme_config_and_profile_are_keyed(self):
        reference = point_digest(make_point("gcc", "ppa", length=1000))
        assert point_digest(make_point("gcc", "capri", length=1000)) \
            != reference
        assert point_digest(make_point("mcf", "ppa", length=1000)) \
            != reference
        config = skylake_default().with_csq(10)
        assert point_digest(make_point("gcc", "ppa", config=config,
                                       length=1000)) != reference

    def test_modified_profile_with_stock_name_gets_own_key(self):
        stock = make_point("gcc", "ppa", length=1000)
        tweaked_profile = dataclasses.replace(profile_by_name("gcc"),
                                              store_frac=0.5)
        tweaked = make_point(tweaked_profile, "ppa", length=1000)
        assert point_digest(stock) != point_digest(tweaked)

    def test_salt_changes_key(self):
        point = make_point("gcc", "ppa", length=1000)
        assert point_digest(point, salt="a") != point_digest(point, salt="b")


class TestResultCache:
    def test_miss_then_hit(self, cache):
        assert cache.get("ab" + "0" * 62) is None
        cache.put("ab" + "0" * 62, {"stats": 1})
        assert cache.get("ab" + "0" * 62) == {"stats": 1}
        assert cache.counters.hits == 1
        assert cache.counters.misses == 1

    def test_corrupt_entry_is_a_miss_and_removed(self, cache):
        digest = "cd" + "0" * 62
        cache.put(digest, {"x": 1})
        path = cache._path(digest)
        path.write_text("{not json")
        assert cache.get(digest) is None
        assert not path.exists()

    @pytest.mark.parametrize("data", [b"[]", b"\xff\xfe"])
    def test_non_object_or_non_utf8_entry_is_a_miss(self, cache, data):
        digest = "ce" + "0" * 62
        cache.put(digest, {"x": 1})
        path = cache._path(digest)
        path.write_bytes(data)
        assert cache.get(digest) is None
        assert not path.exists()

    def test_inventory_and_gc(self, cache):
        cache.put("aa" + "0" * 62, {"x": 1})
        cache.put("bb" + "0" * 62, {"x": 2})
        info = cache.inventory()
        assert info["entries"] == 2
        assert info["bytes"] > 0
        assert info["salts"] == {code_salt(): 2}

        # Rewrite one entry under a stale salt; gc reclaims only that one.
        path = cache._path("aa" + "0" * 62)
        entry = json.loads(path.read_text())
        entry["salt"] = "stale-salt"
        path.write_text(json.dumps(entry))
        assert cache.gc() == 1
        assert cache.get("bb" + "0" * 62) == {"x": 2}

        assert cache.gc(all_entries=True) == 1
        assert cache.inventory()["entries"] == 0

    def test_empty_cache_inventory(self, cache):
        info = cache.inventory()
        assert info["entries"] == 0
        assert cache.gc() == 0


def _stats_payload(cycles: float = 62965.0):
    """A packed payload whose stats tree holds ``cycles``."""
    stats = CoreStats(name="x", scheme="ppa", instructions=100,
                      cycles=cycles,
                      commit_times=array("d", [0.5, 1.5] * 16))
    return payload_from_run(stats, None, 0.1)


def _reject(constant):
    raise ValueError(f"not strict JSON: {constant}")


class TestChecksummedEntries:
    """An entry's header line carries the length and CRC-32 of its body
    lines (payload, stats tree, column block): any edit to a stored
    payload is a miss, never a hit with wrong numbers."""

    DIGEST = "ee" + "0" * 62

    def test_entry_is_one_json_object_on_five_lines(self, cache):
        payload = _stats_payload()
        cache.put(self.DIGEST, payload, meta={"point": "x"})
        path = cache._path(self.DIGEST)
        data = path.read_bytes()
        head, line, tree, block, end, rest = data.split(b"\n")
        header, read = read_entry(path, self.DIGEST)
        assert read == payload
        assert header["bytes"] == len(line) + len(tree) + len(block) + 2
        assert header["meta"] == {"point": "x"}
        assert (tree[:9], block[:6], end, rest) == \
            (b',"tree":{', b',"z":"', b"}", b"")
        assert read_entry(path, header_only=True) == (header, None)
        # The whole file is one strict JSON object: the header's fields,
        # the payload (its stats on their own lines), the tree, the block.
        entry = json.loads(data, parse_constant=_reject)
        assert {key: entry.pop(key) for key in header} == header
        assert entry == {"payload": {**payload, "stats": None},
                         "tree": json.loads(payload["stats"]["tree"]),
                         "z": payload["stats"]["@z"]}

    def test_unpacked_stats_stay_on_the_payload_line(self, cache):
        cache.put(self.DIGEST, {"stats": {"tree": 1}, "x": "\n"})
        path = cache._path(self.DIGEST)
        assert read_entry(path)[1] == {"stats": {"tree": 1}, "x": "\n"}
        entry = json.loads(path.read_bytes())
        assert (entry["tree"], entry["z"]) == (None, None)

    def test_edited_stats_digit_is_a_miss_and_removed(self, cache,
                                                      edit_stats_cycles):
        cache.put(self.DIGEST, _stats_payload())
        path = cache._path(self.DIGEST)
        assert edit_stats_cycles(path) == (62965, 62966)
        assert cache.get(self.DIGEST) is None
        assert not path.exists()
        assert (cache.counters.hits, cache.counters.misses) == (0, 1)

    @pytest.mark.parametrize("where", ["first", "middle", "last", "bytes",
                                       "truncated"])
    def test_any_damaged_payload_is_a_miss(self, cache, where):
        cache.put(self.DIGEST, _stats_payload())
        path = cache._path(self.DIGEST)
        data = bytearray(path.read_bytes())
        start = data.index(b"\n") + 1
        stop = data.rindex(b"\n}")
        if where == "bytes":
            data = data.replace(b'"bytes":', b'"bytes":1', 1)
        elif where == "truncated":
            data = data[:stop]
        else:
            at = {"first": start, "middle": (start + stop) // 2,
                  "last": stop - 1}[where]
            data[at] ^= 1
        path.write_bytes(bytes(data))
        assert cache.get(self.DIGEST) is None
        assert not path.exists()

    @pytest.mark.parametrize("where", ["tree", "block", "payload",
                                       "truncated"])
    def test_damaged_line_is_a_miss_and_corrupt_to_evict(self, cache,
                                                          where):
        """One edited digit in the tree, one flipped base64 character in
        the block, an edit to the payload line, or a truncated file."""
        other = "ef" + "0" * 62
        for digest in (self.DIGEST, other):
            cache.put(digest, _stats_payload())
        path = cache._path(self.DIGEST)
        data = path.read_bytes()
        _, _, tree, block, _ = data.split(b"\n", 4)
        pristine = data
        if where == "tree":
            at = data.index(b'"cycles":6', data.index(tree)) + 9
            data = data[:at] + b"7" + data[at + 1:]
        elif where == "block":
            at = data.index(block) + len(block) // 2
            data = data[:at] + (b"B" if data[at:at + 1] == b"A" else b"A") \
                + data[at + 1:]
        elif where == "payload":
            data = data.replace(b'"cycles":62965.0', b'"cycles":62966.0', 1)
        else:
            data = data[:data.index(block)]
        assert data != pristine
        path.write_bytes(data)
        assert cache.get(self.DIGEST) is None
        assert not path.exists()
        path.write_bytes(data)
        report = cache.evict(max_bytes=10 ** 9)
        assert (report["corrupt_removed"], report["removed_entries"]) \
            == (1, 0)
        assert not path.exists()
        assert cache.get(other) == _stats_payload()

    def test_layout_2_entry_is_a_miss_and_gc_reclaims_it(self, cache):
        """The layout before the tree and block had lines of their own:
        the header line, the whole payload on one line, then ``}``."""
        payload = _stats_payload()
        body = compact_json(payload).encode()
        header = compact_json({
            "digest": self.DIGEST, "salt": code_salt(), "schema": 2,
            "meta": {}, "bytes": len(body), "crc32": zlib.crc32(body),
        }).encode()
        data = header[:-1] + b',"payload":\n' + body + b"\n}\n"
        assert json.loads(data)["payload"] == payload
        path = cache._path(self.DIGEST)
        path.parent.mkdir(parents=True)
        path.write_bytes(data)
        assert cache.get(self.DIGEST) is None
        assert not path.exists()
        path.write_bytes(data)
        assert cache.gc() == 1
        assert cache.entries() == []

    def test_evict_removes_an_edited_entry_as_corrupt(self, cache,
                                                      edit_stats_cycles):
        cache.put(self.DIGEST, _stats_payload())
        cache.put("ef" + "0" * 62, _stats_payload())
        edit_stats_cycles(cache._path(self.DIGEST))
        report = cache.evict(max_bytes=10 ** 9)
        assert report["corrupt_removed"] == 1
        assert report["removed_entries"] == 0
        assert cache.get("ef" + "0" * 62) == _stats_payload()

    def test_gc_reads_only_the_header_line(self, cache, edit_stats_cycles):
        """A damaged payload under the current salt is left to ``get``
        and ``evict``; ``gc`` decides by salt alone."""
        cache.put(self.DIGEST, _stats_payload())
        edit_stats_cycles(cache._path(self.DIGEST))
        assert cache.gc() == 0
        assert cache.gc(all_entries=True) == 1
