"""JSON round-tripping of stats, persist logs, configs, and profiles."""

import base64
import functools
import json
import zlib
from array import array

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.config import skylake_default
from repro.orchestrator.execute import simulate_point
from repro.orchestrator.points import make_point
from repro.orchestrator.serialize import (
    PACK_MIN_LENGTH,
    config_from_dict,
    config_to_dict,
    pack_envelope,
    payload_from_run,
    persist_log_from_payload,
    persist_log_from_list,
    persist_log_to_list,
    profile_from_dict,
    profile_to_dict,
    stats_from_payload,
    unpack_envelope,
    unpacked_payload,
)
from repro.pipeline.stats import (
    Columns,
    CoreStats,
    RegionLog,
    RegionRecord,
    StoreLog,
    StoreRecord,
    decode_float,
    encode_float,
)
from repro.statsbase import stats_from_dict, stats_to_dict
from repro.workloads.profiles import profile_by_name


def _json_round_trip(data):
    """Strict JSON: rejects bare inf/nan, so encoding must be explicit."""
    return json.loads(json.dumps(data, allow_nan=False))


def _tree(packed):
    """A packed envelope's small-value tree, which it carries as one JSON
    string."""
    return json.loads(packed["tree"])


def _rows_tree(envelope, *logs):
    """``envelope`` with each named log's rows transposed into an
    ``{"@rows": [column, ...]}`` node, as schemas 6 to 8 stored a long
    row table (here with plain-list columns)."""
    data = dict(envelope["data"])
    for name in logs:
        data[name] = {"@rows": [list(column)
                                for column in zip(*data[name])]}
    return {**envelope, "data": data}


class TestFloatEncoding:
    def test_non_finite_floats(self):
        for value in (float("inf"), float("-inf")):
            assert decode_float(encode_float(value)) == value
        nan = decode_float(encode_float(float("nan")))
        assert nan != nan

    def test_finite_floats_pass_through(self):
        assert encode_float(1.25) == 1.25
        assert encode_float(0.1) == 0.1


class TestRecordRoundTrip:
    """A record survives its log's rows, strict JSON and ``from_json``."""

    @staticmethod
    def _round_trip(log_kind, record):
        rows = _json_round_trip(log_kind.of([record]).rows())
        [restored] = log_kind.from_json(rows)
        return restored

    def test_store_record(self):
        record = StoreRecord(seq=7, pc=28, addr=1000, line_addr=960,
                             value=123, data_preg=5, data_cls=1,
                             commit_time=17.5, region_id=2)
        assert record.durable_at == float("inf")
        assert self._round_trip(StoreLog, record) == record

    def test_store_record_with_finite_durability(self):
        record = StoreRecord(seq=0, pc=0, addr=0, line_addr=0, value=0,
                             data_preg=0, data_cls=0, commit_time=1.0,
                             region_id=0, durable_at=42.125)
        assert self._round_trip(StoreLog, record) == record

    def test_store_record_with_negative_zero_durability(self):
        record = StoreRecord(seq=1, pc=4, addr=8, line_addr=0, value=2,
                             data_preg=3, data_cls=0, commit_time=0.5,
                             region_id=0, durable_at=-0.0)
        restored = self._round_trip(StoreLog, record)
        assert restored == record
        assert str(restored.durable_at) == "-0.0"

    def test_region_record(self):
        record = RegionRecord(region_id=3, start_seq=10, end_seq=40,
                              store_count=4, boundary_time=99.5,
                              drain_wait=3.25, cause="csq")
        assert self._round_trip(RegionLog, record) == record


class TestStatsRoundTrip:
    def test_simulated_stats_round_trip_bit_exact(self):
        """Every field the figures and the failure injector consume must
        survive serialize -> strict JSON -> deserialize unchanged."""
        point = make_point("gcc", "ppa", length=2_000, warmup=0,
                           track_values=True, capture_persist_log=True)
        stats, log = simulate_point(point)
        assert stats.stores and stats.regions and stats.commit_times

        restored = CoreStats.from_dict(_json_round_trip(stats.to_dict()))
        # Dataclass equality covers every field, including the store and
        # region logs, both Counter histograms, and `extra`.
        assert restored == stats
        assert restored.ipc == stats.ipc
        assert restored.free_reg_cdf() == stats.free_reg_cdf()
        assert restored.region_end_stall_cycles \
            == stats.region_end_stall_cycles

        restored_log = persist_log_from_list(
            _json_round_trip(persist_log_to_list(log)))
        assert restored_log == log

    def test_payload_round_trip(self):
        point = make_point("rb", "ppa", length=1_500, warmup=0,
                           track_values=True, capture_persist_log=True)
        stats, log = simulate_point(point)
        payload = _json_round_trip(payload_from_run(stats, log, 1.5))
        assert stats_from_payload(payload) == stats
        assert persist_log_from_payload(payload) == log
        assert payload["wall_clock"] == 1.5
        # v4: simulated volume lifted to the top level, so cache
        # inventory and status can sum without decoding stats.
        assert payload["cycles"] == stats.cycles
        assert payload["instructions"] == stats.instructions

    def test_payload_volume_for_multicore_stats(self):
        from repro.multicore.system import MulticoreStats
        from repro.statsbase import sim_volume

        stats = MulticoreStats(
            scheme="ppa", threads=2, makespan=123.5,
            per_thread=[CoreStats(name="t0", scheme="ppa",
                                  instructions=40),
                        CoreStats(name="t1", scheme="ppa",
                                  instructions=60)])
        payload = _json_round_trip(payload_from_run(stats, None, 0.1))
        cycles, instructions = sim_volume(stats)
        assert payload["cycles"] == cycles == 123.5
        assert payload["instructions"] == instructions == 100

    def test_payload_without_persist_log(self):
        stats = CoreStats(name="x", scheme="ppa")
        payload = _json_round_trip(payload_from_run(stats, None, 0.0))
        assert persist_log_from_payload(payload) is None


class TestSchemaInvalidation:
    """v3 payloads carry an explicit schema tag; anything else is stale."""

    def test_v2_style_payload_rejected(self):
        # v2 payloads had no "schema" field and stored a bare CoreStats
        # dict; decoding must refuse rather than misparse.
        payload = {"stats": CoreStats(name="x", scheme="ppa").to_dict(),
                   "persist_log": None, "wall_clock": 0.0}
        with pytest.raises(ValueError, match="stale result payload"):
            stats_from_payload(payload)

    def test_old_schema_number_rejected(self):
        payload = payload_from_run(CoreStats(name="x", scheme="ppa"),
                                   None, 0.0)
        payload["schema"] = 2
        with pytest.raises(ValueError, match="stale result payload"):
            stats_from_payload(payload)

    def test_current_payload_carries_schema_and_envelope(self):
        from repro.orchestrator.serialize import CACHE_SCHEMA_VERSION

        payload = payload_from_run(CoreStats(name="x", scheme="ppa"),
                                   None, 0.0)
        assert payload["schema"] == CACHE_SCHEMA_VERSION
        assert payload["stats"]["kind"] == "core"

    def test_v5_entry_is_stale_and_never_served(self, tmp_path,
                                                monkeypatch):
        """A v5 entry (unpacked envelope, v5 key material) is reported by
        ``inventory`` as ``stale_schema`` and never answers a v6 lookup."""
        from repro.orchestrator import serialize
        from repro.orchestrator.cache import ResultCache, point_digest
        from repro.orchestrator.campaign import Campaign

        point = make_point("rb", "ppa", length=500, warmup=0)
        stats, _ = simulate_point(point)
        with monkeypatch.context() as patch:
            patch.setattr(serialize, "CACHE_SCHEMA_VERSION", 5)
            v5_digest = point_digest(point)
        cache = ResultCache(tmp_path)
        cache.put(v5_digest, {"schema": 5, "engine": "scalar",
                              "stats": stats_to_dict(stats),
                              "persist_log": None, "wall_clock": 0.1,
                              "cycles": stats.cycles,
                              "instructions": stats.instructions})
        assert v5_digest != point_digest(point)
        assert cache.inventory()["stale_schema"] == 1

        campaign = Campaign(cache=cache)
        campaign.add(point)
        [result] = campaign.run()
        assert not result.cache_hit
        assert result.stats == stats
        inventory = cache.inventory()
        assert inventory["entries"] == 2
        assert inventory["stale_schema"] == 1

    @staticmethod
    def _check_row_table_entry(tmp_path, monkeypatch, point, stats, schema,
                               logs, salt=None):
        """Store ``stats`` as a schema-``schema`` entry with its ``logs``
        as ``"@rows"`` tables, under that schema's key material (and code
        ``salt``). Check that ``inventory`` reports it as
        ``stale_schema``, that it is a miss, and that the re-simulated
        entry packs those logs as ``"@cols"``; returns the cache."""
        from repro.orchestrator import cache as cache_module
        from repro.orchestrator import serialize
        from repro.orchestrator.campaign import Campaign

        rows = _rows_tree(stats_to_dict(stats), *logs)
        cache = cache_module.ResultCache(tmp_path)
        with monkeypatch.context() as patch:
            patch.setattr(serialize, "CACHE_SCHEMA_VERSION", schema)
            if salt is not None:
                patch.setattr(cache_module, "_code_salt_cache", salt)
            digest = cache_module.point_digest(point)
            cache.put(digest, {"schema": schema, "engine": "batched",
                               "stats": rows, "persist_log": None,
                               "wall_clock": 0.1, "cycles": stats.cycles,
                               "instructions": stats.instructions})
        assert digest != cache_module.point_digest(point)
        assert cache.inventory()["stale_schema"] == 1

        campaign = Campaign(cache=cache)
        campaign.add(point)
        [result] = campaign.run()
        assert not result.cache_hit
        assert result.stats == stats
        data = _tree(result.payload["stats"])["data"]
        for name in logs:
            assert "@cols" in data[name], name
        assert cache.inventory()["stale_schema"] == 1
        return cache

    def test_v6_entry_is_stale_and_never_served(self, tmp_path,
                                                monkeypatch):
        """A v6 entry (row tables packed as "@rows", v6 key material) is
        reported by ``inventory`` as ``stale_schema`` and is a miss under
        v7."""
        point = make_point("rb", "ppa", length=500, warmup=0)
        stats, _ = simulate_point(point)
        cache = self._check_row_table_entry(tmp_path, monkeypatch, point,
                                            stats, 6, ("stores", "regions"))
        assert cache.inventory()["entries"] == 2

    def test_v7_entry_is_stale_and_never_served(self, tmp_path,
                                                monkeypatch):
        """A v7 entry (tree stored as an object, one-line entry layout,
        v7 key material) is reported by ``inventory`` as
        ``stale_schema``, is a miss under v8 and is reclaimed by ``gc``."""
        from repro.orchestrator import serialize
        from repro.orchestrator.cache import (
            ResultCache,
            code_salt,
            point_digest,
        )
        from repro.orchestrator.campaign import Campaign

        point = make_point("rb", "ppa", length=500, warmup=0)
        stats, _ = simulate_point(point)
        with monkeypatch.context() as patch:
            patch.setattr(serialize, "CACHE_SCHEMA_VERSION", 7)
            v7_digest = point_digest(point)
        v7_stats = pack_envelope(stats_to_dict(stats, columns=True))
        v7_stats["tree"] = _tree(v7_stats)
        cache = ResultCache(tmp_path)
        path = cache._path(v7_digest)
        path.parent.mkdir(parents=True)
        # How a v7 entry was written: one JSON object on one line.
        v7_entry = json.dumps({
            "digest": v7_digest, "salt": code_salt(), "schema": 1,
            "meta": {}, "payload": {
                "schema": 7, "engine": "batched", "stats": v7_stats,
                "persist_log": None, "wall_clock": 0.1,
                "cycles": stats.cycles,
                "instructions": stats.instructions}},
            separators=(",", ":"))
        path.write_text(v7_entry)
        assert v7_digest != point_digest(point)
        assert cache.inventory()["stale_schema"] == 1

        campaign = Campaign(cache=cache)
        campaign.add(point)
        [result] = campaign.run()
        assert not result.cache_hit
        assert result.stats == stats
        assert cache.inventory()["stale_schema"] == 1
        assert cache.get(v7_digest) is None
        assert not path.exists()

        # Even under the current salt, gc reclaims the old layout.
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(v7_entry)
        assert cache.gc() == 1
        assert cache.inventory()["entries"] == 1
        assert cache.inventory()["stale_schema"] == 0

    def test_v8_inorder_entry_is_stale_and_never_served(self, tmp_path,
                                                        monkeypatch):
        """A v8 in-order entry (regions and CSQ entries as row tables,
        written under its own code salt and v8 key material) is reported
        by ``inventory`` as ``stale_schema``, is a miss under v9 and is
        reclaimed by ``gc``."""
        from repro.orchestrator.cache import point_digest

        point = make_point("rb", "ppa", length=500, warmup=0,
                           core="inorder")
        stats, _ = simulate_point(point)
        assert len(stats.regions) and len(stats.entries) >= PACK_MIN_LENGTH
        cache = self._check_row_table_entry(
            tmp_path, monkeypatch, point, stats, 8, ("regions", "entries"),
            salt="v8-code-salt")
        assert cache.gc() == 1
        assert cache.inventory()["entries"] == 1
        assert cache.inventory()["stale_schema"] == 0
        assert cache.get(point_digest(point)) is not None

    def test_schema_bump_orphans_cache_keys(self, monkeypatch):
        """The schema version is part of the key material, so a bump
        orphans every old disk-cache entry (digest never aliases)."""
        from repro.orchestrator import serialize
        from repro.orchestrator.cache import point_digest

        point = make_point("gcc", "ppa", length=500, warmup=0)
        current = point_digest(point, salt="fixed")
        monkeypatch.setattr(serialize, "CACHE_SCHEMA_VERSION", 2)
        previous = point_digest(point, salt="fixed")
        assert current != previous


class TestKeyMaterial:
    """The key material is ``json.dumps(material, sort_keys=True)`` of every
    run parameter; memoizing the profile's and config's JSON must keep it
    byte-identical."""

    POINTS = (
        (("gcc", "ppa"), {"length": 500, "warmup": 0},
         "b7bd4b8b0f28daea4433a6f951a5a8312afe085c935d77814fc1f8b381bc770a",
         "778d2ca57f0741c3146a469977ecf44675970f08555f694eb661afed59b40e33"),
        (("rb", "capri"), {"length": 2000, "seed": 3, "track_values": True},
         "10843ed4aaa6e6d4e3fb813169bd3a44b3c6a70eac50215956ae2a83f8c8e0b4",
         "f53dd2209b39f658bc6d4922b665e237c9dc54db331fcafbc07df23bfa776a3e"),
        (("mcf", "ppa"), {"core": "inorder", "capture_persist_log": True},
         "3d6e975c7dfbbfc4281e34456ae64be2fa6c595b1bc462491d875636ffe4a36e",
         "8a2e4ee589704da88cea6981b051cc7d75361d5507a965fd05ad8efd66445000"),
    )

    # The same points' digests at schema 7.
    POINTS_V7 = (
        (("gcc", "ppa"), {"length": 500, "warmup": 0},
         "673de6fa4316a968cf99de72537715cf09427200f4ee5ccccb4daa66701a82b2",
         "a2d62759ed3cabdb1b1fbf469dda91c0726e50f5dbb6ed8690cd58f78b35f3f0"),
        (("rb", "capri"), {"length": 2000, "seed": 3, "track_values": True},
         "40239370b518f012e0f8f83b0b58d35a7e9346233bbc1a33057fb7d5ce1b2540",
         "0fbd8bed519c112ae41bac596c673d2cc2f142c95e559b216db25cdaa6629182"),
        (("mcf", "ppa"), {"core": "inorder", "capture_persist_log": True},
         "89f00cfa3189f92513d792bbab032fe7236e8733dcf9992172d10f7f030b16c8",
         "bc8a86c2a603f1484408618d61bac5b1e26a748dfc38d010ab97ecb9784fdc88"),
    )

    # The same points' digests at schema 8.
    POINTS_V8 = (
        (("gcc", "ppa"), {"length": 500, "warmup": 0},
         "f0f0f2aa3f6662b6f94add63e379adcb8a6b88de7d00da11ca4ed5f9d4a59c7a",
         "139ae45a9aaa964344fd0c5c96dff0cae869bda5254455e660cda9c121be8ec3"),
        (("rb", "capri"), {"length": 2000, "seed": 3, "track_values": True},
         "bb2d0125ee37a28626c29edc9c504f1afcbd2cb1278ac070adf115edf5de4ddf",
         "e59d43f2702421b5a58da62c62404915005a5d67da39179cbe3f6ed4d5623254"),
        (("mcf", "ppa"), {"core": "inorder", "capture_persist_log": True},
         "faaa76a3b1e297ac7cb6d52a51f4070b246f5a35f3985cf8dd60ac24e597b295",
         "9d7f8db7cc8de556e08cabdf6a2de1323854416acae770b1ea54dcc46f26843e"),
    )

    # The same points' digests at the current schema (v9).
    POINTS_V9 = (
        (("gcc", "ppa"), {"length": 500, "warmup": 0},
         "16ddfbae011ebce62e4c46edbbfd8414edf24e2156ad59102d789bb851a32335",
         "ed2fce2df95e3c04c2726d30cea2c13a04fff6129efb46b151a69e35216b16f3"),
        (("rb", "capri"), {"length": 2000, "seed": 3, "track_values": True},
         "fe918a9a9688c98e305123efe0eb7b9d6ab80ae901cebdf1f80ebe056946e944",
         "b910fd9549980f0cfb8551409bbec0df96c148f18e1fa5c56562fb2f84bb6beb"),
        (("mcf", "ppa"), {"core": "inorder", "capture_persist_log": True},
         "a3a821d47af316592e05015fdf50661f0d14223c76bc679d12bf9fb23e7030b2",
         "a7b4800047e05742d406990b3956a5f71810a66a94f21b54ba50206a10982fb1"),
    )

    @pytest.mark.parametrize("args,kwargs,digest,batched", POINTS)
    def test_pinned_digests(self, args, kwargs, digest, batched,
                            monkeypatch):
        """``POINTS`` were pinned at schema 6: with that schema number the
        key material is byte-identical, so a schema bump changes nothing
        else in it."""
        from repro.orchestrator import serialize
        from repro.orchestrator.cache import point_digest

        monkeypatch.setattr(serialize, "CACHE_SCHEMA_VERSION", 6)
        point = make_point(*args, **kwargs)
        for _ in range(2):                  # cold, then memoized
            assert point_digest(point, salt="fixed") == digest
            assert point_digest(point, salt="fixed",
                                engine="batched") == batched

    @pytest.mark.parametrize("args,kwargs,digest,batched", POINTS_V7)
    def test_pinned_digests_at_schema_7(self, args, kwargs, digest,
                                        batched, monkeypatch):
        """``POINTS_V7`` were pinned at schema 7, before the profile and
        config JSON was memoized by identity."""
        from repro.orchestrator import serialize
        from repro.orchestrator.cache import point_digest

        monkeypatch.setattr(serialize, "CACHE_SCHEMA_VERSION", 7)
        point = make_point(*args, **kwargs)
        for _ in range(2):                  # cold, then memoized
            assert point_digest(point, salt="fixed") == digest
            assert point_digest(point, salt="fixed",
                                engine="batched") == batched

    @pytest.mark.parametrize("args,kwargs,digest,batched", POINTS_V8)
    def test_pinned_digests_at_schema_8(self, args, kwargs, digest,
                                        batched, monkeypatch):
        """``POINTS_V8`` were pinned at schema 8, after the key material
        was formatted directly."""
        from repro.orchestrator import serialize
        from repro.orchestrator.cache import point_digest

        monkeypatch.setattr(serialize, "CACHE_SCHEMA_VERSION", 8)
        point = make_point(*args, **kwargs)
        for _ in range(2):                  # cold, then memoized
            assert point_digest(point, salt="fixed") == digest
            assert point_digest(point, salt="fixed",
                                engine="batched") == batched

    @pytest.mark.parametrize("args,kwargs,digest,batched", POINTS_V9)
    def test_pinned_digests_at_current_schema(self, args, kwargs, digest,
                                              batched):
        from repro.orchestrator import serialize
        from repro.orchestrator.cache import point_digest

        assert serialize.CACHE_SCHEMA_VERSION == 9
        point = make_point(*args, **kwargs)
        for _ in range(2):                  # cold, then memoized
            assert point_digest(point, salt="fixed") == digest
            assert point_digest(point, salt="fixed",
                                engine="batched") == batched

    def test_equals_plain_dump_of_fresh_objects(self):
        import dataclasses

        from repro.orchestrator.serialize import point_key_material

        point = make_point("rb", "ppa", length=700)
        point_key_material(point, "s")
        config = point.config
        # Equal objects whose fields differ in type (an int where the
        # default is a float) must not share their JSON.
        variant = dataclasses.replace(point, config=dataclasses.replace(
            config, memory=dataclasses.replace(
                config.memory, nvm=dataclasses.replace(
                    config.memory.nvm, clock_ghz=2))))
        for each in (point, variant):
            text = point_key_material(each, "s")
            material = json.loads(text)
            material["profile"] = profile_to_dict(each.profile)
            material["config"] = config_to_dict(each.config)
            assert text == json.dumps(material, sort_keys=True,
                                      separators=(",", ":"))
        assert '"clock_ghz":2,' in point_key_material(variant, "s")
        assert '"clock_ghz":2.0,' in point_key_material(point, "s")

    def test_default_point_material_predates_thread_points(self,
                                                          monkeypatch):
        import hashlib

        from repro.orchestrator import serialize
        from repro.orchestrator.serialize import point_key_material

        # SHA-256 of the material as minted (at schema 6) before SimPoint
        # had a ``thread`` field: an unset field adds no key.
        monkeypatch.setattr(serialize, "CACHE_SCHEMA_VERSION", 6)
        text = point_key_material(make_point("rb", "ppa"), "fixed")
        assert '"thread"' not in text
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "f46cec57698a65a268737122c2e24a4730ff64e81270eac38002205d29bcfdd8")

    @settings(max_examples=150, deadline=None)
    @given(core=st.sampled_from(("ooo", "inorder")),
           scheme=st.one_of(st.sampled_from(("ppa", "baseline")),
                            st.text(max_size=6)),
           thread=st.none() | st.integers(1, 64).flatmap(
               lambda n: st.tuples(st.integers(0, n - 1), st.just(n))),
           engine=st.sampled_from((None, "scalar", "batched")),
           capture_persist_log=st.booleans(), track_values=st.booleans(),
           seed=st.integers(-2 ** 70, 2 ** 70),
           length=st.integers(1, 10 ** 9), salt=st.text(max_size=6))
    def test_direct_builder_equals_sorted_dump(self, core, scheme, thread,
                                               engine, capture_persist_log,
                                               track_values, seed, length,
                                               salt):
        from repro.orchestrator import serialize
        from repro.orchestrator.points import SimPoint

        if core == "inorder" and scheme not in ("ppa", "baseline"):
            scheme = "ppa"
        point = SimPoint(profile=profile_by_name("rb"), scheme=scheme,
                         config=skylake_default(), length=length,
                         seed=seed, track_values=track_values,
                         capture_persist_log=capture_persist_log,
                         core=core, thread=thread)
        material = {
            "schema": serialize.CACHE_SCHEMA_VERSION, "salt": salt,
            "kind": "app", "scheme": scheme, "length": length,
            "warmup": point.warmup, "seed": seed,
            "track_values": track_values,
            "capture_persist_log": capture_persist_log,
            "profile": profile_to_dict(point.profile),
            "config": config_to_dict(point.config),
        }
        if core != "ooo":
            material["core"] = core
        if thread is not None:
            material["thread"] = list(thread)
        if engine is not None:
            material["engine"] = engine
        assert serialize.point_key_material(point, salt, engine) == \
            json.dumps(material, sort_keys=True, separators=(",", ":"))

    def test_thread_point_wire_round_trip(self):
        from repro.orchestrator.cache import point_digest
        from repro.orchestrator.serialize import (
            point_from_dict,
            point_to_dict,
        )

        point = make_point("water-ns", "ppa", length=800, thread=(3, 16))
        wire = json.loads(json.dumps(point_to_dict(point)))
        restored = point_from_dict(wire)
        assert restored == point
        assert point_digest(restored, salt="s") \
            == point_digest(point, salt="s")
        # The thread is part of the key: thread 3 of 16 is not of 8, nor
        # the single-core point.
        for other in (make_point("water-ns", "ppa", length=800,
                                 thread=(3, 8)),
                      make_point("water-ns", "ppa", length=800)):
            assert point_digest(other, salt="s") \
                != point_digest(point, salt="s")



class TestPointValidation:
    """A point checks its core, in-order scheme and thread however it is
    built: ``make_point``, a wire dict or ``dataclasses.replace``."""

    @staticmethod
    def _wire(**changes):
        from repro.orchestrator.serialize import point_to_dict

        wire = json.loads(json.dumps(point_to_dict(
            make_point("rb", "ppa", length=500, warmup=0))))
        wire.update(changes)
        return wire

    def test_unknown_core_rejected(self):
        from dataclasses import replace

        from repro.orchestrator.serialize import point_from_dict

        with pytest.raises(ValueError, match="unknown core model 'foo'"):
            point_from_dict(self._wire(core="foo"))
        with pytest.raises(ValueError, match="unknown core model"):
            replace(make_point("rb", "ppa", length=500), core="gpu")

    def test_inorder_scheme_outside_ppa_baseline_rejected(self):
        from repro.orchestrator.serialize import point_from_dict

        with pytest.raises(ValueError, match="in-order core supports"):
            make_point("gcc", "capri", core="inorder", length=500,
                       warmup=0)
        with pytest.raises(ValueError, match="in-order core supports"):
            point_from_dict(self._wire(core="inorder",
                                       scheme="replaycache"))
        for scheme in ("ppa", "baseline"):
            assert make_point("gcc", scheme, core="inorder").core \
                == "inorder"

    @pytest.mark.parametrize("value", [float("inf"), float("nan"), -1])
    @pytest.mark.parametrize("section,field", [
        ("core", "lat_int_alu"), ("nvm", "write_latency_ns")])
    def test_bad_latency_rejected(self, section, field, value):
        from dataclasses import replace

        from repro.orchestrator.serialize import point_from_dict

        config = skylake_default()
        if section == "core":
            config = replace(config, core=replace(config.core,
                                                  **{field: value}))
            name = f"core.{field}"
        else:
            config = replace(config, memory=replace(
                config.memory, nvm=replace(config.memory.nvm,
                                           **{field: value})))
            name = f"memory.nvm.{field}"
        with pytest.raises(ValueError, match=f"^{name} must be a finite"):
            make_point("rb", "ppa", config=config, length=500)
        wire = self._wire()
        wire["config"] = config_to_dict(config)
        with pytest.raises(ValueError, match=f"^{name} must be a finite"):
            point_from_dict(wire)

    @pytest.mark.parametrize("thread", [[5, 2], [2, 2], [-1, 4], [3]])
    def test_thread_out_of_bounds_rejected(self, thread):
        from repro.orchestrator.serialize import point_from_dict

        with pytest.raises(ValueError, match="^thread "):
            point_from_dict(self._wire(thread=thread))
        assert point_from_dict(self._wire(thread=[1, 2])).thread == (1, 2)


def _canonical(data) -> str:
    return json.dumps(data, sort_keys=True)


def _assert_lossless(envelope, want=None):
    """Packing, a strict-JSON trip and unpacking restore the envelope
    byte for byte — with and without the JSON trip in between. ``want``
    is the envelope's ``to_dict`` form when that differs (its
    :class:`Columns` tables as rows)."""
    want = envelope if want is None else want
    packed = pack_envelope(envelope)
    assert _canonical(unpack_envelope(packed)) == _canonical(want)
    if "NaN" not in _canonical(want):
        tripped = _json_round_trip(packed)
        assert _canonical(unpack_envelope(tripped)) == _canonical(want)
    return packed


@functools.cache
def _every_stats_kind():
    """One real (or, for the device counters, hand-filled) stats object of
    every registered kind."""
    from repro import simulate
    from repro.core.iobuffer import IoBufferStats
    from repro.memory.nvm import NvmStats

    core, _ = simulate_point(make_point("rb", "ppa", length=1_500,
                                        warmup=0, track_values=True))
    inorder = simulate("gcc", core="inorder", scheme="ppa",
                       length=1_500).stats
    multicore = simulate("water-ns", core="multicore", scheme="ppa",
                         length=1_500, threads=2).stats
    return {
        "core": core,
        "inorder": inorder,
        "multicore": multicore,
        "nvm": NvmStats(line_writes=7, reads=3,
                        write_backpressure_cycles=1.5,
                        read_contention_cycles=-0.0, busy_cycles=1e300),
        "iobuffer": IoBufferStats(writes=4, backpressure_cycles=2.25,
                                  max_occupancy=2),
    }


class TestPackedEnvelope:
    """pack_envelope/unpack_envelope are lossless by construction."""

    def test_every_stats_kind_round_trips_byte_identically(self):
        for kind, stats in _every_stats_kind().items():
            envelope = stats_to_dict(stats)
            assert envelope["kind"] == kind
            packed = _assert_lossless(envelope)
            assert stats_from_dict(unpack_envelope(packed)) == stats
            payload = _json_round_trip(payload_from_run(stats, None, 0.1))
            assert stats_from_payload(payload) == stats

    def test_no_payload_holds_a_row_table(self):
        for kind, stats in _every_stats_kind().items():
            payload = payload_from_run(stats, None, 0.1)
            assert "@rows" not in json.dumps(payload), kind

    def test_inorder_logs_pack_and_decode_as_columns(self, monkeypatch):
        from repro.inorder.value_csq import CsqLog

        stats = _every_stats_kind()["inorder"]
        assert len(stats.entries) >= PACK_MIN_LENGTH
        payload = _json_round_trip(payload_from_run(stats, None, 0.1))
        data = _tree(payload["stats"])["data"]
        assert set(data["regions"]) == set(data["entries"]) == {"@cols"}
        seq, addr, __, commit_time = data["entries"]["@cols"]
        assert seq["@col"] == addr["@col"] == "q"
        assert commit_time["@col"] == "d"
        assert data["commit_times"]["@col"] == "d"

        def no_record(*args):
            raise AssertionError("a decode built a ValueCsqEntry")

        with monkeypatch.context() as patch:
            patch.setattr(CsqLog, "record", no_record)
            restored = stats_from_payload(payload)
            assert type(restored.entries) is CsqLog
            assert type(restored.commit_times) is array
            assert restored.entries.columns == stats.entries.columns
        assert restored == stats
        assert unpacked_payload(payload)["stats"] == stats_to_dict(stats)

    def test_long_columns_are_packed(self):
        stats = _every_stats_kind()["core"]
        packed = pack_envelope(stats_to_dict(stats, columns=True))
        data = _tree(packed)["data"]
        assert data["commit_times"]["@col"] == "d"
        stores = data["stores"]["@cols"]
        assert stores[0]["@col"] == "q"           # seq
        assert stores[7]["@col"] == "d"           # commit_time
        # track_values stores 64-bit values: those >= 2**63 do not fit
        # the signed column, so that column stays a plain list.
        values = stores[4]
        assert isinstance(values, list)
        assert any(value >= 2 ** 63 for value in values)
        # The to_dict form declares no columns: its lists stay plain.
        assert pack_envelope(stats_to_dict(stats)) == stats_to_dict(stats)

    def test_edge_values(self):
        n = PACK_MIN_LENGTH
        m = 2 * n
        fields = [
            [-0.0] * m,                                   # negative zero
            [[float("inf"), float("-inf"), float("nan"), 1.5][i % 4]
             for i in range(m)],                          # non-finite
            [[-2 ** 63, 2 ** 63 - 1][i % 2] for i in range(m)],
            [2 ** 63] * m,                                # beyond int64
            [[1, 1.0][i % 2] for i in range(m)],          # mixed
            [[True, False][i % 2] for i in range(m)],     # bools
        ]
        short = [column[:n - 1] for column in fields]
        plain = {
            "negative_zero": [-0.0] * n,
            "int64_bounds": [-2 ** 63, 2 ** 63 - 1] * n,
            "beyond_int64": [2 ** 63] * n,
            "int_float_mixed": [1, 1.0] * n,
            "bool_column": [True, False] * n,
            "floats": [0.5] * n,
            "empty": [],
            "empty_rows": [[]] * n,
            "ragged_rows": [[1], [1, 2]] * n,
            "equal_rows": [[1, 2.5]] * n,
            "nested": [{"commit_times": [0.5] * n}, [[1.0] * n]],
        }

        def rows(columns):
            return [[encode_float(value) if type(value) is float
                     else value for value in row]
                    for row in zip(*columns)]

        envelope = {"kind": "core", "data": {
            "table": Columns(fields), "short_table": Columns(short),
            "empty_table": Columns([[], []]),
            "doubles": array("d", [-0.0, 1e308] * n),
            "int64s": array("q", [-2 ** 63, 2 ** 63 - 1] * n),
            "short_doubles": array("d", [2.5] * (n - 1)),
            **plain,
            "marker_keys": {"@col": "d", "@rows": [1] * n, "@z": "x",
                            "@obj": {"@obj": 1}},
        }}
        want = {"kind": "core", "data": {
            **envelope["data"], "table": rows(fields),
            "short_table": rows(short), "empty_table": [],
            "doubles": [-0.0, 1e308] * n,
            "int64s": [-2 ** 63, 2 ** 63 - 1] * n,
            "short_doubles": [2.5] * (n - 1)}}
        packed = _assert_lossless(envelope, want)
        data = _tree(packed)["data"]
        table = data["table"]["@cols"]
        assert [column["@col"] for column in table[:3]] == ["d", "f", "q"]
        for column in table[3:]:          # beyond int64, mixed, bools
            assert isinstance(column, list)
        assert all(isinstance(column, list)
                   for column in data["short_table"]["@cols"])
        assert data["doubles"]["@col"] == "d"
        assert data["int64s"]["@col"] == "q"
        assert data["short_doubles"] == [2.5] * (n - 1)
        # A plain list always stays as it is, however long and uniform.
        for key, value in plain.items():
            assert data[key] == value, key
        assert "@obj" in data["marker_keys"]
        restored = unpack_envelope(packed)["data"]
        assert str(restored["table"][0][0]) == "-0.0"
        assert restored["table"][0][1:3] == ["inf", -2 ** 63]
        assert restored["table"][2][1] == "nan"
        assert restored["table"][1][3] == 2 ** 63
        assert [type(row[4]) for row in restored["table"][:2]] == \
            [int, float]
        assert restored["table"][0][5] is True
        assert str(restored["doubles"][0]) == "-0.0"
        assert str(restored["negative_zero"][0]) == "-0.0"
        assert type(restored["int_float_mixed"][0]) is int
        assert type(restored["int_float_mixed"][1]) is float
        columns = unpack_envelope(packed, columns=True)["data"]
        assert type(columns["table"]) is Columns
        assert type(columns["table"][0]) is array
        assert columns["table"][3] == [2 ** 63] * m

    def test_edge_core_stats_round_trip_through_a_payload(self):
        n = PACK_MIN_LENGTH
        durable = [float("inf"), float("-inf"), float("nan"), -0.0, 2.5]
        stats = CoreStats(
            name="edge", scheme="ppa", instructions=2 * n, cycles=-0.0,
            commit_times=[-0.0, 0.5, 1e308] * n,
            stores=[StoreRecord(seq=i, pc=4 * i, addr=64 * i + 8,
                                line_addr=64 * i, value=2 ** 64 - 1 - i,
                                data_preg=i % 7, data_cls=i % 2,
                                commit_time=float(i), region_id=i // 4,
                                durable_at=durable[i % len(durable)])
                    for i in range(2 * n)])
        envelope = stats_to_dict(stats)
        _assert_lossless(envelope)
        payload = _json_round_trip(payload_from_run(stats, None, 0.0))
        restored = stats_from_payload(payload)
        assert _canonical(stats_to_dict(restored)) == _canonical(envelope)
        assert str(restored.stores[3].durable_at) == "-0.0"

    def test_logs_pack_as_columns_with_non_finite_floats_as_bytes(self):
        stats, _ = simulate_point(make_point("rb", "baseline", length=1_500,
                                             warmup=0))
        assert set(stats.stores.durable_at) == {float("inf")}
        payload = _json_round_trip(payload_from_run(stats, None, 0.1))
        stores = _tree(payload["stats"])["data"]["stores"]["@cols"]
        assert [column["@col"] for column in stores[:4]] == ["q"] * 4
        assert stores[9]["@col"] == "f"           # durable_at, all inf
        full = unpacked_payload(payload)["stats"]
        assert _canonical(full) == _canonical(stats_to_dict(stats))
        assert full["data"]["stores"][0][9] == "inf"
        restored = stats_from_payload(payload)
        assert restored == stats
        assert type(restored.stores.durable_at[0]) is float

    def test_envelope_without_long_lists_is_left_as_is(self):
        envelope = {"kind": "nvm", "data": {"line_writes": 1}}
        assert pack_envelope(envelope) == envelope
        assert unpack_envelope(envelope) == envelope

    def test_unpacked_envelopes_pass_through(self):
        stats = _every_stats_kind()["core"]
        payload = payload_from_run(stats, None, 0.1)
        full = unpacked_payload(payload)
        assert full["stats"] == stats_to_dict(stats)
        assert stats_from_payload(full) == stats
        assert {key: value for key, value in full.items()
                if key != "stats"} == \
            {key: value for key, value in payload.items() if key != "stats"}

    def test_payload_is_a_fraction_of_the_plain_envelope(self):
        stats = _every_stats_kind()["core"]
        payload = payload_from_run(stats, None, 0.1)
        plain = unpacked_payload(payload)
        assert len(json.dumps(payload)) * 2 < len(json.dumps(plain))


class TestCorruptPackedColumns:
    """A column that fails to decode is a ValueError, never a raw
    zlib.error or binascii.Error."""

    def _packed(self):
        stats = _every_stats_kind()["core"]
        return payload_from_run(stats, None, 0.1)

    @pytest.mark.parametrize("corrupt", [
        lambda z: z[:-8],                                  # truncated
        lambda z: "!" + z[1:],                             # not base64
        lambda z: base64.b64encode(b"not zlib").decode(),  # not zlib
        lambda z: base64.b64encode(zlib.compress(b"x" * 9)).decode(),
    ])
    def test_bad_block_raises_value_error(self, corrupt):
        payload = self._packed()
        payload["stats"]["@z"] = corrupt(payload["stats"]["@z"])
        with pytest.raises(ValueError, match="corrupt packed"):
            stats_from_payload(payload)

    def test_bad_column_node_raises_value_error(self):
        payload = self._packed()
        tree = _tree(payload["stats"])
        for bad in ({"@col": "b", "at": 0, "n": 1},
                    {"@col": "Q", "at": 0, "n": 1},
                    {"@col": "d", "at": -8, "n": 1},
                    {"@col": "d", "at": 4, "n": 1},
                    {"@col": "d", "at": 0, "n": 10 ** 9},
                    {"@col": "d", "n": 3},
                    {"@col": "d", "at": "0", "n": 3}):
            tree["data"]["commit_times"] = bad
            payload["stats"]["tree"] = json.dumps(tree)
            with pytest.raises(ValueError, match="corrupt packed column"):
                stats_from_payload(payload)


class TestConfigAndProfileRoundTrip:
    def test_default_config(self):
        config = skylake_default()
        assert config_from_dict(_json_round_trip(config_to_dict(config))) \
            == config

    def test_modified_config_with_l3_and_no_dram_cache(self):
        from dataclasses import replace

        config = skylake_default().with_l3().with_prf(80, 80)
        config = replace(config, memory=replace(config.memory,
                                                dram_cache=None))
        assert config_from_dict(_json_round_trip(config_to_dict(config))) \
            == config

    def test_profiles(self):
        for name in ("gcc", "mcf", "water-ns", "tpcc"):
            profile = profile_by_name(name)
            restored = profile_from_dict(
                _json_round_trip(profile_to_dict(profile)))
            assert restored == profile
