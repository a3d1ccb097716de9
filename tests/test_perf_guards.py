"""Performance-model guards: the fast path must stay fast.

Six contracts backstop the optimized simulation kernel and the result
data plane:

* the untraced/unsanitized path performs **zero** allocations attributed
  to ``repro/telemetry`` or ``repro/sanitizer`` — observability is
  strictly pay-for-use (``tracemalloc``-enforced);
* process-wide trace interning and warm-memory templates return state
  bit-identical to cold construction, so the speed-up can never leak
  into model outputs, and a clone never writes its template; a template
  fills no line, and a fig16 memory script derives under a quarter of
  L2's sets;
* warm state stays out of the cycle collector's heap: template cache sets
  are untracked, a clone adds only a handful of tracked objects, and
  traces share one object per architectural register;
* campaign pool workers import ``repro`` exactly once (the initializer
  pre-imports and pre-interns), surfaced through campaign telemetry;
* cached results stay compact and lazy: a fig16 entry is at most a third
  of its unpacked (schema v5) size, a warm campaign decodes no stats,
  and a result decodes its stats once;
* single points run on the one-lane kernel: an unread ``crash_api``
  builds no processor, and a memory script is built once per trace and
  freed with it.
"""

import gc
import os
import tracemalloc

import pytest

from repro import simulate
from repro.config import skylake_default
from repro.isa import Instruction, dumps_trace, load_trace
from repro.memory import prewarm
from repro.memory.hierarchy import MemorySystem
from repro.persistence.catalog import scheme_names
from repro.workloads import interning
from repro.workloads.profiles import profile_by_name
from repro.workloads.synthetic import TraceGenerator

_OBSERVED = os.environ.get("REPRO_TRACE") or os.environ.get(
    "REPRO_SANITIZE")

# Generous per-instruction ceiling (calibrated ~180 B on CPython 3.11; a
# warm clone copies only the sets it writes): catches an accidental
# per-cycle event log or per-instruction object regression, not dict
# sizing differences across CPython versions.
_PEAK_BYTES_PER_INSTR = 16_384


@pytest.mark.skipif(bool(_OBSERVED),
                    reason="guard targets the untraced/unsanitized path")
class TestNoPerCycleAllocations:
    def test_fast_path_allocates_no_observability_objects(self):
        length = 2000
        # Warm everything allocation-worthy that is not per-run: imports,
        # the interned trace, and the prewarmed memory template.
        simulate("gcc", scheme="ppa", core="ooo", length=length)
        simulate("gcc", scheme="ppa", core="ooo", length=length)

        tracemalloc.start()
        simulate("gcc", scheme="ppa", core="ooo", length=length)
        snapshot = tracemalloc.take_snapshot()
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()

        observability = [
            stat for stat in snapshot.statistics("filename")
            if "repro/telemetry" in
            stat.traceback[0].filename.replace("\\", "/")
            or "repro/sanitizer" in
            stat.traceback[0].filename.replace("\\", "/")
        ]
        assert not observability, (
            "untraced/unsanitized run allocated observability objects: "
            f"{observability}")
        assert peak <= length * _PEAK_BYTES_PER_INSTR, (
            f"peak {peak} bytes for {length} instructions exceeds the "
            f"{_PEAK_BYTES_PER_INSTR} bytes/instr budget")


class TestTraceInterning:
    def setup_method(self):
        interning.clear()

    def teardown_method(self):
        interning.clear()

    def test_same_key_returns_shared_object(self):
        profile = profile_by_name("gcc")
        first = interning.interned_trace(profile, 400)
        second = interning.interned_trace(profile, 400)
        assert first is second
        assert second.decoded() is first.decoded()
        assert interning.stats == {"hits": 1, "builds": 1}

    def test_interned_matches_cold_generation(self):
        profile = profile_by_name("rb")
        interned = interning.interned_trace(profile, 400, seed=3)
        cold = TraceGenerator(profile, seed=3,
                              addr_base=0x10_0000).generate(400)
        assert len(interned) == len(cold)
        for mine, theirs in zip(interned, cold):
            assert mine.opcode is theirs.opcode
            assert mine.pc == theirs.pc
            assert mine.addr == theirs.addr

    def test_region_extents_match_generator(self):
        profile = profile_by_name("mcf")
        generator = TraceGenerator(profile, seed=0, addr_base=0x10_0000)
        assert interning.region_extents(profile) \
            == tuple(generator.region_extents())

    def test_fifo_cap_bounds_pool(self):
        profile = profile_by_name("gcc")
        for length in range(10, 10 + interning._MAX_TRACES + 8):
            interning.interned_trace(profile, length)
        assert len(interning._traces) <= interning._MAX_TRACES


class TestWarmMemoryTemplates:
    def setup_method(self):
        prewarm.clear()
        interning.clear()

    def teardown_method(self):
        prewarm.clear()
        interning.clear()

    @staticmethod
    def _cold(cfg, extents):
        memory = MemorySystem(cfg)
        prewarm.declare_resident_extents(memory, extents)
        memory.prewarm_extents(extents)
        return memory

    def test_clone_is_bit_identical_to_cold_warmup(self):
        cfg = skylake_default().memory
        extents = interning.region_extents(profile_by_name("gcc"))
        cold = self._cold(cfg, extents)
        warm = prewarm.warmed_memory(cfg, extents)
        for mine, theirs in ((warm.l1d, cold.l1d), (warm.l2, cold.l2),
                             (warm.l3, cold.l3)):
            if theirs is None:
                assert mine is None
                continue
            assert mine.contents() == theirs.contents()
            assert (mine.hits, mine.misses) == (theirs.hits, theirs.misses)
        # The timing behaviour must match too, not just the snapshots.
        for line in (0x10_0000, 0x10_4000, 0x55_0000):
            assert warm.load(line, 10.0).latency \
                == cold.load(line, 10.0).latency

    @staticmethod
    def _snapshot(memory):
        return [(cache.contents(), cache.hits, cache.misses)
                for cache in (memory.l1d, memory.l2, memory.l3)
                if cache is not None]

    @staticmethod
    def _drive(memory):
        """Loads, store RFO and merge, and dirty evictions that write back:
        40 stores to one L1/L2 set, then 40 more whose lines alias the
        first ones in the direct-mapped DRAM cache."""
        time, trail = 0.0, []
        for alias in (0, 4 << 30):
            for k in range(40):
                line = 0x10_0000 + alias + k * (1 << 20)
                time = memory.store_rfo(line, time)
                time = memory.store_merge(line, time)
                trail.append(time)
        for line in range(0x10_0000, 0x12_0000, 4096):
            trail.append(memory.load(line, time).latency)
        return (trail, memory.eviction_writebacks,
                memory.nvm.stats.line_writes, memory.demand_loads)

    def test_clones_are_isolated_from_each_other_and_the_template(self):
        cfg = skylake_default().memory
        extents = interning.region_extents(profile_by_name("rb"))
        cold = self._cold(cfg, extents)
        expected = self._drive(cold)
        assert expected[1] > 0 and expected[2] > 0  # writebacks reach NVM
        first = prewarm.warmed_memory(cfg, extents)
        second = prewarm.warmed_memory(cfg, extents)
        template = prewarm._templates[cfg, extents]
        pristine = self._snapshot(template)
        # Same stream on both clones: any state leaking from the first
        # into the template or the second would change the second's trail.
        for clone in (first, second):
            assert self._drive(clone) == expected
            assert self._snapshot(clone) == self._snapshot(cold)
        assert self._snapshot(template) == pristine
        simulate("rb", length=2000)
        assert self._snapshot(template) == pristine
        # A multicore run clones one template per thread (thread 0 shares
        # rb's); every template must still equal a fresh cold build.
        simulate("rb", core="multicore", threads=2, length=2000)
        assert len(prewarm._templates) >= 2
        for (key_cfg, key_extents), kept in prewarm._templates.items():
            assert self._snapshot(kept) \
                == self._snapshot(self._cold(key_cfg, key_extents))

    def test_template_build_fills_no_line(self, monkeypatch):
        from repro.memory.cache import Cache

        fills = []
        real_fill = Cache.fill

        def counting_fill(cache, *args, **kwargs):
            fills.append(args)
            return real_fill(cache, *args, **kwargs)

        monkeypatch.setattr(Cache, "fill", counting_fill)
        cfg = skylake_default().with_l3().memory
        extents = interning.region_extents(profile_by_name("rb"))
        memory = prewarm.warmed_memory(cfg, extents)
        assert prewarm.stats["builds"] == 1
        assert fills == []
        memory.l2.fill(0x10_0000)       # the counter does count fills
        assert len(fills) == 1

    def test_fig16_script_derives_under_a_quarter_of_l2(self):
        """A 12,000-instruction fig16 memory script touches a small share
        of L2's sets, and only those are derived."""
        from repro.engine.memscript import clear_scripts, memory_script
        from repro.orchestrator.campaigns import build_sweep, sweep_spec

        points = build_sweep(sweep_spec("fig16"))
        cfg = points[0].config.memory
        num_sets = cfg.l2.num_sets
        for profile in {point.profile: None for point in points}:
            trace = interning.interned_trace(profile, points[0].length)
            extents = interning.region_extents(profile)
            memory_script(trace, cfg, True, extents)
            template = prewarm._templates[cfg, extents]
            assert template.l2._sets == {}
            assert 0 < len(template.l2._base) < num_sets / 4, profile.name
        clear_scripts()

    def test_template_reused_and_nvm_isolated(self):
        cfg = skylake_default().memory
        extents = interning.region_extents(profile_by_name("gcc"))
        first = prewarm.warmed_memory(cfg, extents)
        second = prewarm.warmed_memory(cfg, extents)
        assert prewarm.stats == {"hits": 1, "builds": 1}
        assert first.nvm is not second.nvm
        template = next(iter(prewarm._templates.values()))
        assert template.nvm.stats.line_writes == 0
        assert first.nvm.stats.line_writes == 0


class TestGcFootprint:
    """Long-lived warm state must stay out of the cycle collector's heap:
    template sets are untracked int/bool dicts, a clone shares them, and
    traces share one Register object per architectural register."""

    def setup_method(self):
        prewarm.clear()
        interning.clear()

    def teardown_method(self):
        prewarm.clear()
        interning.clear()

    def test_no_template_set_is_gc_tracked(self):
        for app in ("rb", "mcf"):
            simulate(app, length=500)
        assert prewarm._templates
        for template in prewarm._templates.values():
            for cache in (template.l1d, template.l2, template.l3):
                if cache is not None:
                    # A template's sets live in its base map, derived on
                    # first lookup; it writes none of its own.
                    sets = [*cache._sets.values(), *cache._base.values()]
                    assert sets
                    assert not any(gc.is_tracked(s) for s in sets)

    def test_clone_adds_few_gc_tracked_objects(self):
        cfg = skylake_default().memory
        extents = interning.region_extents(profile_by_name("rb"))
        prewarm.warmed_memory(cfg, extents)
        gc.collect()
        gc.disable()
        try:
            before = len(gc.get_objects())
            memory = prewarm.warmed_memory(cfg, extents)
            added = len(gc.get_objects()) - before
        finally:
            gc.enable()
        assert memory.l2.resident_lines() > 10_000
        assert added < 50, f"a warm clone added {added} tracked objects"

    def test_interned_trace_adds_few_gc_tracked_objects(self):
        profile = profile_by_name("rb")
        interning.interned_trace(profile, 500)     # warm imports/caches
        gc.collect()
        before = len(gc.get_objects())
        trace = interning.interned_trace(profile, 2000)
        trace.decoded()
        gc.collect()
        added = len(gc.get_objects()) - before
        assert added <= 64, (
            f"an interned 2,000-instruction trace added {added} tracked "
            "objects")

    def test_trace_registers_are_shared(self):
        trace = interning.interned_trace(profile_by_name("rb"), 2000)
        registers = [reg for instr in trace
                     for reg in (instr.dest, *instr.srcs) if reg is not None]
        # 16 integer + 32 floating-point architectural registers.
        assert len({id(reg) for reg in registers}) <= 48
        reloaded = load_trace(dumps_trace(trace))
        assert all(mine is theirs for mine, theirs in zip(
            registers, (reg for instr in reloaded
                        for reg in (instr.dest, *instr.srcs)
                        if reg is not None)))


class TestNoInstructionObjects:
    """Generated traces are columns: simulating a profile builds no
    :class:`Instruction` (materializing one raises)."""

    @pytest.fixture(autouse=True)
    def forbid_instructions(self, monkeypatch):
        def refuse(instr):
            raise AssertionError(
                f"built an Instruction during simulate: {instr.opcode}")

        interning.clear()
        monkeypatch.setattr(Instruction, "__post_init__", refuse)
        yield
        interning.clear()

    def test_materializing_raises(self):
        trace = interning.interned_trace(profile_by_name("rb"), 100)
        with pytest.raises(AssertionError):
            trace.instructions

    @pytest.mark.parametrize("scheme", scheme_names())
    def test_ooo_schemes(self, scheme):
        simulate("rb", scheme=scheme, core="ooo", length=600)

    @pytest.mark.parametrize("scheme", ["ppa", "baseline"])
    def test_inorder_schemes(self, scheme):
        simulate("rb", scheme=scheme, core="inorder", length=600)

    def test_multicore(self):
        simulate("water-ns", core="multicore", threads=2, length=600)

    @pytest.mark.parametrize("core", ["ooo", "inorder"])
    def test_ppa_crash_api(self, core):
        result = simulate("rb", scheme="ppa", core=core, length=600)
        api = result.crash_api
        crash = api.crash_at(result.stats.cycles / 2)
        assert crash.last_committed_seq >= 0
        api.recover(crash)

    def test_fig16_campaign(self):
        from repro.orchestrator.campaign import Campaign
        from repro.orchestrator.campaigns import build_sweep, sweep_spec

        campaign = Campaign(cache=None)
        for point in build_sweep(sweep_spec("fig16", apps=["rb"],
                                            length=600)):
            campaign.add(point)
        assert all(r.ok for r in campaign.run())


class TestWorkerPreload:
    def test_pool_workers_import_repro_exactly_once(self):
        from repro.orchestrator.campaign import Campaign

        campaign = Campaign(cache=None, jobs=2)
        for app, scheme in (("gcc", "ppa"), ("gcc", "baseline"),
                            ("rb", "ppa"), ("rb", "baseline")):
            campaign.add_run(app, scheme, length=1200, warmup=0)
        results = campaign.run()
        assert all(r.ok for r in results)
        imports = campaign.telemetry.worker_imports
        assert imports, "pool run surfaced no worker accounting"
        assert 1 <= len(imports) <= 2
        assert all(count == 1 for count in imports.values()), (
            f"workers re-imported repro: {imports}")
        assert all(r.worker["imports"] == 1 for r in results)

    def test_worker_init_pins_trace_and_sanitizer_switches(
            self, monkeypatch):
        """A forkserver worker inherits the environment the forkserver
        started under; worker_init pins the parent's switches instead."""
        from repro import sanitizer
        from repro.orchestrator import execute

        monkeypatch.setenv("REPRO_TRACE", "1")
        monkeypatch.delenv("REPRO_SANITIZE", raising=False)
        monkeypatch.setitem(execute._WORKER_STATE, "imports", 0)
        was_installed = sanitizer.installed()
        try:
            execute.worker_init({"REPRO_TRACE": None,
                                 "REPRO_SANITIZE": "1"})
            assert "REPRO_TRACE" not in os.environ
            assert sanitizer.installed()
            execute.worker_init({"REPRO_TRACE": "1",
                                 "REPRO_SANITIZE": None})
            assert os.environ["REPRO_TRACE"] == "1"
            assert not sanitizer.installed()
        finally:
            if was_installed:
                sanitizer.install()
            else:
                sanitizer.uninstall()

    def test_serial_runs_carry_no_worker_accounting(self):
        from repro.orchestrator.campaign import Campaign

        campaign = Campaign(cache=None, jobs=1)
        campaign.add_run("gcc", "ppa", length=1200, warmup=0)
        results = campaign.run()
        assert results[0].ok
        assert not campaign.telemetry.worker_imports


class TestCompactLazyResults:
    @pytest.fixture(scope="class")
    def fig16_cache(self, tmp_path_factory):
        """One fig16-length ``rb`` point, simulated into a fresh cache."""
        from repro.orchestrator.cache import ResultCache
        from repro.orchestrator.campaign import Campaign
        from repro.orchestrator.campaigns import build_sweep, sweep_spec

        cache = ResultCache(tmp_path_factory.mktemp("fig16-cache"))
        point = build_sweep(sweep_spec("fig16", apps=["rb"]))[0]
        campaign = Campaign(cache=cache)
        campaign.add(point)
        [result] = campaign.run()
        assert result.ok
        return cache, point

    def test_entry_is_a_third_of_its_v5_size(self, fig16_cache):
        import json

        from repro.orchestrator.cache import read_entry
        from repro.orchestrator.serialize import unpacked_payload

        cache, _ = fig16_cache
        [path] = cache.entries()
        header, payload = read_entry(path)
        # The same entry as schema v5 stored it: the full stats envelope.
        entry = {**header, "payload": {**unpacked_payload(payload),
                                       "schema": 5}}
        v5_size = len(json.dumps(entry, allow_nan=False,
                                 separators=(",", ":")))
        assert path.stat().st_size * 3 <= v5_size, (
            f"{path.stat().st_size} B packed vs {v5_size} B unpacked")

    def test_hit_leaves_the_stats_tree_a_string(self, fig16_cache):
        """A hit parses the entry's payload line but builds none of the
        stats tree's objects: the tree stays one JSON string until the
        stats are decoded."""
        from repro.orchestrator.cache import point_digest

        cache, point = fig16_cache
        payload = cache.get(point_digest(point))
        assert type(payload["stats"]["tree"]) is str
        assert type(payload["stats"]["@z"]) is str

    def test_hit_hands_only_short_lines_to_the_json_decoder(
            self, fig16_cache, monkeypatch):
        """The tree and block lines are sliced out, not parsed: a hit
        decodes its header and payload lines, well under 1 KB."""
        from repro.orchestrator import cache as cache_mod

        cache, point = fig16_cache
        lengths = []
        loads = cache_mod._loads

        def recording(text):
            lengths.append(len(text))
            return loads(text)

        monkeypatch.setattr(cache_mod, "_loads", recording)
        payload = cache.get(cache_mod.point_digest(point))
        assert payload is not None
        assert len(lengths) == 2 and sum(lengths) <= 1024, lengths
        assert type(payload["stats"]["tree"]) is str
        assert type(payload["stats"]["@z"]) is str

    def test_put_writes_the_tree_line_unescaped(self, fig16_cache):
        import json

        from repro.orchestrator.cache import point_digest
        from repro.orchestrator.serialize import compact_json

        cache, point = fig16_cache
        tree = json.loads(cache.get(point_digest(point))["stats"]["tree"])
        [path] = cache.entries()
        line = path.read_bytes().split(b"\n")[2]
        assert line == b',"tree":' + compact_json(tree).encode()

    def test_cold_campaign_digests_each_point_once(self, tmp_path,
                                                   monkeypatch):
        """The probe's digest is reused by the put of a miss."""
        from repro.orchestrator import campaign as campaign_mod
        from repro.orchestrator.cache import ResultCache
        from repro.orchestrator.points import make_point

        calls = []
        digest = campaign_mod.point_digest

        def counting(point, *args, **kwargs):
            calls.append(point)
            return digest(point, *args, **kwargs)

        monkeypatch.setattr(campaign_mod, "point_digest", counting)
        cache = ResultCache(tmp_path)
        campaign = campaign_mod.Campaign(cache=cache)
        for scheme in ("ppa", "baseline"):
            campaign.add_run("rb", scheme, length=300, warmup=0)
        results = campaign.run()
        assert not any(result.cache_hit for result in results)
        assert calls == campaign.points
        assert len(cache.entries()) == 2

    def test_warm_campaign_decodes_nothing_and_stats_decode_once(
            self, fig16_cache, monkeypatch):
        from repro.orchestrator import campaign as campaign_mod

        cache, point = fig16_cache
        calls = []
        decode = campaign_mod.stats_from_payload

        def counting(payload):
            calls.append(payload)
            return decode(payload)

        monkeypatch.setattr(campaign_mod, "stats_from_payload", counting)
        campaign = campaign_mod.Campaign(cache=cache)
        campaign.extend([point] * 3)
        results = campaign.run()
        assert all(result.cache_hit for result in results)
        assert [r.to_dict()["cycles"] for r in results] \
            == [results[0].cycles] * 3
        assert calls == []
        stats = results[0].stats
        assert len(calls) == 1
        assert results[0].stats is stats
        assert len(calls) == 1


@pytest.mark.usefixtures("untraced_unsanitized")
class TestSinglePointsOnTheKernel:
    """Default single runs of kernel schemes go through the one-lane
    kernel: a ``ppa`` run builds its processor only when ``crash_api`` is
    read, and each trace's memory script and store-value stream are built
    once and live exactly as long as the trace."""

    KINDS = (("ppa", "ooo"), ("baseline", "ooo"), ("capri", "ooo"),
             ("eadr", "ooo"), ("ppa", "inorder"), ("baseline", "inorder"))
    APPS = ("mcf", "lbm", "libquantum", "rb", "pc", "water-ns", "lulesh",
            "xsbench")

    @pytest.fixture(autouse=True)
    def default_engine(self, monkeypatch):
        from repro.engine import ENGINE_ENV_VAR
        from repro.engine.memscript import clear_scripts

        monkeypatch.delenv(ENGINE_ENV_VAR, raising=False)
        interning.clear()
        clear_scripts()
        yield
        interning.clear()
        clear_scripts()

    @pytest.mark.parametrize("core", ["ooo", "inorder"])
    def test_unread_crash_api_builds_no_processor(self, core, monkeypatch):
        from repro.core.processor import PersistentProcessor
        from repro.inorder.processor import InOrderPersistentProcessor

        built = []

        def counting(init):
            def wrapper(self, *args, **kwargs):
                built.append(self)
                init(self, *args, **kwargs)
            return wrapper

        for cls in (PersistentProcessor, InOrderPersistentProcessor):
            monkeypatch.setattr(cls, "__init__", counting(cls.__init__))
        result = simulate("rb", scheme="ppa", core=core, length=600)
        assert result.stats.instructions == 600
        assert built == []
        api = result.crash_api
        assert built == [api]
        assert result.crash_api is api
        assert len(built) == 1

    def test_memory_scripts_live_as_long_as_their_traces(self, monkeypatch):
        from repro.engine import memscript

        builds = []
        build = memscript.build_script

        def counting(trace, *args, **kwargs):
            builds.append(trace)
            return build(trace, *args, **kwargs)

        monkeypatch.setattr(memscript, "build_script", counting)
        calls = [(app, scheme, core, seed)
                 for seed, (scheme, core) in enumerate(self.KINDS, 1)
                 for app in self.APPS]
        assert len(calls) == 48
        for _ in range(2):                  # fresh, then replayed
            for app, scheme, core, seed in calls:
                simulate(app, scheme=scheme, core=core, length=300,
                         seed=seed)
        assert len(builds) == 48
        assert len({id(trace) for trace in builds}) == 48

    def test_dropping_a_trace_frees_its_script(self):
        import weakref

        from repro.engine import memscript

        simulate("rb", scheme="baseline", length=300, seed=5)
        [trace] = interning._traces.values()
        ref = weakref.ref(trace)
        assert len(memscript._scripts[trace]) == 1
        del trace
        interning.clear()
        gc.collect()
        assert ref() is None
        assert len(memscript._scripts) == 0
        assert not [obj for obj in gc.get_objects()
                    if type(obj) is memscript.MemScript]

    def test_value_stream_lives_with_its_trace(self, monkeypatch):
        import weakref

        from repro.engine import memscript
        from repro.orchestrator.campaign import Campaign
        from repro.orchestrator.campaigns import build_sweep, sweep_spec

        streams = []
        stream_of = memscript._functional_values

        def counting(dec):
            stream = stream_of(dec)
            streams.append(weakref.ref(stream))
            return stream

        monkeypatch.setattr(memscript, "_functional_values", counting)
        # Both kernels read one stream per trace, whatever the scheme.
        for _ in range(3):                  # fresh, then replayed
            for scheme, core in (("ppa", "ooo"), ("capri", "ooo"),
                                 ("ppa", "inorder")):
                simulate("rb", scheme=scheme, core=core, length=300,
                         seed=5)
        assert len(streams) == 1
        [trace] = interning._traces.values()
        del trace
        interning.clear()
        gc.collect()
        assert streams[0]() is None
        # clear_scripts() drops a stream whose trace is still interned.
        simulate("rb", scheme="ppa", core="inorder", length=300, seed=5)
        assert len(streams) == 2 and streams[1]() is not None
        memscript.clear_scripts()
        gc.collect()
        assert streams[1]() is None
        # fig16 points track no values: its cohorts build no stream.
        campaign = Campaign(cache=None)
        for point in build_sweep(sweep_spec("fig16", apps=["rb"],
                                            length=300)):
            campaign.add(point)
        results = campaign.run()
        assert all(r.ok and r.engine == "batched" for r in results)
        assert len(streams) == 2


@pytest.mark.usefixtures("untraced_unsanitized")
class TestNoRecordObjects:
    """Store and region logs are columns from end to end: the kernel
    writes them, a payload packs them and a decode reads them back
    without building a :class:`StoreRecord` or :class:`RegionRecord`
    (records are built only when someone iterates or indexes a log)."""

    @pytest.fixture
    def built(self, monkeypatch):
        from repro.pipeline.stats import RegionRecord, StoreRecord

        built = []
        for cls in (StoreRecord, RegionRecord):
            def counting(self, *args, __init=cls.__init__, **kwargs):
                built.append(type(self).__name__)
                __init(self, *args, **kwargs)

            monkeypatch.setattr(cls, "__init__", counting)
        return built

    def test_cold_fig16_campaign_and_packing_build_no_records(
            self, built, tmp_path):
        from repro.orchestrator.cache import ResultCache
        from repro.orchestrator.campaign import Campaign
        from repro.orchestrator.campaigns import build_sweep, sweep_spec

        campaign = Campaign(cache=ResultCache(tmp_path), jobs=1,
                            engine="auto")
        campaign.extend(build_sweep(sweep_spec("fig16", apps=["rb", "mcf"],
                                               length=2_000)))
        results = campaign.run()
        assert all(r.ok and not r.cache_hit for r in results)
        assert {r.payload["engine"] for r in results} == {"batched"}
        assert built == []
        # The counter counts: reading a log's records builds them.
        stats = results[0].stats
        assert built == []
        assert len(list(stats.stores)) == len(stats.stores) > 0
        assert built.count("StoreRecord") == len(stats.stores)

    def test_warm_run_points_over_fig8_builds_no_records(
            self, built, tmp_path, monkeypatch):
        from repro.experiments import runner
        from repro.experiments.figures import run_fig8
        from repro.orchestrator.points import make_point

        monkeypatch.setattr(runner, "_L2", None)
        monkeypatch.setattr(runner, "_L2_CONFIGURED", False)
        runner.configure_disk_cache(tmp_path)
        points = [make_point(app, scheme, length=2_000)
                  for app in ("rb", "gcc")
                  for scheme in ("ppa", "capri", "baseline")]
        cold = [stats.to_dict() for stats in runner.run_points(points)]
        del built[:]
        warm = runner.run_points(points)
        assert [stats.mean_region_instrs for stats in warm]
        assert [stats.to_dict() for stats in warm] == cold
        figure = run_fig8(apps=["rb", "gcc"], length=2_000)
        assert figure.rows[0][1] == warm[0].cycles / warm[2].cycles
        assert built == []
