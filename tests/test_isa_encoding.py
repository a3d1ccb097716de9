"""Binary trace serialization round trips."""

import io

import pytest

from repro.isa.encoding import dump_trace, dumps_trace, load_trace
from repro.isa.instructions import Opcode
from repro.workloads.profiles import profile_by_name
from repro.workloads.synthetic import generate_trace


@pytest.fixture(scope="module")
def trace():
    return generate_trace(profile_by_name("gcc"), length=1_500, seed=9)


class TestRoundTrip:
    def test_bytes_round_trip(self, trace):
        restored = load_trace(dumps_trace(trace))
        assert len(restored) == len(trace)
        assert restored.name == trace.name
        for original, copy in zip(trace, restored):
            assert copy.pc == original.pc
            assert copy.opcode is original.opcode
            assert copy.dest == original.dest
            assert copy.srcs == original.srcs
            assert copy.addr == original.addr
            assert copy.mispredicted == original.mispredicted

    def test_file_round_trip(self, trace, tmp_path):
        path = tmp_path / "gcc.ppatrace"
        dump_trace(trace, path)
        restored = load_trace(path)
        assert len(restored) == len(trace)

    def test_identical_simulation_results(self, trace):
        from repro.config import skylake_default
        from repro.persistence.ppa import PpaPolicy
        from repro.pipeline.core import OoOCore

        restored = load_trace(dumps_trace(trace))
        a = OoOCore(skylake_default(), PpaPolicy(),
                    track_values=False).run(trace)
        b = OoOCore(skylake_default(), PpaPolicy(),
                    track_values=False).run(restored)
        assert a.cycles == b.cycles
        assert len(a.regions) == len(b.regions)


class TestFormat:
    def test_size_is_compact(self, trace):
        blob = dumps_trace(trace)
        assert len(blob) < len(trace) * 30

    def test_bad_magic_rejected(self):
        with pytest.raises(ValueError):
            load_trace(b"NOTATRACExxxxxxxxxxxx")

    def test_truncated_stream_rejected(self, trace):
        blob = dumps_trace(trace)
        with pytest.raises(ValueError):
            load_trace(blob[:-7])

    def test_all_opcodes_encode(self):
        from repro.isa.instructions import Instruction, int_reg
        from repro.isa.trace import Trace

        instrs = []
        for index, opcode in enumerate(Opcode):
            kwargs = {"pc": 4 * index, "opcode": opcode}
            if opcode.defines_reg:
                kwargs["dest"] = int_reg(1)
            if opcode is Opcode.STORE:
                kwargs["srcs"] = (int_reg(2),)
            if opcode.is_mem:
                kwargs["addr"] = 0x1000
            instrs.append(Instruction(**kwargs))
        restored = load_trace(dumps_trace(Trace(instrs, name="ops")))
        assert [i.opcode for i in restored] == list(Opcode)

    def test_sync_heavy_trace_round_trips(self):
        trace = generate_trace(profile_by_name("rb"), length=1_000)
        restored = load_trace(dumps_trace(trace))
        syncs = [i for i, ins in enumerate(restored)
                 if ins.opcode is Opcode.SYNC]
        original = [i for i, ins in enumerate(trace)
                    if ins.opcode is Opcode.SYNC]
        assert syncs == original

    def test_stream_object_supported(self, trace):
        buffer = io.BytesIO()
        dump_trace(trace, buffer)
        buffer.seek(0)
        assert len(load_trace(buffer)) == len(trace)

    def test_generated_trace_dumps_from_its_columns(self):
        from repro.isa.trace import Trace

        generated = generate_trace(profile_by_name("rb"), length=1_000,
                                   seed=3)
        blob = dumps_trace(generated)
        assert generated._instructions is None
        assert blob == dumps_trace(Trace(generated.instructions,
                                         name=generated.name))
