"""Shared fixtures for the test suite."""

from __future__ import annotations

import re

import pytest

from repro.config import skylake_default
from repro.experiments.runner import configure_disk_cache
from repro.isa.instructions import Instruction, Opcode, fp_reg, int_reg
from repro.isa.trace import Trace
from repro.workloads.profiles import profile_by_name
from repro.workloads.synthetic import TraceGenerator


@pytest.fixture
def config():
    return skylake_default()


@pytest.fixture(autouse=True)
def _isolated_run_cache():
    """Keep the unit suite off any ambient disk cache ($REPRO_CACHE_DIR),
    so experiment runs never leak between tests."""
    configure_disk_cache(None)
    yield
    configure_disk_cache(None)


@pytest.fixture
def untraced_unsanitized(monkeypatch):
    """Tracing and the sanitizer off for one test, whatever the job's
    ``REPRO_TRACE``/``REPRO_SANITIZE`` ask for. Tests that assert batched
    routing or default labels use it: either switch rightly sends runs to
    the scalar kernel. ``REPRO_SANITIZE=1`` installs the probes when
    ``repro`` is imported, so they are lifted for the test and put back
    after it."""
    from repro import sanitizer
    from repro.config import SANITIZE_ENV_VAR, TRACE_ENV_VAR

    monkeypatch.delenv(TRACE_ENV_VAR, raising=False)
    monkeypatch.delenv(SANITIZE_ENV_VAR, raising=False)
    was_installed = sanitizer.installed()
    sanitizer.uninstall()
    yield
    if was_installed:
        sanitizer.install()


# The stats tree's "cycles" in a stored cache entry: the first match on
# the entry's tree line, where the tree is plain JSON (the payload line
# before it carries the payload's own top-level "cycles").
_TREE_CYCLES = re.compile(rb'\n,"tree":[^\n]*?[{,]"cycles":-?(\d+)')


@pytest.fixture
def edit_stats_cycles():
    """Edit one digit of the stats tree's ``cycles`` inside a stored
    cache entry's payload: ``edit(path)`` returns the (old, new) digits
    of that number's integer part. The entry still parses as JSON."""
    def edit(path) -> tuple[int, int]:
        data = path.read_bytes()
        match = _TREE_CYCLES.search(data)
        assert match is not None, "no stats cycles in the entry"
        at = match.end(1) - 1
        digit = data[at] - ord("0")
        new = digit + 1 if digit < 9 else digit - 1
        path.write_bytes(data[:at] + bytes([ord("0") + new])
                         + data[at + 1:])
        old_value = int(match.group(1))
        return old_value, old_value - digit + new
    return edit


@pytest.fixture
def gcc_profile():
    return profile_by_name("gcc")


@pytest.fixture
def small_trace(gcc_profile):
    """A short but realistic trace."""
    return TraceGenerator(gcc_profile, seed=7).generate(2_000)


def make_alu(pc: int, dest: int, srcs=(1, 2)) -> Instruction:
    return Instruction(pc=pc, opcode=Opcode.INT_ALU, dest=int_reg(dest),
                       srcs=tuple(int_reg(s) for s in srcs))


def make_store(pc: int, data: int, addr: int) -> Instruction:
    return Instruction(pc=pc, opcode=Opcode.STORE,
                       srcs=(int_reg(data), int_reg(0)), addr=addr)


def make_load(pc: int, dest: int, addr: int) -> Instruction:
    return Instruction(pc=pc, opcode=Opcode.LOAD, dest=int_reg(dest),
                       srcs=(int_reg(0),), addr=addr)


def make_fp(pc: int, dest: int, srcs=(1, 2)) -> Instruction:
    return Instruction(pc=pc, opcode=Opcode.FP_ALU, dest=fp_reg(dest),
                       srcs=tuple(fp_reg(s) for s in srcs))


def tiny_trace(instructions) -> Trace:
    return Trace(instructions, name="tiny")


@pytest.fixture
def builders():
    """Instruction-builder helpers as one object."""
    class Builders:
        alu = staticmethod(make_alu)
        store = staticmethod(make_store)
        load = staticmethod(make_load)
        fp = staticmethod(make_fp)
        trace = staticmethod(tiny_trace)
    return Builders
