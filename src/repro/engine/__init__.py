"""Execution engines for the simulation kernel.

The scalar kernel (:mod:`repro.pipeline.core`) runs one point at a time;
the batched kernel (:mod:`repro.engine.batched`) runs a *cohort* of
compatible points: it loads their shared trace and memory script once,
then walks each lane to the end with its state in locals, bit-exact
with the scalar model. :mod:`repro.engine.plan` decides which points form
cohorts.

Engine selection is uniform across the stack — ``repro.simulate(...,
engine=...)``, ``Campaign(engine=...)``, the orchestrator/service CLIs —
and defaults to the ``REPRO_ENGINE`` environment variable (``auto`` when
unset). ``auto`` and ``batched`` are two spellings of one mode: every
batchable point runs on the kernel, a lone point as a one-lane cohort.
``scalar`` runs everything on the scalar kernel, the reference model.
"""

from __future__ import annotations

import contextlib
import os
from typing import Iterator

ENGINE_ENV_VAR = "REPRO_ENGINE"
ENGINES = ("auto", "scalar", "batched")

def default_engine() -> str:
    """The session default: ``REPRO_ENGINE`` or ``auto``."""
    value = os.environ.get(ENGINE_ENV_VAR, "").strip().lower()
    return value if value in ENGINES else "auto"


def resolve_engine(engine: str | None) -> str:
    """Validate an explicit engine choice, or fall back to the default."""
    if engine is None:
        return default_engine()
    if engine not in ENGINES:
        raise ValueError(
            f"unknown engine {engine!r}; expected one of {ENGINES}")
    return engine


@contextlib.contextmanager
def engine_env(engine: str | None) -> Iterator[None]:
    """Pin the session default engine (``REPRO_ENGINE``) for the scope.

    Code below an orchestration layer resolves its engine from the
    environment; this lets a caller with an explicit ``engine=`` make
    that resolution agree with it. No-op when ``engine`` is None or
    already the default."""
    engine = resolve_engine(engine)
    if engine == default_engine():
        yield
        return
    old = os.environ.get(ENGINE_ENV_VAR)
    os.environ[ENGINE_ENV_VAR] = engine
    try:
        yield
    finally:
        if old is None:
            os.environ.pop(ENGINE_ENV_VAR, None)
        else:
            os.environ[ENGINE_ENV_VAR] = old


def runtime_scalar_reason() -> str | None:
    """Why batching is off for runs started *right now*, regardless of the
    requested engine — or None when batching is allowed.

    The batched kernel emits no telemetry and bypasses the classes the
    sanitizer patches its probes onto, so with either active the scalar
    kernel (which both instrument exactly) must run instead.
    """
    from repro import telemetry

    if telemetry.tracer_for_run() is not None:
        return "telemetry tracer active"
    from repro.sanitizer import installed

    if installed():
        return "sanitizer probes installed"
    return None


__all__ = [
    "ENGINES",
    "ENGINE_ENV_VAR",
    "default_engine",
    "engine_env",
    "resolve_engine",
    "runtime_scalar_reason",
]
