"""Execution engines for the simulation kernel.

The scalar kernel (:mod:`repro.pipeline.core`) runs one point at a time;
the batched kernel (:mod:`repro.engine.batched`) runs a *cohort* of
compatible points: it loads their shared trace and memory script once,
then walks each lane to the end with its state in locals, bit-exact
with the scalar model. :mod:`repro.engine.plan` is the only code that
decides whether a point runs on the kernel or on the scalar kernel, and
which points share a cohort; the decision is made once, where the points
are planned, and travels with each unit to whatever process runs it.

Engine selection is uniform across the stack — ``repro.simulate(...,
engine=...)``, ``Campaign(engine=...)``, the orchestrator/service CLIs —
and defaults to the ``REPRO_ENGINE`` environment variable (``auto`` when
unset), read in the process that plans. ``auto`` and ``batched`` are two
spellings of one mode: every batchable point runs on the kernel, a lone
point as a one-lane cohort. ``scalar`` runs everything on the scalar
kernel, the reference model.
"""

from __future__ import annotations

import os

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


__all__ = [
    "ENGINES",
    "ENGINE_ENV_VAR",
    "default_engine",
    "resolve_engine",
]
