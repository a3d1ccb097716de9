"""Shared CLI conventions for every ``python -m repro.*`` entry point.

All repro CLIs follow the same contract:

* ``--json`` (added via :func:`add_json_flag`) switches the command from
  human-readable tables to one machine-readable JSON document on stdout,
  emitted with :func:`emit_json` (stable 2-space indent, ``allow_nan``
  off so the output is strict JSON);
* the exit status is the verdict — 0 on success, nonzero when the
  command's check failed (a failing point, a violated invariant, a
  regressed benchmark) — in both output modes, so scripts can drop the
  table parsing and keep the ``if``;
* a run limit that cannot mean anything (:func:`reject_bad_limits`) is refused
  with one line on stderr and exit status 2; the constructors behind the
  CLIs refuse the same values with a ``ValueError`` (:func:`check_limits`).

Keeping the flag and the emission in one module stops per-CLI drift in
wording, formatting, and NaN handling.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any

JSON_HELP = "emit machine-readable JSON instead of tables"


def add_json_flag(parser: argparse.ArgumentParser,
                  what: str | None = None) -> None:
    """Add the standard ``--json`` flag to ``parser`` (or a subparser)."""
    help_text = (f"emit {what} as machine-readable JSON instead of tables"
                 if what else JSON_HELP)
    parser.add_argument("--json", action="store_true", help=help_text)


def emit_json(payload: Any) -> None:
    """Print one JSON document the way every repro CLI does."""
    print(json.dumps(payload, indent=2, allow_nan=False))


# Every run limit a repro CLI or constructor takes: (name, the test a
# given value must pass, what the value must be).
_LIMITS = (
    ("timeout", lambda v: v > 0, "must be > 0 seconds (got {:g})"),
    ("length", lambda v: v >= 1,
     "must be at least 1 instruction (got {})"),
    ("threads", lambda v: v >= 1, "must be at least 1 thread (got {})"),
    ("jobs", lambda v: v >= 1, "must be at least 1 job (got {})"),
    ("workers", lambda v: v >= 1, "must be at least 1 worker (got {})"),
    ("quota", lambda v: v >= 1, "must be a positive integer (got {})"),
    ("retries", lambda v: v >= 0, "must be at least 0 (got {})"),
    ("sweeps", lambda v: v >= 0, "must be at least 0 (got {})"),
    ("crash", lambda v: 0 <= v <= 1,
     "must be a fraction in [0, 1] (got {:g})"),
)


def _bad_limit(values) -> tuple[str, str] | None:
    """(name, requirement) of the first limit in ``values`` (a name ->
    value lookup; None or absent passes) that fails its test."""
    for name, valid, requirement in _LIMITS:
        value = values(name)
        if value is not None and not valid(value):
            return name, requirement.format(value)
    return None


def check_limits(**values: Any) -> None:
    """Raise :class:`ValueError` naming the first argument that
    :func:`reject_bad_limits` would refuse on a command line; None
    passes. Constructors (``Campaign``, ``FleetScheduler``) call it, so
    an in-process caller gets the CLI's rule, not a silently clamped
    value."""
    bad = _bad_limit(values.get)
    if bad is not None:
        raise ValueError(" ".join(bad))


def reject_bad_limits(args: argparse.Namespace) -> bool:
    """Refuse a run limit that cannot mean anything (a ``--timeout`` that
    is not positive, a ``--length``, ``--threads``, ``--jobs``,
    ``--workers`` or ``--quota`` below one, negative ``--retries`` or
    ``--sweeps``, a ``--crash`` fraction outside [0, 1]): print one line
    on stderr and return True (the caller exits 2). Absent flags pass."""
    bad = _bad_limit(lambda name: getattr(args, name, None))
    if bad is None:
        return False
    print(f"--{bad[0]} {bad[1]}", file=sys.stderr)
    return True
