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
  with one line on stderr and exit status 2.

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


def reject_bad_limits(args: argparse.Namespace) -> bool:
    """Refuse a ``--timeout`` that is not positive or a ``--length`` below
    one instruction: print one line on stderr and return True (the caller
    exits 2). Absent flags pass."""
    timeout = getattr(args, "timeout", None)
    length = getattr(args, "length", None)
    if timeout is not None and timeout <= 0:
        message = f"--timeout must be > 0 seconds (got {timeout:g})"
    elif length is not None and length < 1:
        message = f"--length must be at least 1 instruction (got {length})"
    else:
        return False
    print(message, file=sys.stderr)
    return True
