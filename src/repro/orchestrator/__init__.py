"""Parallel simulation-campaign orchestrator with a persistent result cache.

The layer between the simulator and everything that consumes it:

* :class:`SimPoint` / :func:`make_point` — one (app x scheme x config)
  simulation, fully pinned down (``repro.orchestrator.points``);
* :class:`Campaign` — fan points out over a process pool with bounded
  retries, per-point timeouts, deterministic result ordering, and progress
  telemetry (``repro.orchestrator.campaign``);
* :class:`ResultCache` — content-addressed on-disk L2 keyed by a stable
  hash of the full run parameters plus a code-version salt
  (``repro.orchestrator.cache``);
* serialization for ``CoreStats``/persist logs/configs/profiles
  (``repro.orchestrator.serialize``);
* named sweep campaigns for the paper's sensitivity figures
  (``repro.orchestrator.campaigns``) and a CLI
  (``python -m repro.orchestrator``).
"""

from repro.orchestrator.cache import (
    CacheCounters,
    ResultCache,
    code_salt,
    default_cache_dir,
    point_digest,
)
from repro.orchestrator.campaign import (
    Campaign,
    CampaignError,
    CampaignTelemetry,
    PointResult,
)
from repro.orchestrator.execute import simulate_point
from repro.orchestrator.points import SimPoint, config_for, make_point

__all__ = [
    "CacheCounters",
    "Campaign",
    "CampaignError",
    "CampaignTelemetry",
    "PointResult",
    "ResultCache",
    "SimPoint",
    "code_salt",
    "config_for",
    "default_cache_dir",
    "make_point",
    "point_digest",
    "simulate_point",
]
