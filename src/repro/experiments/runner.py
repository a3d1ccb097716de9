"""How the experiments run their simulation points.

Every figure builds its full point list first and hands it to
:func:`run_points`, which runs one :class:`repro.orchestrator.Campaign`
over it: cache misses are batched into kernel cohorts, and results are
read from (and written to) the content-addressed disk cache configured
here.
"""

from __future__ import annotations

import os

from repro.orchestrator.cache import ResultCache
from repro.orchestrator.campaign import Campaign, PointResult
from repro.orchestrator.points import SimPoint
from repro.pipeline.stats import CoreStats

__all__ = ["configure_disk_cache", "disk_cache", "run_point_results",
           "run_points"]

_L2: ResultCache | None = None
_L2_CONFIGURED = False


def configure_disk_cache(root: str | os.PathLike | None) -> None:
    """Enable (or, with ``None``, disable) the L2 disk cache."""
    global _L2, _L2_CONFIGURED
    _L2 = ResultCache(root) if root is not None else None
    _L2_CONFIGURED = True


def disk_cache() -> ResultCache | None:
    """The active L2 cache. Defaults to ``$REPRO_CACHE_DIR`` when that is
    set and :func:`configure_disk_cache` was never called."""
    global _L2, _L2_CONFIGURED
    if not _L2_CONFIGURED:
        env = os.environ.get("REPRO_CACHE_DIR")
        _L2 = ResultCache(env) if env else None
        _L2_CONFIGURED = True
    return _L2


def run_point_results(points: list[SimPoint]) -> list[PointResult]:
    """Run ``points`` as one campaign on the disk cache; results come back
    in submission order, their stats still undecoded. A failed point
    raises :class:`repro.orchestrator.CampaignError`."""
    campaign = Campaign(cache=disk_cache(), fail_fast=True)
    campaign.extend(points)
    return campaign.run()


def run_points(points: list[SimPoint]) -> list[CoreStats]:
    """:func:`run_point_results`, decoded to each point's stats."""
    return [result.stats for result in run_point_results(points)]
