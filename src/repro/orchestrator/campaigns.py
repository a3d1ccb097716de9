"""Named campaign builders for the paper's sensitivity sweeps.

Each sweep (Figures 15-18) is the same shape: a list of configurations, a
set of applications, and a ``ppa``-over-``baseline`` slowdown per cell.
``build_sweep`` expands that into the flat point list a :class:`Campaign`
schedules, and ``summarize_sweep`` folds the results back into the
figure's (config -> gmean slowdown) table.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from repro.analysis.stats import gmean
from repro.config import SystemConfig, skylake_default
from repro.pipeline.stats import CoreStats

from repro.orchestrator.points import (
    DEFAULT_WARMUP,
    SimPoint,
    make_point,
)

SWEEP_LENGTH = 12_000

# The paper's Figures 15-18 sweep "memory-intensive CPU2006/Mini-apps,
# SPLASH3, and WHISPER"; this is our equivalent subset.
SWEEP_APPS = ("mcf", "lbm", "libquantum", "rb", "pc", "water-ns",
              "lulesh", "xsbench")

# Figure 16's (int, fp) physical register file sizes.
PRF_SIZES = ((80, 80), (100, 100), (120, 120), (140, 140), (180, 168),
             (280, 224))


@dataclass(frozen=True)
class SweepSpec:
    """One figure-style sweep: labeled configs x apps x (ppa, baseline)."""

    name: str
    title: str
    configs: tuple[tuple[str, SystemConfig], ...]
    apps: tuple[str, ...] = SWEEP_APPS
    schemes: tuple[str, ...] = ("ppa", "baseline")
    length: int = SWEEP_LENGTH
    # Core model every point runs on ("ooo" or "inorder"). The in-order
    # model always runs cold, so in-order sweeps are built with warmup=0
    # — that keeps their cohort keys (and cache digests) canonical.
    core: str = "ooo"


def _prf_spec() -> SweepSpec:
    base = skylake_default()
    return SweepSpec(
        name="fig16", title="PPA slowdown vs PRF size",
        configs=tuple((f"{i}/{f}", base.with_prf(i, f))
                      for i, f in PRF_SIZES))


def _wpq_spec() -> SweepSpec:
    base = skylake_default()
    return SweepSpec(
        name="fig15", title="PPA slowdown vs WPQ size",
        configs=tuple((f"wpq={n}", base.with_wpq(n))
                      for n in (8, 16, 24)))


def _csq_spec() -> SweepSpec:
    base = skylake_default()
    return SweepSpec(
        name="fig17", title="PPA slowdown vs CSQ size",
        configs=tuple((f"csq={n}", base.with_csq(n))
                      for n in (10, 20, 30, 40, 50)))


def _bandwidth_spec() -> SweepSpec:
    base = skylake_default()
    return SweepSpec(
        name="fig18", title="PPA slowdown vs NVM write bandwidth",
        configs=tuple((f"gbs={g}", base.with_write_bandwidth(g))
                      for g in (1.0, 2.3, 4.0, 6.0)))


def _capri_spec() -> SweepSpec:
    # Fig8-shaped comparator sweep widened over the fig16 PRF grid so
    # every (app, scheme) column forms a cohort. With capri in
    # KERNEL_SCHEMES all three scheme columns batch.
    base = skylake_default()
    return SweepSpec(
        name="capri", title="PPA and Capri slowdown vs PRF size",
        configs=tuple((f"{i}/{f}", base.with_prf(i, f))
                      for i, f in PRF_SIZES),
        schemes=("ppa", "capri", "baseline"))


def _inorder_spec() -> SweepSpec:
    # §7.1's value-CSQ in-order core over the fig16 PRF grid. Both
    # scheme columns run through the batched in-order lane kernel (the
    # facade's crash-API constraint does not apply to stats-only points).
    base = skylake_default()
    sizes = ((80, 80), (120, 120), (180, 168), (280, 224))
    return SweepSpec(
        name="inorder", title="In-order PPA slowdown vs PRF size",
        configs=tuple((f"{i}/{f}", base.with_prf(i, f)) for i, f in sizes),
        core="inorder")


SWEEPS: dict[str, Callable[[], SweepSpec]] = {
    "capri": _capri_spec,
    "fig15": _wpq_spec,
    "fig16": _prf_spec,
    "fig17": _csq_spec,
    "fig18": _bandwidth_spec,
    "inorder": _inorder_spec,
}


def sweep_spec(name: str, apps: Sequence[str] | None = None,
               length: int | None = None) -> SweepSpec:
    """The named sweep, optionally narrowed to a subset of apps or a
    different trace length."""
    try:
        spec = SWEEPS[name]()
    except KeyError:
        known = ", ".join(sorted(SWEEPS))
        raise ValueError(f"unknown sweep {name!r} (known: {known})") \
            from None
    updates: dict = {}
    if apps is not None:
        updates["apps"] = tuple(apps)
    if length is not None:
        updates["length"] = length
    if updates:
        from dataclasses import replace

        spec = replace(spec, **updates)
    return spec


def build_sweep(spec: SweepSpec) -> list[SimPoint]:
    """Expand a sweep into the flat, deterministic point list."""
    points = []
    # The in-order model always runs cold; warmup=0 keeps the points'
    # cohort keys and cache digests canonical for that core.
    warmup = 0 if spec.core == "inorder" else DEFAULT_WARMUP
    for label, config in spec.configs:
        for app in spec.apps:
            for scheme in spec.schemes:
                points.append(make_point(
                    app, scheme, config=config, length=spec.length,
                    warmup=warmup, core=spec.core,
                    label=f"{spec.name}:{label}:{app}:{scheme}"))
    return points


def summarize_sweep(spec: SweepSpec,
                    stats: Sequence[CoreStats | None]) \
        -> list[tuple[str, float]]:
    """(config label, gmean slowdown) rows from a finished sweep.

    ``stats`` holds one result per point of the list ``build_sweep``
    produced, in that order (``None`` for a failed point, which raises);
    :meth:`Campaign.run` and ``run_points`` both keep submission order.
    Only each result's ``cycles`` is read, so a
    :class:`~repro.orchestrator.campaign.PointResult` serves as well as
    its decoded stats."""
    return summarize_cycles(spec, [None if result is None else result.cycles
                                   for result in stats])


def summarize_cycles(spec: SweepSpec, cycles: Sequence[float | None]) \
        -> list[tuple[str, float]]:
    """:func:`summarize_sweep` over per-point cycle counts."""
    rows = []
    cursor = iter(cycles)
    for label, _config in spec.configs:
        ratios = []
        for app in spec.apps:
            per_scheme = {}
            for scheme in spec.schemes:
                value = next(cursor)
                if value is None:
                    raise RuntimeError(f"point {spec.name}:{label}:{app}:"
                                       f"{scheme} has no result")
                per_scheme[scheme] = value
            ratios.append(per_scheme["ppa"] / per_scheme["baseline"])
        rows.append((label, gmean(ratios)))
    return rows


def build_matrix(apps: Sequence[str], schemes: Sequence[str],
                 length: int = SWEEP_LENGTH,
                 config: SystemConfig | None = None) -> list[SimPoint]:
    """A plain apps x schemes campaign on one configuration."""
    return [
        make_point(app, scheme, config=config, length=length,
                   label=f"{app}:{scheme}")
        for app in apps
        for scheme in schemes
    ]
