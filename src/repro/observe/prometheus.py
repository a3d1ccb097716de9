"""Prometheus text exposition (format 0.0.4) for the fleet scheduler.

:func:`render_prometheus` projects a :class:`FleetScheduler`'s metrics
registry plus its live fleet/tenant/cache state into the text format any
Prometheus-compatible scraper ingests. Mapping rules:

* registry name ``tenant.<t>.<rest>`` becomes family
  ``repro_tenant_<rest>{tenant="<t>"}`` — one family per metric, one
  labelled series per tenant;
* registry name ``service.scalar_reason.<slug>`` becomes one labelled
  family ``repro_service_scalar_reason{reason="<slug>"}`` — the batch
  planner's per-reason scalar-fallback counts stay a single family no
  matter how many distinct reasons show up;
* any other dotted name maps to ``repro_`` + dots→underscores;
* histograms render as native Prometheus histograms (cumulative
  ``_bucket{le=...}`` series over fixed log-scale bounds, ``_sum``,
  ``_count``) plus companion ``_p50``/``_p95``/``_p99`` gauges computed
  from the exact raw samples — scrape-friendly *and* exact.

:func:`parse_prometheus` is the strict validating parser CI runs against
a live daemon: it rejects malformed names/labels/escapes, samples with
no ``TYPE``, duplicate series, negative counters, and histograms whose
buckets are non-cumulative or whose ``+Inf`` bucket disagrees with
``_count``.
"""

from __future__ import annotations

import math
import re
import time
from dataclasses import dataclass, field
from typing import Any

CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

_NAME_RE = re.compile(r"[a-zA-Z_:][a-zA-Z0-9_:]*")
_LABEL_NAME_RE = re.compile(r"[a-zA-Z_][a-zA-Z0-9_]*")
_TYPES = frozenset({"counter", "gauge", "histogram", "summary", "untyped"})

# Fixed, deterministic bucket bounds by metric flavour. Latencies span
# sub-millisecond cache probes to minutes-long simulations; size/width
# metrics are small integers; throughputs sit in the 1e3..1e8 range.
SECONDS_BUCKETS = (0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25,
                   0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0, 120.0, 300.0)
COUNT_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0,
                 512.0, 1024.0)
RATE_BUCKETS = (1e3, 3e3, 1e4, 3e4, 1e5, 3e5, 1e6, 3e6, 1e7, 3e7, 1e8)

QUANTILES = ((50, "p50"), (95, "p95"), (99, "p99"))


def _sanitize(part: str) -> str:
    return re.sub(r"[^a-zA-Z0-9_]", "_", part)


def family_for(name: str) -> tuple[str, dict[str, str]]:
    """Map a dotted registry name to (family, labels)."""
    parts = name.split(".")
    if parts[0] == "tenant" and len(parts) >= 3:
        rest = "_".join(_sanitize(p) for p in parts[2:])
        return f"repro_tenant_{rest}", {"tenant": parts[1]}
    if parts[:2] == ["service", "scalar_reason"] and len(parts) >= 3:
        return "repro_service_scalar_reason", {"reason": ".".join(parts[2:])}
    return "repro_" + "_".join(_sanitize(p) for p in parts), {}


def buckets_for(family: str) -> tuple[float, ...]:
    """Deterministic bucket bounds for one histogram family."""
    if family.endswith("_seconds"):
        return SECONDS_BUCKETS
    if "per_sec" in family:
        return RATE_BUCKETS
    return COUNT_BUCKETS


def _escape_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"') \
                .replace("\n", "\\n")


def _escape_help(value: str) -> str:
    return value.replace("\\", "\\\\").replace("\n", "\\n")


def _format(value: float) -> str:
    if value == math.inf:
        return "+Inf"
    if value == -math.inf:
        return "-Inf"
    if value != value:                      # pragma: no cover — defensive
        return "NaN"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


class _Families:
    """Accumulates samples grouped per family (one TYPE block each)."""

    def __init__(self) -> None:
        self._fams: dict[str, dict[str, Any]] = {}

    def declare(self, family: str, ftype: str, help_text: str) -> None:
        fam = self._fams.get(family)
        if fam is None:
            self._fams[family] = {"type": ftype, "help": help_text,
                                  "samples": []}
        elif fam["type"] != ftype:
            raise ValueError(f"family {family} declared as {fam['type']} "
                             f"and {ftype}")

    def sample(self, family: str, suffix: str, labels: dict[str, str],
               value: float) -> None:
        self._fams[family]["samples"].append((suffix, labels, value))

    def add(self, family: str, ftype: str, help_text: str,
            labels: dict[str, str], value: float) -> None:
        self.declare(family, ftype, help_text)
        self.sample(family, "", labels, value)

    def add_histogram(self, family: str, help_text: str,
                      labels: dict[str, str],
                      samples: list[float]) -> None:
        self.declare(family, "histogram", help_text)
        ordered = sorted(samples)
        cursor = 0
        for bound in buckets_for(family):
            while cursor < len(ordered) and ordered[cursor] <= bound:
                cursor += 1
            self.sample(family, "_bucket",
                        {**labels, "le": _format(bound)}, cursor)
        self.sample(family, "_bucket", {**labels, "le": "+Inf"},
                    len(ordered))
        self.sample(family, "_sum", labels, sum(ordered))
        self.sample(family, "_count", labels, len(ordered))
        for percent, tag in QUANTILES:
            rank = max(0, math.ceil(percent / 100.0 * len(ordered)) - 1)
            exact = ordered[min(rank, len(ordered) - 1)] if ordered else 0.0
            self.add(f"{family}_{tag}", "gauge",
                     f"exact {tag} of {family}", labels, exact)

    def render(self) -> str:
        lines: list[str] = []
        for family in sorted(self._fams):
            fam = self._fams[family]
            lines.append(f"# HELP {family} {_escape_help(fam['help'])}")
            lines.append(f"# TYPE {family} {fam['type']}")
            for suffix, labels, value in fam["samples"]:
                label_text = ""
                if labels:
                    inner = ",".join(
                        f'{key}="{_escape_label(str(val))}"'
                        for key, val in labels.items())
                    label_text = "{" + inner + "}"
                lines.append(f"{family}{suffix}{label_text} "
                             f"{_format(value)}")
        return "\n".join(lines) + "\n"


def render_prometheus(scheduler) -> str:
    """The daemon's ``GET /metrics`` body for one scheduler."""
    fams = _Families()
    registry = scheduler.metrics

    for metric in registry.all_counters():
        family, labels = family_for(metric.name)
        fams.add(family, "counter", f"counter {metric.name}", labels,
                 metric.value)
    for metric in registry.all_gauges():
        family, labels = family_for(metric.name)
        fams.add(family, "gauge", f"gauge {metric.name}", labels,
                 metric.value)
    for metric in registry.all_histograms():
        family, labels = family_for(metric.name)
        fams.add_histogram(family, f"histogram {metric.name}", labels,
                           metric.snapshot())

    fams.add("repro_service_uptime_seconds", "gauge",
             "daemon uptime", {}, time.time() - scheduler.started_at)
    fams.add("repro_service_workers", "gauge",
             "process-pool fleet size", {}, scheduler.workers)
    fams.add("repro_service_pool_generation_current", "gauge",
             "current worker-fleet generation", {},
             scheduler.executor.generation)
    fams.add("repro_service_info", "gauge",
             "daemon configuration (always 1)",
             {"engine": scheduler.engine,
              "sanitize": "1" if scheduler.sanitize else "0"}, 1.0)

    for tenant in scheduler.tenants.values():
        labels = {"tenant": tenant.name}
        fams.add("repro_tenant_queued", "gauge",
                 "points waiting in the tenant queue", labels,
                 len(tenant.queue))
        fams.add("repro_tenant_inflight", "gauge",
                 "points currently on the fleet", labels, tenant.inflight)
        fams.add("repro_tenant_quota", "gauge",
                 "per-tenant in-flight cap", labels, tenant.quota)

    states: dict[str, int] = {}
    for job in scheduler.jobs.values():
        states[job.state] = states.get(job.state, 0) + 1
    for state in ("queued", "running", "done", "failed"):
        fams.add("repro_service_campaigns_by_state", "gauge",
                 "retained campaigns by state", {"state": state},
                 states.get(state, 0))

    cache = scheduler.cache
    if cache is not None:
        fams.add("repro_cache_hits", "counter",
                 "L2 result-cache hits", {}, cache.counters.hits)
        fams.add("repro_cache_misses", "counter",
                 "L2 result-cache misses", {}, cache.counters.misses)
        fams.add("repro_cache_staged", "gauge",
                 "entries served from memory, not yet on disk", {},
                 cache.staged)
        inventory = None
        snapshot = getattr(scheduler, "cache_inventory", None)
        if callable(snapshot):
            inventory = snapshot()
        if inventory:
            fams.add("repro_cache_entries", "gauge",
                     "cache entries on disk", {}, inventory["entries"])
            fams.add("repro_cache_bytes", "gauge",
                     "cache bytes on disk", {}, inventory["bytes"])
            fams.add("repro_cache_stale_schema_entries", "gauge",
                     "entries with an orphaned payload schema", {},
                     inventory["stale_schema"])
            fams.add("repro_cache_tmp_orphans", "gauge",
                     "orphaned *.tmp files from dead writers", {},
                     inventory["tmp_orphans"])
            for engine, count in sorted(inventory["engines"].items()):
                fams.add("repro_cache_entries_by_engine", "gauge",
                         "current-salt entries by producing engine",
                         {"engine": engine}, count)
    return fams.render()


# ---------------------------------------------------------------------------
# The strict validating parser (CI runs this against a live daemon)
# ---------------------------------------------------------------------------

@dataclass
class ParsedMetrics:
    """Validated exposition: declared families plus every sample."""

    families: dict[str, dict[str, str]] = field(default_factory=dict)
    # (sample name, sorted label items) -> value
    samples: dict[tuple[str, tuple[tuple[str, str], ...]], float] = \
        field(default_factory=dict)

    def value(self, name: str, **labels: str) -> float:
        key = (name, tuple(sorted(labels.items())))
        if key not in self.samples:
            raise KeyError(f"no sample {name} with labels {labels}")
        return self.samples[key]

    def series(self, name: str) -> list[tuple[dict[str, str], float]]:
        """Every (labels, value) series of one sample name."""
        return [(dict(labels), value)
                for (sample, labels), value in self.samples.items()
                if sample == name]

    def has(self, name: str) -> bool:
        return any(sample == name for sample, _ in self.samples)


def _parse_labels(text: str, line: str) -> dict[str, str]:
    labels: dict[str, str] = {}
    i = 0
    while i < len(text):
        match = _LABEL_NAME_RE.match(text, i)
        if match is None:
            raise ValueError(f"bad label name in {line!r}")
        name = match.group(0)
        i = match.end()
        if i >= len(text) or text[i] != "=":
            raise ValueError(f"expected '=' after label name in {line!r}")
        i += 1
        if i >= len(text) or text[i] != '"':
            raise ValueError(f"label value must be quoted in {line!r}")
        i += 1
        buf: list[str] = []
        while i < len(text) and text[i] != '"':
            char = text[i]
            if char == "\\":
                i += 1
                if i >= len(text):
                    raise ValueError(f"dangling escape in {line!r}")
                escape = text[i]
                if escape == "n":
                    buf.append("\n")
                elif escape in ('"', "\\"):
                    buf.append(escape)
                else:
                    raise ValueError(
                        f"bad escape \\{escape} in {line!r}")
            else:
                buf.append(char)
            i += 1
        if i >= len(text):
            raise ValueError(f"unterminated label value in {line!r}")
        i += 1
        if name in labels:
            raise ValueError(f"duplicate label {name!r} in {line!r}")
        labels[name] = "".join(buf)
        if i < len(text):
            if text[i] != ",":
                raise ValueError(f"expected ',' between labels in {line!r}")
            i += 1
    return labels


def _parse_sample(line: str) \
        -> tuple[str, dict[str, str], float]:
    match = _NAME_RE.match(line)
    if match is None:
        raise ValueError(f"bad sample name in {line!r}")
    name = match.group(0)
    rest = line[match.end():]
    labels: dict[str, str] = {}
    if rest.startswith("{"):
        depth_done = False
        i = 1
        in_quotes = False
        while i < len(rest):
            char = rest[i]
            if in_quotes:
                if char == "\\":
                    i += 1
                elif char == '"':
                    in_quotes = False
            elif char == '"':
                in_quotes = True
            elif char == "}":
                depth_done = True
                break
            i += 1
        if not depth_done:
            raise ValueError(f"unterminated label set in {line!r}")
        labels = _parse_labels(rest[1:i], line)
        rest = rest[i + 1:]
    fields = rest.split()
    if len(fields) not in (1, 2):
        raise ValueError(f"expected value [timestamp] in {line!r}")
    try:
        value = float(fields[0])
    except ValueError:
        raise ValueError(f"bad sample value {fields[0]!r} in {line!r}") \
            from None
    if len(fields) == 2:
        try:
            int(fields[1])
        except ValueError:
            raise ValueError(f"bad timestamp in {line!r}") from None
    return name, labels, value


def parse_prometheus(text: str) -> ParsedMetrics:
    """Validate one exposition document; raises ``ValueError`` on any
    format violation, returns the parsed samples otherwise."""
    if not text.endswith("\n"):
        raise ValueError("exposition must end with a newline")
    parsed = ParsedMetrics()
    types: dict[str, str] = {}
    for raw in text.split("\n"):
        line = raw.rstrip()
        if not line:
            continue
        if line.startswith("#"):
            fields = line.split(None, 3)
            if len(fields) < 3 or fields[1] not in ("HELP", "TYPE"):
                continue                      # plain comment
            keyword, name = fields[1], fields[2]
            if _NAME_RE.fullmatch(name) is None:
                raise ValueError(f"bad metric name in {line!r}")
            if keyword == "TYPE":
                if len(fields) != 4 or fields[3] not in _TYPES:
                    raise ValueError(f"bad TYPE line {line!r}")
                if name in types:
                    raise ValueError(f"duplicate TYPE for {name}")
                types[name] = fields[3]
                parsed.families.setdefault(name, {})["type"] = fields[3]
            else:
                parsed.families.setdefault(name, {})["help"] = \
                    fields[3] if len(fields) == 4 else ""
            continue
        name, labels, value = _parse_sample(line)
        family = name
        if family not in types:
            for suffix in ("_bucket", "_sum", "_count"):
                base = name[:-len(suffix)] if name.endswith(suffix) else None
                if base and types.get(base) in ("histogram", "summary"):
                    family = base
                    break
            else:
                raise ValueError(f"sample {name!r} has no TYPE")
        if types[family] == "counter" and \
                (value < 0 or value != value):
            raise ValueError(f"counter {name} has invalid value {value}")
        key = (name, tuple(sorted(labels.items())))
        if key in parsed.samples:
            raise ValueError(f"duplicate series {name}{labels}")
        parsed.samples[key] = value
    _check_histograms(parsed, types)
    return parsed


def _check_histograms(parsed: ParsedMetrics,
                      types: dict[str, str]) -> None:
    for family, ftype in types.items():
        if ftype != "histogram":
            continue
        series: dict[tuple, list[tuple[float, float]]] = {}
        for (name, labels), value in parsed.samples.items():
            if name != f"{family}_bucket":
                continue
            label_map = dict(labels)
            if "le" not in label_map:
                raise ValueError(f"{name} sample missing 'le' label")
            bound = float(label_map.pop("le"))
            series.setdefault(tuple(sorted(label_map.items())),
                              []).append((bound, value))
        for label_key, buckets in series.items():
            buckets.sort()
            previous = -math.inf
            for bound, count in buckets:
                if count < previous:
                    raise ValueError(
                        f"{family} buckets not cumulative at le={bound}")
                previous = count
            if buckets[-1][0] != math.inf:
                raise ValueError(f"{family} is missing its +Inf bucket")
            labels = dict(label_key)
            try:
                count = parsed.value(f"{family}_count", **labels)
                parsed.value(f"{family}_sum", **labels)
            except KeyError as exc:
                raise ValueError(f"{family} is missing {exc}") from None
            if buckets[-1][1] != count:
                raise ValueError(
                    f"{family} +Inf bucket ({buckets[-1][1]}) != _count "
                    f"({count})")
