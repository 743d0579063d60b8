"""Prometheus text exposition of a metrics snapshot: the one encoder.

:func:`render_prometheus` takes the snapshot dict every transport already
serves as JSON (:meth:`repro.obs.metrics.MetricsRegistry.snapshot`, plus the
``queue`` / ``artifact_cache`` sections a server or fleet router adds) and
emits the classic text format (version 0.0.4): one ``# TYPE`` line per family
followed by its samples, counters suffixed ``_total``, histograms rendered as
Prometheus *summaries* (``quantile`` label + ``_sum`` / ``_count``).  Metric
names are sanitised (``solve.latency_ms`` → ``repro_solve_latency_ms``);
series names go through the label codec of :mod:`repro.obs.metrics`, so a
snapshot key and an exposition line escape label values the same way.

:func:`parse_prometheus` is the matching reader — enough of the text format
to round-trip our own output.  Tests and the CI smoke steps use it to assert
the ``/v1/metrics?format=prometheus`` endpoint stays parseable.
"""

from __future__ import annotations

import math
import re
from typing import Iterator, NamedTuple

from repro.exceptions import ParameterError
from repro.obs.metrics import parse_label_key, render_label_key

__all__ = ["render_prometheus", "parse_prometheus", "PrometheusSample"]

_INVALID_NAME_CHARS = re.compile(r"[^a-zA-Z0-9_:]")

_SAMPLE_RE = re.compile(
    r"^(?P<series>[a-zA-Z_:][a-zA-Z0-9_:]*(?:\{.*\})?)"
    r"\s+(?P<value>\S+)\s*$")

#: Snapshot sections that live outside the registry; their numeric entries
#: are exposed as gauges ``<section>.<key>``.
_SECTIONS = ("queue", "artifact_cache")

_TYPES = {"counters": "counter", "gauges": "gauge", "histograms": "summary"}

_QUANTILES = (("0.5", "p50"), ("0.95", "p95"), ("0.99", "p99"))


def _family_name(name: str) -> str:
    """A legal, ``repro_``-prefixed Prometheus metric name (dots and dashes
    become underscores)."""
    clean = _INVALID_NAME_CHARS.sub("_", name)
    if not clean or clean[0].isdigit():
        clean = "_" + clean
    return f"repro_{clean}"


def _format_value(value: float) -> str:
    value = float(value)
    if math.isnan(value):
        return "NaN"
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def _section_gauges(section: str, entries: dict
                    ) -> Iterator[tuple[str, dict[str, str], float]]:
    """``(name, labels, value)`` of one section's numeric, non-bool entries.

    A single server's section maps keys to values; the fleet router's merged
    section maps replica names to such dicts, which become a ``replica``
    label.
    """
    for key, value in entries.items():
        if isinstance(value, dict):
            scoped = [(inner, {"replica": key}, number)
                      for inner, number in value.items()]
        else:
            scoped = [(key, {}, value)]
        for inner, labels, number in scoped:
            if isinstance(number, (int, float)) and not isinstance(number, bool):
                yield f"{section}.{inner}", labels, number


def render_prometheus(snapshot: dict) -> str:
    """``snapshot`` in Prometheus text format 0.0.4.

    Counters, gauges and histograms are read from the sections of those
    names; the numeric entries of the ``queue`` / ``artifact_cache``
    sections (when present) join as gauges, unless the registry already
    holds a gauge of that name and label set (``queue.depth``).
    """
    families: dict[tuple[str, str], list[tuple[dict[str, str], object]]] = {}
    for kind in _TYPES:
        for key in sorted(snapshot[kind]):
            name, labels = parse_label_key(key)
            families.setdefault((kind, name), []).append(
                (labels, snapshot[kind][key]))
    for section in _SECTIONS:
        for name, labels, value in _section_gauges(
                section, snapshot.get(section, {})):
            series = families.setdefault(("gauges", name), [])
            if all(existing != labels for existing, _ in series):
                series.append((labels, value))

    lines: list[str] = []
    for kind, name in sorted(families):
        full = _family_name(name)
        if kind == "counters" and not full.endswith("_total"):
            full += "_total"
        lines.append(f"# TYPE {full} {_TYPES[kind]}")
        for labels, value in families[kind, name]:
            if kind != "histograms":
                lines.append(f"{render_label_key(full, labels)} "
                             f"{_format_value(value)}")
                continue
            # Summaries: pre-computed quantiles (omitted while empty — NaN
            # there trips many scrapers) plus exact _sum / _count.
            if value["count"] > 0:
                series = render_label_key(full, labels)
                # ``quantile`` goes after the series' own (sorted) labels.
                head = f"{series[:-1]}," if labels else f"{series}{{"
                for quantile, field in _QUANTILES:
                    lines.append(f'{head}quantile="{quantile}"}} '
                                 f"{_format_value(value[field])}")
            lines.append(f"{render_label_key(full + '_sum', labels)} "
                         f"{_format_value(value['sum'])}")
            lines.append(f"{render_label_key(full + '_count', labels)} "
                         f"{_format_value(value['count'])}")
    return "\n".join(lines) + "\n"


class PrometheusSample(NamedTuple):
    """One parsed sample line: name, labels, value."""

    name: str
    labels: dict[str, str]
    value: float


def parse_prometheus(text: str) -> tuple[list[PrometheusSample], dict[str, str]]:
    """Parse text-format metrics into samples plus a ``{family: type}`` map.

    Strict about what it accepts: a line that is neither a comment, blank,
    nor a well-formed sample raises ``ValueError``, which is exactly what a
    round-trip test wants.
    """
    samples: list[PrometheusSample] = []
    types: dict[str, str] = {}
    # Lines end at "\n" only: other line-break characters may sit (unescaped,
    # per the format) inside a label value.
    for lineno, line in enumerate(text.split("\n"), start=1):
        stripped = line.strip()
        if not stripped:
            continue
        if stripped.startswith("#"):
            parts = stripped.split(None, 3)
            if len(parts) >= 4 and parts[1] == "TYPE":
                types[parts[2]] = parts[3]
            continue
        match = _SAMPLE_RE.match(stripped)
        if match is None:
            raise ValueError(f"line {lineno}: not a valid sample: {line!r}")
        try:
            value = float(match["value"].replace("+Inf", "inf")
                          .replace("-Inf", "-inf"))
            name, labels = parse_label_key(match["series"])
        except (ValueError, ParameterError) as exc:
            raise ValueError(
                f"line {lineno}: not a valid sample: {line!r}") from exc
        samples.append(PrometheusSample(name, labels, value))
    return samples, types
