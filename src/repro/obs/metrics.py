"""Metrics registry and the label codec every metrics consumer shares.

Serving a stream of solve requests is only tunable if the server can answer
"what happened": how many requests were admitted or rejected (and why), how
deep the queue is, how long solves took, how many iterations they needed, how
often the artifact cache saved a preconditioner build.  This module provides
the three classic instrument kinds —

* :class:`Counter` — monotonically increasing event count,
* :class:`Gauge` — last-written value (queue depth, in-flight jobs),
* :class:`Histogram` — distribution of observations with quantile estimates
  (latency, iteration counts, batch sizes),

— collected in a thread-safe :class:`MetricsRegistry` whose :meth:`snapshot`
is a plain JSON-serialisable dict.  The snapshot is the *only* thing the rest
of the metrics pipeline reads: ``GET /v1/metrics`` serves it as JSON,
:func:`repro.obs.prometheus.render_prometheus` encodes it as text, and the
fleet router merges replica snapshots into one.

Instruments are created on first use (``registry.counter("x").add(1)``), so
call sites never need registration boilerplate.  Instruments may carry
**labels** (``registry.counter("solve.rejected", reason="queue_full")``):
each distinct label set is its own instrument, stored under the key
``solve.rejected{reason="queue_full"}`` that :func:`render_label_key` renders
and :func:`parse_label_key` reads back — the one codec for series names, in
snapshots and in the Prometheus exposition alike.  Unlabeled instruments keep
their plain name as the key.

Histograms keep exact ``count`` / ``sum`` / ``min`` / ``max`` forever and
retain a bounded *reservoir* of raw samples for quantile estimation
(Algorithm R with a per-instrument seeded RNG), so quantiles track the whole
observation stream — not just the first ``max_samples`` values — while memory
stays bounded and repeated runs are deterministic.
"""

from __future__ import annotations

import json
import random
import re
import threading
import zlib

import numpy as np

from repro.exceptions import ParameterError

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry",
           "render_label_key", "parse_label_key"]

#: Default cap on retained histogram samples.  Beyond it the histogram keeps
#: exact count / sum / min / max and estimates quantiles from a uniform
#: reservoir over all observations — bounded memory under sustained traffic.
DEFAULT_MAX_SAMPLES = 65_536

_LABEL_NAME_RE = re.compile(r"[a-zA-Z_][a-zA-Z0-9_]*\Z")


def _escape_label_value(value: str) -> str:
    return (value.replace("\\", r"\\")
            .replace('"', r"\"")
            .replace("\n", r"\n"))


def render_label_key(name: str, labels: dict[str, str]) -> str:
    """Canonical key of a labelled series: ``name{k="v",...}``.

    Labels are sorted by name and values escaped exactly as in the Prometheus
    text exposition format, so a key is both stable (one key per label set)
    and human-readable in snapshots.  An empty label set renders as the bare
    name.
    """
    if not labels:
        return name
    inner = ",".join(f'{key}="{_escape_label_value(value)}"'
                     for key, value in sorted(labels.items()))
    return f"{name}{{{inner}}}"


_LABEL_ITEM_RE = re.compile(
    r'(?P<key>[a-zA-Z_][a-zA-Z0-9_]*)="(?P<value>(?:[^"\\]|\\.)*)"(?:,|\Z)')


def _unescape_label_value(value: str) -> str:
    out: list[str] = []
    i = 0
    while i < len(value):
        ch = value[i]
        if ch == "\\" and i + 1 < len(value):
            nxt = value[i + 1]
            out.append({"n": "\n", "\\": "\\", '"': '"'}.get(nxt, "\\" + nxt))
            i += 2
        else:
            out.append(ch)
            i += 1
    return "".join(out)


def parse_label_key(key: str) -> tuple[str, dict[str, str]]:
    """Inverse of :func:`render_label_key`: ``name{k="v"}`` → name + labels.

    Raises :class:`~repro.exceptions.ParameterError` on keys
    :func:`render_label_key` could not have produced.
    """
    if not (key.endswith("}") and "{" in key):
        return key, {}
    name, _, inner = key.partition("{")
    inner = inner[:-1]
    labels: dict[str, str] = {}
    pos = 0
    while pos < len(inner):
        match = _LABEL_ITEM_RE.match(inner, pos)
        if match is None:
            raise ParameterError(
                f"malformed instrument key {key!r} at offset {pos}")
        labels[match.group("key")] = _unescape_label_value(
            match.group("value"))
        pos = match.end()
    return name, labels


def _validate_labels(name: str, labels: dict[str, object]) -> dict[str, str]:
    clean: dict[str, str] = {}
    for key, value in labels.items():
        if not _LABEL_NAME_RE.match(key):
            raise ParameterError(
                f"metric {name}: label name {key!r} is not a valid "
                "identifier ([a-zA-Z_][a-zA-Z0-9_]*)")
        clean[key] = str(value)
    return clean


class _Instrument:
    """Name, label set, rendered key and lock of one series."""

    #: The snapshot section instruments of this kind are reported under.
    kind: str

    def __init__(self, name: str, *, labels: dict[str, str] | None = None) -> None:
        self.name = name
        self.labels = dict(labels or {})
        self.key = render_label_key(name, self.labels)
        self._lock = threading.Lock()


class Counter(_Instrument):
    """Monotonically increasing event counter."""

    kind = "counters"
    _value = 0

    @property
    def value(self) -> int:
        """Current count."""
        with self._lock:
            return self._value

    def add(self, amount: int = 1) -> None:
        """Increment by ``amount`` (must be >= 0: counters never go down)."""
        if amount < 0:
            raise ParameterError(
                f"counter {self.name}: increment must be >= 0, got {amount}")
        with self._lock:
            self._value += int(amount)


class Gauge(_Instrument):
    """Last-written value (e.g. current queue depth)."""

    kind = "gauges"
    _value = 0.0

    @property
    def value(self) -> float:
        """Most recently set value."""
        with self._lock:
            return self._value

    def set(self, value: float) -> None:
        """Overwrite the gauge."""
        with self._lock:
            self._value = float(value)

    def add(self, delta: float) -> None:
        """Adjust the gauge by ``delta`` (may be negative)."""
        with self._lock:
            self._value += float(delta)


class Histogram(_Instrument):
    """Distribution of float observations with quantile estimates.

    Keeps exact ``count`` / ``sum`` / ``min`` / ``max`` for every observation
    and a uniform reservoir of up to ``max_samples`` raw values for quantile
    estimation (Algorithm R: observation ``i`` survives with probability
    ``max_samples / i`` once the reservoir is full).  The reservoir RNG is
    seeded from the instrument key, so identical observation streams yield
    identical quantile estimates across runs.
    """

    kind = "histograms"

    def __init__(self, name: str, *,
                 max_samples: int = DEFAULT_MAX_SAMPLES,
                 labels: dict[str, str] | None = None) -> None:
        if max_samples < 1:
            raise ParameterError(
                f"histogram {name}: max_samples must be >= 1, got {max_samples}")
        super().__init__(name, labels=labels)
        self._max_samples = int(max_samples)
        self._samples: list[float] = []
        self._count = 0
        self._sum = 0.0
        self._min = float("inf")
        self._max = float("-inf")
        self._rng = random.Random(zlib.crc32(self.key.encode("utf-8")))

    @property
    def count(self) -> int:
        """Number of observations recorded."""
        with self._lock:
            return self._count

    @property
    def sum(self) -> float:
        """Exact sum of all observations."""
        with self._lock:
            return self._sum

    def observe(self, value: float) -> None:
        """Record one observation."""
        value = float(value)
        with self._lock:
            self._count += 1
            self._sum += value
            self._min = min(self._min, value)
            self._max = max(self._max, value)
            if len(self._samples) < self._max_samples:
                self._samples.append(value)
            else:
                # Algorithm R: keep each observation with probability k/i so
                # the reservoir stays a uniform sample of the whole stream.
                slot = self._rng.randrange(self._count)
                if slot < self._max_samples:
                    self._samples[slot] = value

    def quantile(self, q: float) -> float:
        """Estimated ``q``-quantile (``q`` in [0, 1]); ``nan`` when empty."""
        if not 0.0 <= q <= 1.0:
            raise ParameterError(f"quantile must lie in [0, 1], got {q}")
        with self._lock:
            if not self._samples:
                return float("nan")
            return float(np.quantile(np.asarray(self._samples), q))

    def summary(self) -> dict[str, float]:
        """count / sum / mean / min / p50 / p95 / p99 / max as a plain dict."""
        nan = float("nan")
        with self._lock:
            if self._count == 0:
                return {"count": 0, "sum": 0.0, "mean": nan, "min": nan,
                        "p50": nan, "p95": nan, "p99": nan, "max": nan}
            samples = np.asarray(self._samples)
            return {
                "count": self._count,
                "sum": self._sum,
                "mean": self._sum / self._count,
                "min": self._min,
                "p50": float(np.quantile(samples, 0.50)),
                "p95": float(np.quantile(samples, 0.95)),
                "p99": float(np.quantile(samples, 0.99)),
                "max": self._max,
            }


class MetricsRegistry:
    """Named instruments, created on first use, snapshot-able to JSON."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        # The one instrument table: (snapshot section, rendered key) -> series.
        self._instruments: dict[tuple[str, str], _Instrument] = {}

    def _get_or_create(self, factory, name: str, labels: dict[str, object]):
        clean = _validate_labels(name, labels)
        slot = (factory.kind, render_label_key(name, clean))
        with self._lock:
            if slot not in self._instruments:
                self._instruments[slot] = factory(name, labels=clean)
            return self._instruments[slot]

    def counter(self, name: str, **labels: object) -> Counter:
        """The counter for ``name`` + label set (created when missing)."""
        return self._get_or_create(Counter, name, labels)

    def gauge(self, name: str, **labels: object) -> Gauge:
        """The gauge for ``name`` + label set (created when missing)."""
        return self._get_or_create(Gauge, name, labels)

    def histogram(self, name: str, **labels: object) -> Histogram:
        """The histogram for ``name`` + label set (created when missing)."""
        return self._get_or_create(Histogram, name, labels)

    def snapshot(self) -> dict:
        """Every instrument's current state as a JSON-serialisable dict.

        ``{"counters": {key: int}, "gauges": {key: float}, "histograms":
        {key: summary}}``, each section sorted by key.  Labeled instruments
        appear under their rendered key (``name{k="v"}``), unlabeled ones
        under their plain name.  ``nan`` values (empty histograms) are mapped
        to ``None`` so the result round-trips through strict JSON parsers.
        """
        with self._lock:
            instruments = sorted(self._instruments.items())
        snapshot: dict[str, dict] = {"counters": {}, "gauges": {},
                                     "histograms": {}}
        for (kind, key), instrument in instruments:
            if kind == Histogram.kind:
                snapshot[kind][key] = {
                    field: None if isinstance(value, float) and np.isnan(value)
                    else value
                    for field, value in instrument.summary().items()}
            else:
                snapshot[kind][key] = instrument.value
        return snapshot

    def to_json(self, *, indent: int | None = 2) -> str:
        """The snapshot rendered as a JSON string."""
        return json.dumps(self.snapshot(), indent=indent)
