"""Append-only, crash-safe on-disk store for performance observations.

The paper's workflow (grid data collection → surrogate training → BO rounds)
re-measures identical ``(matrix, parameters)`` configurations across figures,
benchmarks and BO rounds; each measurement costs a full preconditioner build
plus Krylov solves.  :class:`ObservationStore` makes those measurements
durable so that a killed run resumes where it stopped and later sessions
(the solve server's policy among them) warm-start from everything measured
before.

Layout (one directory per store, one file in it)::

    root/
      index.jsonl   # one JSON object per line: records + matrix entries

A record line carries the whole measurement inline — its ``y_values`` and
``preconditioned_iterations`` beside the key fields — so the index is the
store.  Lines are written with :func:`json.dumps` defaults, which print
every ``float`` through ``repr``: a reopened store holds the same float bits
that were put.  No summary derived from ``y_values`` is written: a sample
standard deviation can overflow to ``inf``, which :func:`json.dumps` prints
as the bare token ``Infinity`` that strict JSON readers reject.

Durability model
----------------
A record is one line, appended with one ``write`` on an append-mode handle
and made durable with one ``fsync``.  A crash can therefore only lose the
record being written, never corrupt earlier ones: a torn final line (no
newline yet) is not read past.  Several *processes* writing into one store
interleave at line granularity — :meth:`reload` (or re-opening the store)
merges what concurrent writers appended, and :meth:`merge_from` folds one
store into another.

A line that is not a JSON object, or a record or matrix line with a missing
or ill-typed field, is skipped; each :meth:`reload` logs one warning with
the number of lines it skipped.  Record lines of the older two-file layout
name a ``payload`` file instead of carrying their arrays, so they take the
same path: the record is re-measured on demand, and the old files are left
as they are.

Records are keyed by ``(matrix fingerprint, parameter hash, context)`` where
the context string captures everything else the measurement depends on
(solver settings, seed, replication count — see
:meth:`~repro.core.evaluation.MatrixEvaluator`).  A measurement is a
deterministic function of that key, which is what makes deduplication sound:
serving a stored record is bit-identical to re-measuring it.
"""

from __future__ import annotations

import json
import os
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

import numpy as np

from repro.core.evaluation import LabelledObservation, PerformanceRecord
from repro.exceptions import ParameterError
from repro.logging_utils import get_logger
from repro.mcmc.parameters import MCMCParameters
from repro.sparse.fingerprint import content_hash

__all__ = ["ObservationStore", "StoredRecord", "MatrixEntry", "parameter_hash"]

_LOG = get_logger("service.store")

_INDEX_NAME = "index.jsonl"


def parameter_hash(parameters: MCMCParameters) -> str:
    """Stable hash of a parameter vector (exact float representation)."""
    return content_hash(
        f"{parameters.alpha!r}:{parameters.eps!r}:{parameters.delta!r}"
        f":{parameters.solver}")


@dataclass(frozen=True)
class MatrixEntry:
    """Per-matrix metadata kept for warm-start lookups."""

    fingerprint: str
    name: str
    features: np.ndarray | None

    def __eq__(self, other: object) -> bool:  # features is an array
        if not isinstance(other, MatrixEntry):
            return NotImplemented
        same_features = (
            (self.features is None and other.features is None)
            or (self.features is not None and other.features is not None
                and np.array_equal(self.features, other.features)))
        return (self.fingerprint == other.fingerprint
                and self.name == other.name and same_features)


@dataclass(frozen=True)
class StoredRecord:
    """One durable performance record plus its identity in the store."""

    key: str
    fingerprint: str
    context: str
    matrix_name: str
    parameters: MCMCParameters
    baseline_iterations: int
    preconditioned_iterations: tuple[int, ...]
    y_values: tuple[float, ...]

    def to_record(self) -> PerformanceRecord:
        """Reconstruct the :class:`PerformanceRecord` exactly as measured."""
        return PerformanceRecord(
            parameters=self.parameters,
            matrix_name=self.matrix_name,
            baseline_iterations=self.baseline_iterations,
            preconditioned_iterations=list(self.preconditioned_iterations),
            y_values=list(self.y_values),
        )

    def to_observation(self) -> LabelledObservation:
        """The labelled form consumed by the surrogate dataset."""
        return self.to_record().to_observation()


class ObservationStore:
    """Durable, deduplicating store of performance records.

    Parameters
    ----------
    root:
        Directory of the store; created (with parents) when missing.
    """

    def __init__(self, root: str | Path) -> None:
        self._root = Path(root)
        self._root.mkdir(parents=True, exist_ok=True)
        self._index_path = self._root / _INDEX_NAME
        self._lock = threading.RLock()
        self._records: dict[str, StoredRecord] = {}
        self._by_fingerprint: dict[str, list[str]] = {}
        self._matrices: dict[str, MatrixEntry] = {}
        self._index_offset = 0
        self.reload(full=True)

    # -- basic queries ------------------------------------------------------
    @property
    def root(self) -> Path:
        """Directory the store lives in."""
        return self._root

    def __len__(self) -> int:
        with self._lock:
            return len(self._records)

    def __iter__(self) -> Iterator[StoredRecord]:
        with self._lock:
            return iter(list(self._records.values()))

    def __contains__(self, key: str) -> bool:
        with self._lock:
            return key in self._records

    @staticmethod
    def record_key(fingerprint: str, parameters: MCMCParameters,
                   context: str = "") -> str:
        """Identity of one measurement: fingerprint + parameters + context."""
        return content_hash(fingerprint, parameter_hash(parameters), context)

    def fingerprints(self) -> set[str]:
        """Fingerprints with at least one stored record."""
        with self._lock:
            return set(self._by_fingerprint)

    def has_matrix(self, fingerprint: str) -> bool:
        """Whether :meth:`register_matrix` already holds ``fingerprint``."""
        with self._lock:
            return fingerprint in self._matrices

    def matrix_entries(self) -> dict[str, MatrixEntry]:
        """Registered matrices by fingerprint (for warm-start lookups)."""
        with self._lock:
            return dict(self._matrices)

    # -- writes -------------------------------------------------------------
    def put_record(self, fingerprint: str, record: PerformanceRecord, *,
                   context: str = "") -> bool:
        """Persist ``record``; returns False when the key is already stored."""
        key = self.record_key(fingerprint, record.parameters, context)
        with self._lock:
            if key in self._records:
                return False
            stored = StoredRecord(
                key=key,
                fingerprint=fingerprint,
                context=context,
                matrix_name=record.matrix_name,
                parameters=record.parameters,
                baseline_iterations=int(record.baseline_iterations),
                preconditioned_iterations=tuple(
                    int(v) for v in record.preconditioned_iterations),
                y_values=tuple(float(v) for v in record.y_values),
            )
            self._append_line({
                "kind": "record",
                "key": key,
                "fingerprint": fingerprint,
                "context": context,
                "matrix_name": record.matrix_name,
                "alpha": record.parameters.alpha,
                "eps": record.parameters.eps,
                "delta": record.parameters.delta,
                "solver": record.parameters.solver,
                "param_hash": parameter_hash(record.parameters),
                "baseline_iterations": stored.baseline_iterations,
                "y_values": list(stored.y_values),
                "preconditioned_iterations": list(
                    stored.preconditioned_iterations),
            })
            self._add(stored)
        return True

    def register_matrix(self, fingerprint: str, name: str,
                        features: np.ndarray | None = None) -> bool:
        """Remember matrix metadata; returns False when already registered."""
        with self._lock:
            if fingerprint in self._matrices:
                return False
            line = {
                "kind": "matrix",
                "fingerprint": fingerprint,
                "name": str(name),
                "features": (None if features is None
                             else [float(v) for v in np.ravel(features)]),
            }
            self._append_line(line)
            self._matrices[fingerprint] = _parse_matrix(line)
        return True

    # -- reads --------------------------------------------------------------
    def has_record(self, fingerprint: str, parameters: MCMCParameters, *,
                   context: str = "") -> bool:
        """Whether the exact measurement identified by the key is stored."""
        return self.record_key(fingerprint, parameters, context) in self

    def get_record(self, fingerprint: str, parameters: MCMCParameters, *,
                   context: str = "") -> PerformanceRecord | None:
        """The stored measurement for the exact key, or ``None``."""
        key = self.record_key(fingerprint, parameters, context)
        with self._lock:
            stored = self._records.get(key)
        return stored.to_record() if stored is not None else None

    def query(self, *, fingerprint: str | None = None,
              matrix_name: str | None = None,
              solver: str | None = None) -> list[StoredRecord]:
        """Stored records filtered by fingerprint, matrix name and/or solver."""
        with self._lock:
            if fingerprint is not None:
                keys = self._by_fingerprint.get(fingerprint, [])
                candidates = [self._records[key] for key in keys]
            else:
                candidates = list(self._records.values())
        if matrix_name is not None:
            candidates = [r for r in candidates if r.matrix_name == matrix_name]
        if solver is not None:
            candidates = [r for r in candidates
                          if r.parameters.solver == solver]
        return candidates

    def observations_for(self, fingerprint: str) -> list[LabelledObservation]:
        """Every stored record of one matrix, as labelled observations."""
        return [stored.to_observation()
                for stored in self.query(fingerprint=fingerprint)]

    # -- maintenance --------------------------------------------------------
    def reload(self, *, full: bool = False) -> int:
        """Ingest index lines appended since the last load.

        Lines written by concurrent writers (other threads or processes
        appending to the same directory) become visible here.  Returns the
        number of new records ingested.  ``full=True`` re-reads from the
        beginning (used by the constructor); so does an index that shrank
        below the read offset (replaced by hand, say).
        """
        with self._lock:
            if not self._index_path.exists():
                if full:
                    self._reset_view()
                return 0
            # "New" means new relative to the pre-reload view — a full
            # re-read re-ingests everything but reports only unseen records.
            previous_keys = set(self._records)
            skipped = 0
            with open(self._index_path, "rb") as handle:
                size = os.fstat(handle.fileno()).st_size
                if full or size < self._index_offset:
                    self._reset_view()
                handle.seek(self._index_offset)
                for raw_bytes in handle:
                    if not raw_bytes.endswith(b"\n"):
                        # Torn final line of a crashed writer: do not advance
                        # past it, the writer may still complete it.
                        break
                    self._index_offset += len(raw_bytes)
                    raw = raw_bytes.decode("utf-8", errors="replace").strip()
                    if raw and not self._ingest(raw):
                        skipped += 1
            if skipped:
                _LOG.warning("skipped %d malformed index line(s) in %s",
                             skipped, self._index_path)
            return len(set(self._records) - previous_keys)

    def merge_from(self, other: "ObservationStore | str | Path") -> int:
        """Fold every record of ``other`` into this store; returns new count."""
        if not isinstance(other, ObservationStore):
            other = ObservationStore(other)
        if other.root.resolve() == self._root.resolve():
            raise ParameterError("cannot merge a store into itself")
        merged = 0
        for fingerprint, entry in other.matrix_entries().items():
            self.register_matrix(fingerprint, entry.name, entry.features)
        for stored in other:
            if self.put_record(stored.fingerprint, stored.to_record(),
                               context=stored.context):
                merged += 1
        return merged

    # -- internals ----------------------------------------------------------
    def _reset_view(self) -> None:
        self._records.clear()
        self._by_fingerprint.clear()
        self._matrices.clear()
        self._index_offset = 0

    def _add(self, stored: StoredRecord) -> None:
        self._records[stored.key] = stored
        self._by_fingerprint.setdefault(stored.fingerprint, []).append(
            stored.key)

    def _append_line(self, line: dict) -> None:
        blob = json.dumps(line) + "\n"
        # A single write on an append-mode handle: concurrent writers from
        # other processes interleave at line granularity on POSIX.  The read
        # offset is deliberately NOT advanced here — another process may have
        # appended in between, so only sequential reads in :meth:`reload`
        # move it (our own line is re-read there and deduplicated by key).
        with open(self._index_path, "a", encoding="utf-8") as handle:
            handle.write(blob)
            handle.flush()
            os.fsync(handle.fileno())

    def _ingest(self, raw: str) -> bool:
        """Fold one index line into the view; False when it is malformed."""
        try:
            line = json.loads(raw)
            kind = line.get("kind")
            if kind == "record":
                stored = _parse_record(line)
                if stored.key not in self._records:
                    self._add(stored)
            elif kind == "matrix":
                entry = _parse_matrix(line)
                self._matrices.setdefault(entry.fingerprint, entry)
            else:
                return False
        except (AttributeError, KeyError, OverflowError, TypeError,
                ValueError, ParameterError):
            return False
        return True


def _typed(value, kind: type | tuple[type, ...]):
    """``value`` when it is a ``kind`` (never a JSON boolean), else TypeError."""
    if isinstance(value, bool) or not isinstance(value, kind):
        raise TypeError(f"expected {kind}, got {value!r}")
    return value


def _number(value) -> float:
    return float(_typed(value, (int, float)))


def _parse_record(line: dict) -> StoredRecord:
    """The record an index line describes; raises on a missing/ill-typed field."""
    return StoredRecord(
        key=_typed(line["key"], str),
        fingerprint=_typed(line["fingerprint"], str),
        context=_typed(line.get("context", ""), str),
        matrix_name=_typed(line["matrix_name"], str),
        parameters=MCMCParameters(alpha=_number(line["alpha"]),
                                  eps=_number(line["eps"]),
                                  delta=_number(line["delta"]),
                                  solver=_typed(line["solver"], str)),
        baseline_iterations=_typed(line["baseline_iterations"], int),
        preconditioned_iterations=tuple(
            _typed(v, int)
            for v in _typed(line["preconditioned_iterations"], list)),
        y_values=tuple(_number(v) for v in _typed(line["y_values"], list)),
    )


def _parse_matrix(line: dict) -> MatrixEntry:
    """The matrix entry an index line describes; raises when malformed."""
    features = line.get("features")
    return MatrixEntry(
        fingerprint=_typed(line["fingerprint"], str),
        name=_typed(line.get("name", ""), str),
        features=(None if features is None else np.asarray(
            [_number(v) for v in _typed(features, list)], dtype=np.float64)),
    )
