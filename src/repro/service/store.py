"""Append-only, crash-safe on-disk store for performance observations.

The paper's workflow (grid data collection → surrogate training → BO rounds)
re-measures identical ``(matrix, parameters)`` configurations across figures,
benchmarks and BO rounds; each measurement costs a full preconditioner build
plus Krylov solves.  :class:`ObservationStore` makes those measurements
durable so that a killed run resumes where it stopped and later sessions
(including the :class:`~repro.service.tuner_service.TuningService`) warm-start
from everything measured before.

Layout (one directory per store)::

    root/
      index.jsonl          # one JSON object per line: records + matrix entries
      payloads/<key>.npz   # replication arrays of each performance record
      payloads/batch-<hash>.npz   # batched payloads written by compact()

Long-lived stores accumulate one small ``.npz`` per record; :meth:`compact`
folds them into batched payload files (index lines then reference
``batch-<hash>.npz#<key>``) and rewrites the index atomically.  A
``{"kind": "meta", "generation": ...}`` header line marks each rewrite so
open readers detect it and fall back to a full reload — compaction is
invisible to them.

Durability model
----------------
A record is written payload-first (atomic ``os.replace`` of a temp file), then
a single index line is appended with flush + fsync.  A crash can therefore
only lose the record being written, never corrupt earlier ones; a torn final
line is skipped on load.  Appends are single ``write`` calls on a file opened
in append mode, so several *processes* writing into one store interleave at
line granularity — :meth:`reload` (or re-opening the store) merges what
concurrent writers appended, and :meth:`merge_from` folds one store into
another.

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
_PAYLOAD_DIR = "payloads"


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
        self._payload_dir = self._root / _PAYLOAD_DIR
        self._payload_dir.mkdir(parents=True, exist_ok=True)
        self._index_path = self._root / _INDEX_NAME
        self._lock = threading.RLock()
        self._records: dict[str, StoredRecord] = {}
        self._by_fingerprint: dict[str, list[str]] = {}
        self._matrices: dict[str, MatrixEntry] = {}
        self._index_offset = 0
        self._generation: str | None = None
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
            payload_name = f"{key}.npz"
            self._write_payload(payload_name, record)
            line = {
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
                "baseline_iterations": int(record.baseline_iterations),
                "y_mean": record.y_mean,
                "y_std": record.y_std,
                "payload": payload_name,
            }
            self._append_line(line)
            # Index directly from memory: re-reading the payload written a
            # moment ago would double the I/O of the hot persist path.
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
            self._records[key] = stored
            self._by_fingerprint.setdefault(fingerprint, []).append(key)
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
                "name": name,
                "features": (None if features is None
                             else [float(v) for v in np.ravel(features)]),
            }
            self._append_line(line)
            self._ingest_matrix_line(line)
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
        beginning (used by the constructor).

        A rewrite of the index by another process's :meth:`compact` is
        detected (the generation header changed, or the file shrank below
        the read offset) and triggers an automatic full re-read, so open
        readers survive compaction transparently.
        """
        with self._lock:
            if not self._index_path.exists():
                if full:
                    self._reset_view()
                return 0
            # "New" means new relative to the pre-reload view — a forced
            # full re-read after a compaction rewrite re-ingests everything
            # but reports only genuinely unseen records.
            previous_keys = set(self._records)
            with open(self._index_path, "rb") as handle:
                generation = self._peek_generation(handle)
                size = os.fstat(handle.fileno()).st_size
                if (full or generation != self._generation
                        or size < self._index_offset):
                    self._reset_view()
                    self._generation = generation
                handle.seek(self._index_offset)
                for raw_bytes in handle:
                    if not raw_bytes.endswith(b"\n"):
                        # Torn final line of a crashed writer: do not advance
                        # past it, the writer may still complete it.
                        break
                    self._index_offset += len(raw_bytes)
                    raw = raw_bytes.decode("utf-8", errors="replace").strip()
                    if not raw:
                        continue
                    try:
                        line = json.loads(raw)
                    except json.JSONDecodeError:
                        _LOG.warning("skipping corrupt index line in %s",
                                     self._index_path)
                        continue
                    if line.get("kind") == "record":
                        self._ingest_record_line(line)
                    elif line.get("kind") == "matrix":
                        self._ingest_matrix_line(line)
            return len(set(self._records) - previous_keys)

    def compact(self, *, batch_size: int = 512) -> dict:
        """Fold per-record payload files into batched ``.npz`` files.

        Long-lived stores accumulate one small payload file per record; this
        rewrites the payload layout into files of up to ``batch_size``
        records each (index lines then reference ``batch-<hash>.npz#<key>``)
        and replaces the index atomically.  The logical contents are
        untouched: a reload before and after compaction yields identical
        records, and open readers detect the rewrite via the generation
        header (see :meth:`reload`).

        Same-process writers are serialised by the store lock.  Compaction
        is a store-owner maintenance operation: another *process* appending
        concurrently can race the index rewrite and should be quiesced
        first (appends made after the rewrite land in the new index and are
        picked up normally).

        Returns a summary dict (record/batch-file counts, files removed).
        """
        if batch_size < 1:
            raise ParameterError(
                f"batch_size must be >= 1, got {batch_size}")
        with self._lock:
            # Fold in anything concurrent writers appended before rewriting.
            self.reload()
            records = list(self._records.values())
            payload_of: dict[str, str] = {}
            batch_files: list[str] = []
            for start in range(0, len(records), batch_size):
                chunk = records[start:start + batch_size]
                arrays: dict[str, np.ndarray] = {}
                for stored in chunk:
                    arrays[f"y__{stored.key}"] = np.asarray(
                        stored.y_values, dtype=np.float64)
                    arrays[f"it__{stored.key}"] = np.asarray(
                        stored.preconditioned_iterations, dtype=np.int64)
                name = f"batch-{content_hash(*[r.key for r in chunk])}.npz"
                path = self._payload_dir / name
                tmp = path.with_suffix(".tmp")
                with open(tmp, "wb") as handle:
                    np.savez(handle, **arrays)
                os.replace(tmp, path)
                batch_files.append(name)
                for stored in chunk:
                    payload_of[stored.key] = f"{name}#{stored.key}"

            generation = content_hash(
                "generation", str(len(records)), *sorted(payload_of.values()))
            lines: list[dict] = [{"kind": "meta", "generation": generation}]
            for entry in self._matrices.values():
                lines.append({
                    "kind": "matrix",
                    "fingerprint": entry.fingerprint,
                    "name": entry.name,
                    "features": (None if entry.features is None else
                                 [float(v) for v in np.ravel(entry.features)]),
                })
            for stored in records:
                record = stored.to_record()
                lines.append({
                    "kind": "record",
                    "key": stored.key,
                    "fingerprint": stored.fingerprint,
                    "context": stored.context,
                    "matrix_name": stored.matrix_name,
                    "alpha": stored.parameters.alpha,
                    "eps": stored.parameters.eps,
                    "delta": stored.parameters.delta,
                    "solver": stored.parameters.solver,
                    "param_hash": parameter_hash(stored.parameters),
                    "baseline_iterations": stored.baseline_iterations,
                    "y_mean": record.y_mean,
                    "y_std": record.y_std,
                    "payload": payload_of[stored.key],
                })
            tmp_index = self._index_path.with_suffix(".jsonl.tmp")
            with open(tmp_index, "w", encoding="utf-8") as handle:
                for line in lines:
                    handle.write(json.dumps(line, separators=(",", ":")) + "\n")
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp_index, self._index_path)
            self._index_offset = self._index_path.stat().st_size
            self._generation = generation

            keep = set(batch_files)
            removed = 0
            for path in self._payload_dir.glob("*.npz"):
                if path.name not in keep:
                    path.unlink(missing_ok=True)
                    removed += 1
            _LOG.info("compacted %s: %d records into %d batch file(s), "
                      "%d payload file(s) removed",
                      self._root, len(records), len(batch_files), removed)
            return {
                "records": len(records),
                "batch_files": len(batch_files),
                "payload_files_removed": removed,
            }

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
        self._generation = None

    @staticmethod
    def _peek_generation(handle) -> str | None:
        """Generation id from the index header line, ``None`` pre-compaction.

        Leaves the handle position unspecified; callers seek afterwards.
        """
        handle.seek(0)
        first = handle.readline()
        if not first.endswith(b"\n"):
            return None
        try:
            line = json.loads(first.decode("utf-8", errors="replace"))
        except json.JSONDecodeError:
            return None
        if isinstance(line, dict) and line.get("kind") == "meta":
            return line.get("generation")
        return None

    def _write_payload(self, payload_name: str, record: PerformanceRecord) -> None:
        path = self._payload_dir / payload_name
        tmp = path.with_suffix(".tmp")
        with open(tmp, "wb") as handle:
            np.savez(
                handle,
                y_values=np.asarray(record.y_values, dtype=np.float64),
                preconditioned_iterations=np.asarray(
                    record.preconditioned_iterations, dtype=np.int64),
            )
        os.replace(tmp, path)

    def _append_line(self, line: dict) -> None:
        blob = json.dumps(line, separators=(",", ":")) + "\n"
        # A single write on an append-mode handle: concurrent writers from
        # other processes interleave at line granularity on POSIX.  The read
        # offset is deliberately NOT advanced here — another process may have
        # appended in between, so only sequential reads in :meth:`reload`
        # move it (our own line is re-read there and deduplicated by key).
        with open(self._index_path, "a", encoding="utf-8") as handle:
            handle.write(blob)
            handle.flush()
            os.fsync(handle.fileno())

    def _load_payload(self, payload_name: str) -> tuple[tuple[float, ...],
                                                        tuple[int, ...]] | None:
        # Two reference forms: "<key>.npz" (one file per record, the append
        # path) and "batch-<hash>.npz#<key>" (written by compact()).
        key = None
        if "#" in payload_name:
            payload_name, key = payload_name.split("#", 1)
        path = self._payload_dir / payload_name
        if not path.exists():
            return None
        y_name = "y_values" if key is None else f"y__{key}"
        it_name = ("preconditioned_iterations" if key is None
                   else f"it__{key}")
        try:
            with np.load(path) as payload:
                y_values = tuple(float(v) for v in payload[y_name])
                iterations = tuple(int(v) for v in payload[it_name])
        except (OSError, ValueError, KeyError) as error:
            _LOG.warning("skipping record with unreadable payload %s: %s",
                         path, error)
            return None
        return y_values, iterations

    def _ingest_record_line(self, line: dict) -> None:
        key = line["key"]
        if key in self._records:
            return
        payload = self._load_payload(line["payload"])
        if payload is None:
            return
        y_values, iterations = payload
        parameters = MCMCParameters(alpha=float(line["alpha"]),
                                    eps=float(line["eps"]),
                                    delta=float(line["delta"]),
                                    solver=str(line["solver"]))
        stored = StoredRecord(
            key=key,
            fingerprint=line["fingerprint"],
            context=line.get("context", ""),
            matrix_name=line["matrix_name"],
            parameters=parameters,
            baseline_iterations=int(line["baseline_iterations"]),
            preconditioned_iterations=iterations,
            y_values=y_values,
        )
        self._records[key] = stored
        self._by_fingerprint.setdefault(stored.fingerprint, []).append(key)

    def _ingest_matrix_line(self, line: dict) -> None:
        fingerprint = line["fingerprint"]
        if fingerprint in self._matrices:
            return
        features = line.get("features")
        self._matrices[fingerprint] = MatrixEntry(
            fingerprint=fingerprint,
            name=str(line.get("name", "")),
            features=(None if features is None
                      else np.asarray(features, dtype=np.float64)),
        )
