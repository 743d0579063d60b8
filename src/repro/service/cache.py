"""The one bounded LRU, and the process-wide cache of per-matrix artifacts.

:class:`ArtifactCache` is a thread-safe LRU keyed by arbitrary hashables,
bounded by entries and optionally by bytes: a CSR matrix weighs its
``data`` + ``indices`` + ``indptr``, anything else nothing.  Beside the artifacts below it holds the serving policy's
rule-flags memo, the HTTP server's held matrices
(:class:`~repro.server.http.HeldMatrices`), the client's held fingerprints
and the learner's :class:`~repro.learn.trainer.MatrixBank`.

A :class:`~repro.mcmc.walks.TransitionTable` depends only on
``(matrix, alpha)``, so every evaluator and the solve server share one build
through :func:`cached_transition_table`; they share the unpreconditioned
baseline iteration count of ``(matrix, solver, measurement regime)`` through
:func:`cached_baseline_iterations` the same way; assembled preconditioners are
cached whenever a caller knows the full build key.  Artifact keys are by
convention ``(kind, matrix_fingerprint, ...)`` with the fingerprint from
:func:`repro.sparse.fingerprint.matrix_fingerprint`.  :func:`global_cache`
is the process-wide instance; pass ``cache=ArtifactCache(...)`` to isolate a
component.  The cache lives in memory only: an entry is rebuilt after
eviction or in a new process, from the same inputs, to the same value.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Hashable, Iterator

import numpy as np
import scipy.sparse as sp

from repro.exceptions import ParameterError
from repro.krylov import solve
from repro.logging_utils import get_logger
from repro.mcmc.walks import TransitionTable
from repro.sparse.splitting import jacobi_splitting

if TYPE_CHECKING:  # repro.core imports this module
    from repro.core.evaluation import SolverSettings

__all__ = [
    "ArtifactCache",
    "CacheStats",
    "global_cache",
    "configure_global_cache",
    "transition_table_key",
    "cached_transition_table",
    "cached_baseline_iterations",
]

_LOG = get_logger("service.cache")


@dataclass
class CacheStats:
    """Counters describing how effective a cache has been."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    builds: int = 0

    @property
    def requests(self) -> int:
        """Total lookups (hits + misses)."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from memory (0.0 when unused)."""
        return self.hits / self.requests if self.requests else 0.0

    def as_dict(self) -> dict[str, float | int]:
        """Plain-dict form for JSON reports and benchmarks."""
        return {"hits": self.hits, "misses": self.misses,
                "evictions": self.evictions, "builds": self.builds,
                "hit_rate": self.hit_rate}


def transition_table_key(fingerprint: str, alpha: float) -> tuple:
    """Canonical cache key for a ``TransitionTable`` of ``(matrix, alpha)``."""
    return ("transition_table", fingerprint, float(alpha))


def cached_transition_table(cache: "ArtifactCache", fingerprint: str,
                            matrix: Any, alpha: float) -> TransitionTable:
    """The ``TransitionTable`` of ``(matrix, alpha)`` from ``cache``, built
    from the Jacobi splitting on a miss.

    The one place a served or measured table is keyed and built: the table
    does not depend on ``eps`` / ``delta``, so every build at the same
    ``alpha`` on the same ``fingerprint`` shares it.
    """
    alpha = float(alpha)
    return cache.get_or_build(
        transition_table_key(fingerprint, alpha),
        lambda: TransitionTable(jacobi_splitting(matrix, alpha).iteration_matrix))


def cached_baseline_iterations(cache: "ArtifactCache", fingerprint: str,
                               regime: str, matrix: Any, rhs: np.ndarray,
                               settings: "SolverSettings", solver: str) -> int:
    """The unpreconditioned iteration count of ``solver`` on ``(matrix,
    rhs)`` under ``settings`` from ``cache``, solved on a miss.

    The one place the denominator of ``y(A, x_M)`` is keyed and measured,
    for :class:`~repro.core.evaluation.MatrixEvaluator` and the solve
    server alike: keyed by the matrix ``fingerprint``, ``solver`` and the
    ``regime`` (:func:`~repro.core.evaluation.measurement_regime` of
    ``settings`` and ``rhs``), so a fresh evaluator over matrix content the
    process has measured before solves no baseline.
    """
    def build() -> int:
        kwargs = settings.solver_kwargs(solver, matrix.shape[0])
        result = solve(matrix, rhs, solver=solver, **kwargs)
        _LOG.debug("baseline on %s: %s", fingerprint[:12], result.describe())
        return result.measured_iterations

    return cache.get_or_build(
        ("baseline_iterations", fingerprint, solver, regime), build)


def _nbytes(value: Any) -> int:
    """What ``value`` weighs against a byte bound: a CSR matrix's ``data`` +
    ``indices`` + ``indptr``, anything else 0."""
    if sp.issparse(value) and value.format == "csr":
        return value.data.nbytes + value.indices.nbytes + value.indptr.nbytes
    return 0


class ArtifactCache:
    """Thread-safe in-memory LRU cache.

    Parameters
    ----------
    max_entries:
        Maximum number of entries; the least recently used entry is evicted
        beyond that.  Must be >= 1.
    max_bytes:
        Optional bound on the summed weight of the values (see the module
        docstring); least recently used entries are evicted beyond it, and a
        value heavier than the whole bound is not kept.  ``None``: no bound.
    """

    def __init__(self, max_entries: int = 32,
                 max_bytes: int | None = None) -> None:
        if max_entries < 1:
            raise ParameterError(
                f"max_entries must be >= 1, got {max_entries}")
        if max_bytes is not None and max_bytes < 0:
            raise ParameterError(f"max_bytes must be >= 0, got {max_bytes}")
        self._max_entries = int(max_entries)
        self._max_bytes = None if max_bytes is None else int(max_bytes)
        # key -> (value, its weight), least recently used first.
        self._entries: OrderedDict[Hashable, tuple[Any, int]] = OrderedDict()
        self._nbytes = 0
        self._lock = threading.RLock()
        self._key_locks: dict[Hashable, threading.Lock] = {}
        self.stats = CacheStats()

    # -- basic mapping interface -------------------------------------------
    @property
    def max_entries(self) -> int:
        """Capacity of the cache."""
        return self._max_entries

    @property
    def max_bytes(self) -> int | None:
        """Byte bound of the cache (``None``: unbounded)."""
        return self._max_bytes

    @property
    def nbytes(self) -> int:
        """Summed weight of the cached values."""
        return self._nbytes

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        with self._lock:
            return key in self._entries

    def __iter__(self) -> Iterator[Hashable]:
        return iter(self.keys())

    def keys(self) -> list[Hashable]:
        """Snapshot of the keys, least recently used first."""
        with self._lock:
            return list(self._entries)

    def get(self, key: Hashable, default: Any = None) -> Any:
        """The value cached under ``key``, else ``default``."""
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
                self.stats.hits += 1
                return self._entries[key][0]
            self.stats.misses += 1
        return default

    def put(self, key: Hashable, value: Any) -> list[Hashable]:
        """Insert ``key -> value``; the keys evicted beyond the bounds, least
        recently used first.

        A value heavier than ``max_bytes`` is not kept and evicts nothing;
        the value it would have replaced is dropped all the same.
        """
        weight = _nbytes(value)
        evicted = []
        with self._lock:
            old = self._entries.pop(key, None)
            if old is not None:
                self._nbytes -= old[1]
            if self._max_bytes is not None and weight > self._max_bytes:
                return evicted
            self._entries[key] = (value, weight)
            self._nbytes += weight
            while (len(self._entries) > self._max_entries
                   or (self._max_bytes is not None
                       and self._nbytes > self._max_bytes)):
                evicted_key, (_, evicted_weight) = self._entries.popitem(
                    last=False)
                self._nbytes -= evicted_weight
                self.stats.evictions += 1
                evicted.append(evicted_key)
                _LOG.debug("evicted cache entry %r", evicted_key)
        return evicted

    def pop(self, key: Hashable, default: Any = None) -> Any:
        """Remove ``key``, freeing its bytes; its value, else ``default``."""
        with self._lock:
            entry = self._entries.pop(key, None)
            if entry is None:
                return default
            self._nbytes -= entry[1]
            return entry[0]

    def get_or_build(self, key: Hashable, builder: Callable[[], Any]) -> Any:
        """Return the cached value for ``key``, building it at most once.

        Concurrent callers asking for the *same* key block on a per-key lock
        so the expensive build runs once; callers for different keys build in
        parallel.
        """
        sentinel = object()
        value = self.get(key, sentinel)
        if value is not sentinel:
            return value
        with self._lock:
            key_lock = self._key_locks.setdefault(key, threading.Lock())
        try:
            with key_lock:
                # Double-check: another thread may have built it while we
                # waited.  This peek does not touch the stats — the miss above
                # is already counted, and a hit here is that thread's build.
                with self._lock:
                    if key in self._entries:
                        self._entries.move_to_end(key)
                        return self._entries[key][0]
                value = builder()
                with self._lock:
                    self.stats.builds += 1
                self.put(key, value)
        finally:
            with self._lock:
                self._key_locks.pop(key, None)
        return value

    def clear(self, *, reset_stats: bool = False) -> None:
        """Release every entry.

        Dropping the references here is what actually frees the artifacts —
        callers holding no other reference see the memory returned.
        """
        with self._lock:
            self._entries.clear()
            self._nbytes = 0
            self._key_locks.clear()
            if reset_stats:
                self.stats = CacheStats()


#: Default capacity of the process-wide cache.  Padded transition tables are
#: dense ``(n, max_row_nnz)`` arrays, so the shared cache stays modest; BO
#: rounds proposing continuous alpha values churn through it by design.
_GLOBAL_MAX_ENTRIES = 32

_global_cache: ArtifactCache | None = None
_global_lock = threading.Lock()


def global_cache() -> ArtifactCache:
    """The process-wide :class:`ArtifactCache` shared by all evaluators."""
    global _global_cache
    with _global_lock:
        if _global_cache is None:
            _global_cache = ArtifactCache(max_entries=_GLOBAL_MAX_ENTRIES)
        return _global_cache


def configure_global_cache(
        max_entries: int = _GLOBAL_MAX_ENTRIES) -> ArtifactCache:
    """Replace the process-wide cache (dropping the previous contents)."""
    global _global_cache
    with _global_lock:
        _global_cache = ArtifactCache(max_entries)
        return _global_cache
