"""Process-wide LRU cache for expensive per-matrix build artifacts.

The MCMC tuning stack repeatedly rebuilds two kinds of artifacts:

* :class:`~repro.mcmc.walks.TransitionTable` — depends only on
  ``(matrix, alpha)`` yet was rebuilt privately by every
  :class:`~repro.core.evaluation.MatrixEvaluator` instance, so two evaluators
  over the same matrix (BO over a matrix portfolio, the figure drivers, the
  tuning service) paid for the build twice;
* assembled preconditioners, whenever a caller knows the full build key.

:class:`ArtifactCache` is a thread-safe LRU keyed by arbitrary hashable
tuples — by convention ``(kind, matrix_fingerprint, ...)`` with the
fingerprint from :func:`repro.sparse.fingerprint.matrix_fingerprint`.  A
process-wide instance is available through :func:`global_cache`, which is what
:class:`MatrixEvaluator` uses by default; pass ``cache=ArtifactCache(...)`` to
isolate a component, or ``disk_dir=...`` to additionally spill evicted
artifacts to disk (pickle) and transparently reload them on a later miss.
"""

from __future__ import annotations

import pickle
import threading
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Hashable

from repro.exceptions import ParameterError
from repro.logging_utils import get_logger
from repro.mcmc.walks import TransitionTable
from repro.sparse.fingerprint import content_hash
from repro.sparse.splitting import jacobi_splitting

__all__ = [
    "ArtifactCache",
    "CacheStats",
    "global_cache",
    "configure_global_cache",
    "transition_table_key",
    "cached_transition_table",
]

_LOG = get_logger("service.cache")


@dataclass
class CacheStats:
    """Counters describing how effective a cache has been."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    disk_hits: int = 0
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
                "evictions": self.evictions, "disk_hits": self.disk_hits,
                "builds": self.builds, "hit_rate": self.hit_rate}


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


class ArtifactCache:
    """Thread-safe LRU cache with optional disk spill.

    Parameters
    ----------
    max_entries:
        Maximum number of in-memory entries; the least recently used entry is
        evicted beyond that.  Must be >= 1.
    disk_dir:
        Optional directory for a pickle-based second level.  Entries are
        written on :meth:`put` and survive process restarts; in-memory misses
        fall back to disk (counted separately in :attr:`stats`).
    """

    def __init__(self, max_entries: int = 32, *,
                 disk_dir: str | Path | None = None) -> None:
        if max_entries < 1:
            raise ParameterError(
                f"max_entries must be >= 1, got {max_entries}")
        self._max_entries = int(max_entries)
        self._entries: OrderedDict[Hashable, Any] = OrderedDict()
        self._lock = threading.RLock()
        self._key_locks: dict[Hashable, threading.Lock] = {}
        self.stats = CacheStats()
        self._disk_dir: Path | None = None
        if disk_dir is not None:
            self._disk_dir = Path(disk_dir)
            self._disk_dir.mkdir(parents=True, exist_ok=True)

    # -- basic mapping interface -------------------------------------------
    @property
    def max_entries(self) -> int:
        """Capacity of the in-memory level."""
        return self._max_entries

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        with self._lock:
            return key in self._entries

    def keys(self) -> list[Hashable]:
        """Snapshot of the in-memory keys, least recently used first."""
        with self._lock:
            return list(self._entries)

    def get(self, key: Hashable, default: Any = None) -> Any:
        """Look up ``key``, falling back to the disk level, then ``default``."""
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
                self.stats.hits += 1
                return self._entries[key]
            self.stats.misses += 1
        value = self._disk_load(key)
        if value is not None:
            with self._lock:
                self.stats.disk_hits += 1
                self._insert(key, value)
            return value
        return default

    def put(self, key: Hashable, value: Any) -> None:
        """Insert ``key -> value``, evicting the LRU entry beyond capacity."""
        with self._lock:
            self._insert(key, value)
        self._disk_store(key, value)

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
                        return self._entries[key]
                value = builder()
                with self._lock:
                    self.stats.builds += 1
                self.put(key, value)
        finally:
            with self._lock:
                self._key_locks.pop(key, None)
        return value

    def clear(self, *, reset_stats: bool = False) -> None:
        """Release every in-memory entry (disk entries are kept).

        Dropping the references here is what actually frees the payloads —
        callers holding no other reference see the memory returned.
        """
        with self._lock:
            self._entries.clear()
            self._key_locks.clear()
            if reset_stats:
                self.stats = CacheStats()

    # -- internals ----------------------------------------------------------
    def _insert(self, key: Hashable, value: Any) -> None:
        self._entries[key] = value
        self._entries.move_to_end(key)
        while len(self._entries) > self._max_entries:
            evicted_key, _ = self._entries.popitem(last=False)
            self.stats.evictions += 1
            _LOG.debug("evicted cache entry %r", evicted_key)

    def _disk_path(self, key: Hashable) -> Path | None:
        if self._disk_dir is None:
            return None
        return self._disk_dir / f"{content_hash(repr(key))}.pkl"

    def _disk_store(self, key: Hashable, value: Any) -> None:
        path = self._disk_path(key)
        if path is None:
            return
        tmp = path.with_suffix(".tmp")
        try:
            with open(tmp, "wb") as handle:
                pickle.dump((key, value), handle, protocol=pickle.HIGHEST_PROTOCOL)
            tmp.replace(path)
        # An object pickle cannot handle raises PicklingError, TypeError (C
        # objects such as locks) or AttributeError (local classes and
        # functions).  The entry stays in memory either way.
        except (OSError, pickle.PicklingError, TypeError, AttributeError) as error:
            _LOG.warning("could not spill cache entry %r to disk: %s", key, error)
            tmp.unlink(missing_ok=True)

    def _disk_load(self, key: Hashable) -> Any:
        path = self._disk_path(key)
        if path is None or not path.exists():
            return None
        try:
            with open(path, "rb") as handle:
                stored_key, value = pickle.load(handle)
        except (OSError, pickle.UnpicklingError, EOFError, ValueError) as error:
            _LOG.warning("could not load cache entry %r from disk: %s", key, error)
            return None
        # repr()-hash collisions are astronomically unlikely but cheap to rule out.
        return value if stored_key == key else None


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


def configure_global_cache(max_entries: int = _GLOBAL_MAX_ENTRIES, *,
                           disk_dir: str | Path | None = None) -> ArtifactCache:
    """Replace the process-wide cache (dropping the previous contents)."""
    global _global_cache
    with _global_lock:
        _global_cache = ArtifactCache(max_entries, disk_dir=disk_dir)
        return _global_cache
