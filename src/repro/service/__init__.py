"""Service layer: the observation store, the artifact cache and the ladder.

What the solve server, the offline tuner and the online learner share to
answer "which parameters should this matrix get" without re-measuring:

* :mod:`repro.service.store` — :class:`ObservationStore`, an append-only,
  crash-safe on-disk store of performance measurements keyed by matrix
  content fingerprint; killed runs resume from it and later sessions
  warm-start from it.
* :mod:`repro.service.cache` — :class:`ArtifactCache`, the one bounded LRU
  (by entries, optionally by bytes).  Its process-wide instance holds
  expensive per-matrix build artifacts (``TransitionTable``\\ s, assembled
  preconditioners) shared by every evaluator in the process; the solve
  server's artifact cache and rule-flags memo, the HTTP server's held
  matrices, the client's held fingerprints and the learner's matrix bank are
  instances too.
* :mod:`repro.service.ladder` — the one recommendation ladder: the
  ``stored`` / ``surrogate`` / ``warm_start`` stages and the
  :class:`Proposal` provenance type shared by the solve server's policy, the
  offline tuner and the online learner.

Matrix identity everywhere is the content fingerprint from
:func:`repro.sparse.fingerprint.matrix_fingerprint`.
"""

from repro.service.cache import (
    ArtifactCache,
    CacheStats,
    cached_transition_table,
    configure_global_cache,
    global_cache,
    transition_table_key,
)
from repro.service.store import (
    MatrixEntry,
    ObservationStore,
    StoredRecord,
    parameter_hash,
)
from repro.service.ladder import Proposal, StoreSnapshot

__all__ = [
    "ArtifactCache",
    "CacheStats",
    "cached_transition_table",
    "configure_global_cache",
    "global_cache",
    "transition_table_key",
    "MatrixEntry",
    "ObservationStore",
    "StoredRecord",
    "parameter_hash",
    "Proposal",
    "StoreSnapshot",
]
