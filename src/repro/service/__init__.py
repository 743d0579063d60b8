"""Tuning service layer: durable observations, shared artifacts, batch serving.

This package turns the reproduction from a one-shot experiment pipeline into
something that can serve many tuning requests fast:

* :mod:`repro.service.store` — :class:`ObservationStore`, an append-only,
  crash-safe on-disk store of performance measurements keyed by matrix
  content fingerprint; killed runs resume from it and later sessions
  warm-start from it.
* :mod:`repro.service.cache` — :class:`ArtifactCache`, a process-wide LRU for
  expensive per-matrix build artifacts (``TransitionTable``\\ s, assembled
  preconditioners) shared by every evaluator in the process.
* :mod:`repro.service.ladder` — the one recommendation ladder: the
  ``stored`` / ``surrogate`` / ``warm_start`` / ``explore`` stages and the
  :class:`Proposal` provenance type shared by the solve server's policy, the
  batch tuner, the offline tuner and the online learner.
* :mod:`repro.service.tuner_service` — :class:`TuningService`, the batch
  front-end: exact reuse from the store, nearest-neighbour warm starts in
  matrix-feature space, seeded exploration for the remaining budget, and
  recommendations with provenance.

Matrix identity everywhere is the content fingerprint from
:func:`repro.sparse.fingerprint.matrix_fingerprint`.
"""

from repro.service.cache import (
    ArtifactCache,
    CacheStats,
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
from repro.service.tuner_service import (
    TuningRequest,
    TuningResult,
    TuningService,
)

__all__ = [
    "ArtifactCache",
    "CacheStats",
    "configure_global_cache",
    "global_cache",
    "transition_table_key",
    "MatrixEntry",
    "ObservationStore",
    "StoredRecord",
    "parameter_hash",
    "Proposal",
    "StoreSnapshot",
    "TuningRequest",
    "TuningResult",
    "TuningService",
]
