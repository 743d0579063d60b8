"""The recommendation ladder: which MCMC parameters should this matrix get?

Every layer that answers that question — the solve server's policy, the
batch :class:`~repro.service.tuner_service.TuningService`, the offline
:class:`~repro.core.recommender.MCMCTuner` and the online learner — walks
the stages of this module, so a parameter vector always arrives with the
same account of where it came from (:class:`Proposal`):

``stored``
    Records of this exact matrix (content fingerprint), best first.
``surrogate``
    The GNN surrogate's Expected-Improvement candidates, either in EI order
    (*explore* — Algorithm 1's offline loop) or re-anchored to the observed
    parameter support and ordered by predicted mean (*exploit* — serving).
``warm_start``
    Records of the nearest other matrix in standardised
    :func:`~repro.matrices.features.feature_vector` space, best first.
``explore``
    Seeded uniform samples of the parameter box.

A stage that has nothing to say yields nothing.  The callers are fixed
orderings of the stages: serving takes the first proposal of ``stored →
surrogate → warm_start`` and otherwise falls through to its rule table;
the tuning service concatenates ``stored → warm_start → explore`` until its
budget is filled, then measures.

``stored`` and ``warm_start`` read a :class:`StoreSnapshot`, never the live
store: records written while serving must not change in-flight decisions
(see :mod:`repro.server.policy` on determinism).
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from repro.core.dataset import SurrogateDataset
from repro.core.optimize import AcquisitionOptimizer, Candidate
from repro.core.surrogate import GraphNeuralSurrogate
from repro.logging_utils import get_logger
from repro.matrices.features import feature_vector, nearest_feature_neighbour
from repro.mcmc.parameters import (
    DEFAULT_BOUNDS,
    MCMCParameters,
    ParameterBounds,
    sample_parameters,
)
from repro.service.store import ObservationStore, StoredRecord, parameter_hash

__all__ = [
    "ORIGIN_EXPLICIT",
    "ORIGIN_STORED",
    "ORIGIN_SURROGATE",
    "ORIGIN_WARM_START",
    "ORIGIN_RULE",
    "ORIGIN_SAMPLED",
    "Proposal",
    "StoreSnapshot",
    "stored",
    "surrogate",
    "warm_start",
    "explore",
]

_LOG = get_logger("service.ladder")

#: Where a parameter vector came from.  ``explicit`` and ``rule`` are
#: produced by :mod:`repro.server.policy`, the rest by the stages below.
ORIGIN_EXPLICIT = "explicit"
ORIGIN_STORED = "stored"
ORIGIN_SURROGATE = "surrogate"
ORIGIN_WARM_START = "warm_start"
ORIGIN_RULE = "rule"
ORIGIN_SAMPLED = "sampled"


@dataclass(frozen=True)
class Proposal:
    """One parameter vector and why it was proposed.

    ``y_mean`` / ``y_std`` are the metric (Eq. 4, lower is better) the
    parameters are expected to reach: measured for ``stored`` proposals and
    for the tuning service's recommendation, the model's predicted mean and
    sigma for ``surrogate`` ones, ``None`` where nothing is known yet.
    """

    parameters: MCMCParameters
    origin: str                       # one of the ORIGIN_* constants
    y_mean: float | None = None
    y_std: float | None = None
    neighbour_name: str | None = None
    neighbour_distance: float | None = None
    model_version: str | None = None


class StoreSnapshot:
    """What the stages know of an :class:`ObservationStore` at one instant.

    ``names`` holds the registered matrix names; ``pool`` the
    ``(fingerprint, name, features)`` of every matrix that can donate a warm
    start — registered with features *and* holding at least one record.
    ``StoreSnapshot()`` is the snapshot of no store at all.
    """

    def __init__(self, store: ObservationStore | None = None) -> None:
        self._records: dict[str, list[StoredRecord]] = {}
        self._best_first: dict[str, tuple[StoredRecord, ...]] = {}
        self.names: dict[str, str] = {}
        self.pool: list[tuple[str, str, np.ndarray]] = []
        if store is None:
            return
        for fingerprint in store.fingerprints():
            records = store.query(fingerprint=fingerprint)
            if records:
                self._records[fingerprint] = records
        for fingerprint, entry in store.matrix_entries().items():
            self.names[fingerprint] = entry.name
            if fingerprint in self._records and entry.features is not None:
                self.pool.append((fingerprint, entry.name, np.asarray(
                    entry.features, dtype=np.float64)))

    def best_first(self, fingerprint: str) -> tuple[StoredRecord, ...]:
        """The fingerprint's records, lowest mean metric first.

        Ranked on first use and remembered: a snapshot of a large store is
        cheap to take, and a caller pays only for the matrices it asks about.
        """
        ranked = self._best_first.get(fingerprint)
        if ranked is None and fingerprint in self._records:
            ranked = self._best_first[fingerprint] = tuple(sorted(
                self._records[fingerprint],
                key=lambda record: record.to_record().y_mean))
        return ranked or ()


def _competing(records: tuple[StoredRecord, ...], solver: str | None
               ) -> Iterator[StoredRecord]:
    """When the request names a solver only that solver's records compete."""
    return (record for record in records
            if solver is None or record.parameters.solver == solver)


def stored(snapshot: StoreSnapshot, fingerprint: str, *,
           solver: str | None = None, regime: str | None = None
           ) -> Iterator[Proposal]:
    """Records of this exact matrix, best first.

    ``regime`` keeps only records measured under that
    :func:`~repro.core.evaluation.measurement_regime` (a context prefix):
    the tuning service compares metrics, which is only meaningful between
    records that share solver settings and right-hand side.
    """
    for record in _competing(snapshot.best_first(fingerprint), solver):
        if regime is not None and not record.context.startswith(regime):
            continue
        measured = record.to_record()
        yield Proposal(record.parameters, ORIGIN_STORED,
                       y_mean=measured.y_mean, y_std=measured.y_std)


def warm_start(snapshot: StoreSnapshot, matrix: sp.spmatrix, fingerprint: str,
               *, solver: str | None = None,
               bounds: ParameterBounds = DEFAULT_BOUNDS) -> Iterator[Proposal]:
    """Records of the nearest *other* matrix, best first, clipped into ``bounds``.

    The neighbour is chosen among every matrix that holds records; its
    records are then filtered by ``solver`` like :func:`stored`'s.
    """
    pool = [entry for entry in snapshot.pool if entry[0] != fingerprint]
    if not pool:
        # Decline before touching the matrix: the feature pass costs
        # milliseconds and a store-less server would pay it on every request.
        return
    best, distance = nearest_feature_neighbour(
        [features for _, _, features in pool], feature_vector(matrix))
    donor, name, _ = pool[best]
    _LOG.debug("warm start for %s from neighbour %s (distance %.3f)",
               fingerprint[:8], name, distance)
    for record in _competing(snapshot.best_first(donor), solver):
        yield Proposal(record.parameters.clipped(bounds), ORIGIN_WARM_START,
                       neighbour_name=name, neighbour_distance=distance)


def explore(count: int, *, bounds: ParameterBounds, solver: str, seed: int,
            exclude: set[str]) -> list[Proposal]:
    """Up to ``count`` seeded uniform samples whose hashes are not in ``exclude``.

    Oversamples so that collisions with already-known parameter vectors do
    not shrink the batch; gives up after eight rounds.
    """
    proposals: list[Proposal] = []
    seen = set(exclude)
    attempts = 0
    while len(proposals) < count and attempts < 8:
        fresh = sample_parameters(2 * (count - len(proposals)), bounds=bounds,
                                  solver=solver,
                                  seed=seed + 7919 * (attempts + 1))
        for parameters in fresh:
            if len(proposals) >= count:
                break
            key = parameter_hash(parameters)
            if key not in seen:
                seen.add(key)
                proposals.append(Proposal(parameters, ORIGIN_SAMPLED))
        attempts += 1
    return proposals


def surrogate(model: GraphNeuralSurrogate, dataset: SurrogateDataset,
              matrix: sp.spmatrix, matrix_name: str, *,
              bounds: ParameterBounds, seed: int, solver: str,
              n_candidates: int, xi: float, n_restarts: int,
              exploit: bool) -> list[Candidate]:
    """The surrogate's candidates for ``matrix``, best first.

    The stage returns the acquisition's own :class:`Candidate` (parameters,
    EI, predicted mean and sigma) because the offline loop reports those
    diagnostics; serving wraps the first one into a :class:`Proposal`.

    ``exploit=False`` is Algorithm 1: the distinct EI optima in EI order.
    EI rewards predictive uncertainty — right for a tuning loop that will
    measure what it proposes, wrong for a live request, which should get the
    configuration the model is most confident is fast.  ``exploit=True``
    therefore re-anchors the EI candidates to the observed parameter support
    (:func:`_reanchored`), drops non-finite predictions and orders by
    predicted mean.
    """
    optimizer = AcquisitionOptimizer(model, dataset, bounds=bounds,
                                     n_restarts=n_restarts, seed=seed)
    candidates = optimizer.propose(matrix, matrix_name,
                                   n_candidates=n_candidates, xi=xi,
                                   solver=solver)
    if not exploit:
        return candidates
    pool = _reanchored(optimizer, matrix, matrix_name, candidates, solver)
    return sorted((c for c in pool if _is_finite(c)),
                  key=lambda c: float(c.predicted_mean))


def _is_finite(candidate: Candidate) -> bool:
    return bool(np.isfinite(candidate.predicted_mean)
                and np.isfinite(candidate.predicted_sigma)
                and np.all(np.isfinite(candidate.parameters.to_array())))


def _reanchored(optimizer: AcquisitionOptimizer, matrix: sp.spmatrix,
                name: str, candidates: list[Candidate],
                solver: str) -> list[Candidate]:
    """Candidates re-anchored to the observed parameter support.

    The mean head is only trustworthy where training data exists, while EI
    optima routinely sit in high-uncertainty corners the store never
    measured.  Pool the *distinct observed* parameter vectors with the EI
    candidates clipped into the observed bounding box, and score them all
    with one batched forward pass.
    """
    seen: dict[tuple, MCMCParameters] = {}
    for sample in optimizer.dataset.samples:
        raw = np.asarray(sample.x_m_raw[:3], dtype=float)
        key = tuple(np.round(raw, 9))
        if key not in seen:
            seen[key] = MCMCParameters.from_array(raw, solver=solver)
    anchors = list(seen.values())
    if not anchors:
        return candidates
    anchor_rows = np.stack([p.to_array() for p in anchors])
    lower = anchor_rows.min(axis=0)
    upper = anchor_rows.max(axis=0)
    clipped = [
        MCMCParameters.from_array(
            np.clip(c.parameters.to_array(), lower, upper), solver=solver)
        for c in candidates
    ]
    probe = anchors + clipped
    mu, sigma = optimizer.predict_parameters(matrix, name, probe)
    improvements = [0.0] * len(anchors) + \
        [float(c.expected_improvement) for c in candidates]
    return [
        Candidate(parameters=parameters, expected_improvement=ei,
                  predicted_mean=float(m), predicted_sigma=float(s))
        for parameters, ei, m, s in zip(probe, improvements, mu, sigma)
    ]
