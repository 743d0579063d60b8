"""Batch tuning front-end over the store, the cache and the evaluators.

:class:`TuningService` is the serving layer of the reproduction: hand it a
batch of matrices (with per-request budgets) and it returns a recommended
parameter vector per matrix, measuring as little as possible.  The candidates
are the stages of :mod:`repro.service.ladder`, concatenated until the budget
is filled:

1. **Exact reuse** — observations already stored for the matrix's content
   fingerprint cost nothing and count against the budget first.
2. **Warm start** — for a matrix the store has never seen, the nearest
   registered neighbour (in the cheap feature space of
   :func:`repro.matrices.features.feature_vector`, standardised across the
   store) donates its best-performing parameter vectors as the first
   candidates to measure.
3. **Exploration** — any remaining budget is filled with seeded uniform
   samples from the parameter box.

Measurements run through :class:`~repro.core.evaluation.MatrixEvaluator`
instances that share one :class:`~repro.service.cache.ArtifactCache` (so
requests over the same matrix share ``TransitionTable`` builds) and persist
into the same :class:`~repro.service.store.ObservationStore` (so every request
makes future requests cheaper).  A batch resolves its requests in order, so
a later request already sees the records an earlier one stored.

Every recommendation is a :class:`~repro.service.ladder.Proposal`: where the
winning parameters came from (stored observation, neighbour warm start, or
fresh sample), which neighbour donated them and at what feature distance,
and the mean / spread of the metric measured for them.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import scipy.sparse as sp

from repro.core.evaluation import (
    MatrixEvaluator,
    PerformanceRecord,
    SolverSettings,
)
from repro.exceptions import ParameterError
from repro.logging_utils import get_logger
from repro.mcmc.parameters import DEFAULT_BOUNDS, ParameterBounds
from repro.service import ladder
from repro.service.cache import ArtifactCache, global_cache
from repro.service.ladder import Proposal, StoreSnapshot
from repro.service.store import ObservationStore, parameter_hash

__all__ = ["TuningRequest", "TuningResult", "TuningService"]

_LOG = get_logger("service.tuner")


@dataclass(frozen=True)
class TuningRequest:
    """One matrix to tune, with its evaluation budget."""

    matrix: sp.spmatrix
    name: str
    budget: int = 8
    n_replications: int = 3
    solver: str = "gmres"
    seed: int = 0

    def __post_init__(self) -> None:
        if self.budget < 1:
            raise ParameterError(f"budget must be >= 1, got {self.budget}")
        if self.n_replications < 1:
            raise ParameterError(
                f"n_replications must be >= 1, got {self.n_replications}")


@dataclass
class TuningResult:
    """Everything one request produced."""

    name: str
    fingerprint: str
    #: the winning parameters, their provenance and their measured metric
    recommendation: Proposal
    measured_records: list[PerformanceRecord]
    reused_observations: int
    candidate_origins: dict[str, str] = field(default_factory=dict)

    @property
    def measurements(self) -> int:
        """Number of fresh (non-reused) measurements this request cost."""
        return len(self.measured_records)


class TuningService:
    """Serves batches of tuning requests from a durable observation store.

    Parameters
    ----------
    store:
        The durable observation store (an on-disk path or an open store).
    cache:
        Artifact cache shared by the evaluators; the process-wide cache when
        ``None``.
    settings:
        Krylov solver settings shared by all measurements.
    bounds:
        Parameter box for the exploration samples.
    """

    def __init__(self, store: ObservationStore | str, *,
                 cache: ArtifactCache | None = None,
                 settings: SolverSettings | None = None,
                 bounds: ParameterBounds = DEFAULT_BOUNDS) -> None:
        self.store = (store if isinstance(store, ObservationStore)
                      else ObservationStore(store))
        self.cache = cache if cache is not None else global_cache()
        self.settings = settings if settings is not None else SolverSettings()
        self.bounds = bounds

    # -- the batch front-end ------------------------------------------------
    def tune_batch(self, requests: list[TuningRequest]) -> list[TuningResult]:
        """Resolve a batch of requests, in request order."""
        return [self.tune_one(request) for request in requests]

    def tune_one(self, request: TuningRequest) -> TuningResult:
        """Resolve a single request; see the module docstring for the policy."""
        evaluator = MatrixEvaluator(
            request.matrix, request.name, settings=self.settings,
            seed=request.seed, cache=self.cache, store=self.store)
        fingerprint = evaluator.fingerprint

        # Only records measured under the *same regime* (solver settings +
        # rhs) are comparable: reusing or recommending from a store filled
        # with different settings would mix incompatible metrics.  The seed
        # and replication count may differ — any seed's measurement is a
        # valid observation of (matrix, parameters, settings).
        snapshot = StoreSnapshot(self.store)
        reused = list(ladder.stored(
            snapshot, fingerprint, solver=request.solver,
            regime=evaluator.settings_fingerprint + ":"))

        # Already-stored parameter vectors count against the budget but are
        # never re-measured; ``fresh`` only holds genuinely new work.
        planned: dict[str, Proposal] = {
            parameter_hash(proposal.parameters): proposal
            for proposal in reused}
        fresh: list[Proposal] = []
        remaining = request.budget - len(planned)
        if remaining > 0:
            for proposal in ladder.warm_start(
                    snapshot, request.matrix, fingerprint,
                    solver=request.solver, bounds=self.bounds):
                if len(fresh) >= remaining:
                    break
                key = parameter_hash(proposal.parameters)
                if key not in planned:
                    planned[key] = proposal
                    fresh.append(proposal)
            for proposal in ladder.explore(
                    remaining - len(fresh), bounds=self.bounds,
                    solver=request.solver, seed=request.seed,
                    exclude=set(planned)):
                planned[parameter_hash(proposal.parameters)] = proposal
                fresh.append(proposal)

        measured = [
            evaluator.evaluate(proposal.parameters,
                               n_replications=request.n_replications,
                               candidate_index=index)
            for index, proposal in enumerate(fresh)]

        # Recommend the lowest mean metric among what was reused and what
        # was just measured (ties go to the earlier, i.e. the reused, one).
        outcomes = reused + [
            replace(proposal, y_mean=record.y_mean, y_std=record.y_std)
            for proposal, record in zip(fresh, measured)]
        if not outcomes:
            raise ParameterError("no observations available to recommend from")
        recommendation = min(outcomes, key=lambda proposal: proposal.y_mean)
        _LOG.info("tuned %s: %d stored / %d measured, best y=%.3f (%s)",
                  request.name, len(reused), len(measured),
                  recommendation.y_mean, recommendation.origin)
        return TuningResult(
            name=request.name,
            fingerprint=fingerprint,
            recommendation=recommendation,
            measured_records=measured,
            reused_observations=len(reused),
            candidate_origins={key: proposal.origin
                               for key, proposal in planned.items()},
        )
