"""Algorithm 1: the Bayesian tuning loop for MCMC parameter selection.

The loop alternates between (i) fitting the surrogate on all labelled data
collected so far, (ii) maximising EI to propose a batch of ``k`` candidates
per matrix, (iii) measuring the candidates with real MCMC + Krylov runs and
(iv) appending the measurements to the dataset -- until the evaluation budget
is exhausted.

Two entry points are provided:

* :func:`bo_round` -- a single round targeting one matrix (this is exactly the
  experiment of Sec. 4.4: Pre-BO model -> 32 recommendations on the unseen
  matrix -> retrain -> BO-enhanced model);
* :class:`BayesianTuningLoop` -- the general multi-round, multi-matrix loop of
  Algorithm 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from repro.core.dataset import SurrogateDataset
from repro.core.evaluation import LabelledObservation, MatrixEvaluator
from repro.core.optimize import Candidate
from repro.core.surrogate import GraphNeuralSurrogate
from repro.core.training import Trainer, TrainingHistory
from repro.exceptions import ParameterError
from repro.logging_utils import get_logger
from repro.mcmc.parameters import DEFAULT_BOUNDS, ParameterBounds

__all__ = ["BORoundResult", "bo_round", "BayesianTuningLoop"]

_LOG = get_logger("core.tuning_loop")


@dataclass
class BORoundResult:
    """Outcome of one BO round on a target matrix."""

    candidates: list[Candidate]
    observations: list[LabelledObservation]
    history: TrainingHistory | None
    xi: float

    @property
    def best_observed(self) -> LabelledObservation:
        """The recommendation with the lowest measured mean metric."""
        return min(self.observations, key=lambda obs: obs.y_mean)

    def observed_means(self) -> np.ndarray:
        """Measured mean metric of every recommendation."""
        return np.array([obs.y_mean for obs in self.observations], dtype=np.float64)


def bo_round(model: GraphNeuralSurrogate, dataset: SurrogateDataset,
             evaluator: MatrixEvaluator, matrix: sp.spmatrix, matrix_name: str, *,
             batch_size: int = 8, xi: float = 0.05, n_replications: int = 3,
             solver: str = "gmres", bounds: ParameterBounds = DEFAULT_BOUNDS,
             n_restarts: int = 3, seed: int = 0,
             retrain: bool = True, trainer: Trainer | None = None
             ) -> BORoundResult:
    """One round of Algorithm 1 targeting a single matrix.

    The dataset is extended in place with the new observations; when
    ``retrain`` is true the model is retrained on the extended dataset
    (producing the paper's "BO-enhanced" model -- only the weights are
    re-optimised, the architecture and standardisation stay fixed).
    """
    if batch_size < 1:
        raise ParameterError(f"batch_size must be >= 1, got {batch_size}")
    # Imported here: repro.service imports repro.core.evaluation, so a
    # module-level import would be circular.
    from repro.service import ladder

    candidates = ladder.surrogate(
        model, dataset, matrix, matrix_name, bounds=bounds, seed=seed,
        solver=solver, n_candidates=batch_size, xi=xi, n_restarts=n_restarts,
        exploit=False)
    _LOG.info("BO round (xi=%.2f): proposed %d candidates for %s",
              xi, len(candidates), matrix_name)

    records = evaluator.evaluate_many([c.parameters for c in candidates],
                                      n_replications=n_replications)
    observations = [record.to_observation() for record in records]
    dataset.extend(observations, matrices={matrix_name: matrix})

    history: TrainingHistory | None = None
    if retrain:
        trainer = trainer if trainer is not None else Trainer()
        history = trainer.fit(model, dataset)
    return BORoundResult(candidates=candidates, observations=observations,
                         history=history, xi=xi)


@dataclass
class BayesianTuningLoop:
    """The general multi-round loop of Algorithm 1.

    Parameters
    ----------
    model:
        Surrogate to fit (modified in place).
    dataset:
        Initial labelled dataset ``D_0`` (typically coarse grid-search records).
    trainer:
        Trainer used to (re)fit the surrogate at the start of every round.
    batch_size:
        Number of candidates ``k`` proposed per matrix per round.
    xi:
        EI exploration parameter.
    n_replications:
        Replications per measurement.
    bounds:
        Parameter box.
    seed:
        Base random seed.
    """

    model: GraphNeuralSurrogate
    dataset: SurrogateDataset
    trainer: Trainer = field(default_factory=Trainer)
    batch_size: int = 8
    xi: float = 0.05
    n_replications: int = 3
    bounds: ParameterBounds = DEFAULT_BOUNDS
    seed: int = 0

    def run(self, targets: dict[str, tuple[sp.spmatrix, MatrixEvaluator]], *,
            total_budget: int, solver: str = "gmres"
            ) -> list[BORoundResult]:
        """Run rounds until ``total_budget`` evaluations have been spent.

        Parameters
        ----------
        targets:
            Mapping ``name -> (matrix, evaluator)`` of the matrices in
            ``A_train`` (Algorithm 1 iterates over all of them every round).
        total_budget:
            Total number of candidate evaluations allowed across all rounds
            and matrices (the ``|D_t| = B`` stopping rule of Algorithm 1,
            counted in new evaluations).
        """
        if total_budget < 1:
            raise ParameterError(f"total_budget must be >= 1, got {total_budget}")
        results: list[BORoundResult] = []
        spent = 0
        round_index = 0
        # Fit once on the initial dataset before the first proposal round.
        self.trainer.fit(self.model, self.dataset)
        while spent < total_budget:
            for name, (matrix, evaluator) in targets.items():
                if spent >= total_budget:
                    break
                batch = min(self.batch_size, total_budget - spent)
                result = bo_round(
                    self.model, self.dataset, evaluator, matrix, name,
                    batch_size=batch, xi=self.xi,
                    n_replications=self.n_replications, solver=solver,
                    bounds=self.bounds, seed=self.seed + 101 * round_index,
                    retrain=True, trainer=self.trainer)
                results.append(result)
                spent += len(result.observations)
            round_index += 1
        return results
