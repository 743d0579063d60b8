"""High-level facade: :class:`MCMCTuner`.

Wraps the full pipeline behind a small API for downstream users:

>>> tuner = MCMCTuner.from_matrices({"laplace": A1, "advdiff": A2})   # doctest: +SKIP
>>> tuner.fit()                                                        # doctest: +SKIP
>>> best = tuner.recommend(A_new, "my_matrix", n_candidates=8)         # doctest: +SKIP
>>> best[0].parameters                                                 # doctest: +SKIP

``from_matrices`` collects a coarse grid-search dataset, ``fit`` trains the
surrogate, ``recommend`` proposes candidates for a (possibly unseen) matrix
and ``evaluate_candidates`` measures them with real solver runs, optionally
feeding the measurements back into the model (one BO round).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from repro.core.baselines import grid_search_candidates
from repro.core.dataset import SurrogateDataset
from repro.core.evaluation import (
    LabelledObservation,
    MatrixEvaluator,
    PerformanceRecord,
    SolverSettings,
    collect_grid_observations,
)
from repro.core.optimize import AcquisitionOptimizer, Candidate
from repro.core.surrogate import GraphNeuralSurrogate, SurrogateConfig
from repro.core.training import Trainer, TrainingConfig, TrainingHistory
from repro.exceptions import SurrogateError
from repro.logging_utils import get_logger
from repro.mcmc.parameters import DEFAULT_BOUNDS, MCMCParameters, ParameterBounds

__all__ = ["MCMCTuner"]

_LOG = get_logger("core.recommender")


@dataclass
class MCMCTuner:
    """End-to-end tuner recommending MCMC preconditioner parameters.

    Attributes
    ----------
    dataset:
        Labelled dataset the surrogate is trained on.
    matrices:
        Training matrices by name (used to rebuild evaluators on demand).
    surrogate_config, training_config:
        Model and optimisation hyperparameters.
    solver_settings:
        Settings of the Krylov runs used for measurements.
    bounds:
        Box constraints for recommendations.
    seed:
        Base seed for every stochastic component.
    """

    dataset: SurrogateDataset
    matrices: dict[str, sp.spmatrix]
    surrogate_config: SurrogateConfig = field(default_factory=SurrogateConfig)
    training_config: TrainingConfig = field(default_factory=TrainingConfig)
    solver_settings: SolverSettings = field(default_factory=SolverSettings)
    bounds: ParameterBounds = DEFAULT_BOUNDS
    seed: int = 0
    model: GraphNeuralSurrogate | None = None
    history: TrainingHistory | None = None

    # -- construction -----------------------------------------------------------
    @classmethod
    def from_matrices(cls, matrices: dict[str, sp.spmatrix], *,
                      parameter_grid: list[MCMCParameters] | None = None,
                      n_replications: int = 3,
                      solver_settings: SolverSettings | None = None,
                      surrogate_config: SurrogateConfig | None = None,
                      training_config: TrainingConfig | None = None,
                      seed: int = 0) -> "MCMCTuner":
        """Collect a grid-search dataset on ``matrices`` and build a tuner."""
        solver_settings = solver_settings or SolverSettings()
        if parameter_grid is None:
            parameter_grid = grid_search_candidates(
                solver="gmres", alphas=(1.0, 2.0, 4.0, 5.0),
                epss=(0.5, 0.25), deltas=(0.5, 0.25))
        observations = collect_grid_observations(
            matrices, parameter_grid, n_replications=n_replications,
            settings=solver_settings, seed=seed)
        dataset = SurrogateDataset(observations, matrices)
        return cls(dataset=dataset, matrices=dict(matrices),
                   surrogate_config=surrogate_config or SurrogateConfig(),
                   training_config=training_config or TrainingConfig(),
                   solver_settings=solver_settings, seed=seed)

    @classmethod
    def from_observations(cls, observations: list[LabelledObservation],
                          matrices: dict[str, sp.spmatrix], **kwargs) -> "MCMCTuner":
        """Build a tuner from pre-collected observations."""
        dataset = SurrogateDataset(observations, matrices)
        return cls(dataset=dataset, matrices=dict(matrices), **kwargs)

    # -- training -----------------------------------------------------------------
    def fit(self) -> TrainingHistory:
        """Train (or retrain) the surrogate on the current dataset."""
        config = self.surrogate_config.with_dims(
            node_dim=self.dataset.node_feature_dim,
            edge_dim=self.dataset.edge_feature_dim,
            xa_dim=self.dataset.xa_dim,
            xm_dim=self.dataset.xm_dim,
        )
        if self.model is None:
            self.model = GraphNeuralSurrogate(config)
        trainer = Trainer(self.training_config)
        self.history = trainer.fit(self.model, self.dataset)
        _LOG.info("surrogate trained: best validation loss %.4f (epoch %d)",
                  self.history.best_validation_loss, self.history.best_epoch)
        return self.history

    def _require_model(self) -> GraphNeuralSurrogate:
        if self.model is None:
            raise SurrogateError("call fit() before requesting recommendations")
        return self.model

    # -- recommendation --------------------------------------------------------------
    def recommend(self, matrix: sp.spmatrix, matrix_name: str, *,
                  n_candidates: int = 8, xi: float = 0.05,
                  solver: str = "gmres") -> list[Candidate]:
        """Propose parameter vectors for ``matrix`` (which may be unseen).

        This is the ladder's ``surrogate`` stage in its *explore* form: the
        distinct Expected-Improvement optima, to be measured next.
        """
        # Imported here: repro.service imports repro.core.evaluation, so a
        # module-level import would be circular.
        from repro.service import ladder

        return ladder.surrogate(
            self._require_model(), self.dataset, matrix, matrix_name,
            bounds=self.bounds, seed=self.seed, solver=solver,
            n_candidates=n_candidates, xi=xi, n_restarts=4, exploit=False)

    def predict(self, matrix: sp.spmatrix, matrix_name: str,
                parameter_list: list[MCMCParameters]
                ) -> tuple[np.ndarray, np.ndarray]:
        """Surrogate predictions for explicit parameter vectors."""
        model = self._require_model()
        optimizer = AcquisitionOptimizer(model, self.dataset, bounds=self.bounds,
                                         seed=self.seed)
        return optimizer.predict_parameters(matrix, matrix_name, parameter_list)

    # -- measurement / feedback ---------------------------------------------------------
    def evaluate_candidates(self, matrix: sp.spmatrix, matrix_name: str,
                            candidates: list[Candidate] | list[MCMCParameters], *,
                            n_replications: int = 3,
                            update_model: bool = False) -> list[PerformanceRecord]:
        """Measure candidates with real solver runs; optionally retrain.

        With ``update_model=True`` this is one full BO round: the measurements
        are appended to the dataset and the surrogate is retrained, producing
        the BO-enhanced model of the paper.
        """
        parameter_list = [
            c.parameters if isinstance(c, Candidate) else c for c in candidates]
        evaluator = MatrixEvaluator(matrix, matrix_name,
                                    settings=self.solver_settings, seed=self.seed)
        records = evaluator.evaluate_many(parameter_list,
                                          n_replications=n_replications)
        if update_model:
            self.dataset.extend([record.to_observation() for record in records],
                                matrices={matrix_name: matrix})
            self.matrices.setdefault(matrix_name, matrix)
            self.fit()
        return records

    def best_parameters(self, records: list[PerformanceRecord]) -> MCMCParameters:
        """Parameters with the lowest sample-median metric among ``records``."""
        if not records:
            raise SurrogateError("no records to choose from")
        best = min(records, key=lambda record: record.y_median)
        return best.parameters
