"""The paper's primary contribution: AI-driven tuning of MCMC preconditioners.

This package couples the substrates (MCMC matrix inversion, Krylov solvers,
graph neural networks) into the framework of Sections 3--4:

* :mod:`repro.core.evaluation` -- the preconditioning performance metric
  ``y(A, x_M)`` (Eq. 4) measured by real MCMC + Krylov runs, with replications;
* :mod:`repro.core.dataset`    -- labelled datasets ``(G, x_A, x_M, y_mean, y_std)``
  with standardisation and train/validation splitting (Sec. 4.2);
* :mod:`repro.core.surrogate`  -- the graph neural surrogate with mean and
  uncertainty heads (Sec. 3.1, Eq. 1);
* :mod:`repro.core.training`   -- Adam training with the MSE objective (Eq. 2);
* :mod:`repro.core.acquisition`-- Expected Improvement (Eq. 3);
* :mod:`repro.core.optimize`   -- L-BFGS-B maximisation of EI with restarts;
* :mod:`repro.core.baselines`  -- the grid-search baseline;
* :mod:`repro.core.recommender`-- the high-level :class:`MCMCTuner` facade,
  whose ``recommend`` + ``evaluate_candidates(update_model=True)`` is one
  round of the Bayesian tuning loop (Algorithm 1).
"""

from repro.core.evaluation import (
    SolverSettings,
    PerformanceRecord,
    LabelledObservation,
    MatrixEvaluator,
    collect_grid_observations,
)
from repro.core.dataset import (
    SurrogateDataset,
    SampleBatch,
    Standardizer,
    encode_parameters,
    PARAMETER_VECTOR_DIM,
)
from repro.core.surrogate import SurrogateConfig, GraphNeuralSurrogate
from repro.core.training import TrainingConfig, TrainingHistory, Trainer
from repro.core.acquisition import ExpectedImprovement, expected_improvement
from repro.core.optimize import AcquisitionOptimizer, Candidate
from repro.core.baselines import grid_search_candidates
from repro.core.recommender import MCMCTuner

__all__ = [
    "SolverSettings",
    "PerformanceRecord",
    "LabelledObservation",
    "MatrixEvaluator",
    "collect_grid_observations",
    "SurrogateDataset",
    "SampleBatch",
    "Standardizer",
    "encode_parameters",
    "PARAMETER_VECTOR_DIM",
    "SurrogateConfig",
    "GraphNeuralSurrogate",
    "TrainingConfig",
    "TrainingHistory",
    "Trainer",
    "ExpectedImprovement",
    "expected_improvement",
    "AcquisitionOptimizer",
    "Candidate",
    "grid_search_candidates",
    "MCMCTuner",
]
