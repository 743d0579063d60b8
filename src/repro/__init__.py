"""repro -- Fast linear solvers via AI-tuned MCMC-based matrix inversion.

Reproduction of Lebedev et al., *"Fast Linear Solvers via AI-Tuned Markov
Chain Monte Carlo-based Matrix Inversion"* (SC Workshops '25).  The package
contains the full stack needed by the paper:

* the MCMC matrix-inversion preconditioner and its algorithmic parameters
  (:mod:`repro.mcmc`),
* Krylov solvers with iteration counting (:mod:`repro.krylov`),
* classical baseline preconditioners (:mod:`repro.precond`),
* the matrix study set of Table 1 (:mod:`repro.matrices`),
* a from-scratch autodiff / GNN stack (:mod:`repro.nn`, :mod:`repro.gnn`),
* the AI-driven tuning framework -- surrogate, Expected Improvement,
  the tuning round of :class:`~repro.core.MCMCTuner`, the grid baseline
  (:mod:`repro.core`),
* hyperparameter optimisation (TPE + ASHA, :mod:`repro.hpo`),
* statistics for the evaluation figures (:mod:`repro.stats`),
* experiment drivers regenerating every table and figure
  (:mod:`repro.experiments`).

Quick start
-----------
>>> import numpy as np
>>> from repro import MCMCParameters, MCMCPreconditioner, solve
>>> from repro.matrices import laplacian_2d
>>> A = laplacian_2d(16)
>>> M = MCMCPreconditioner(A, MCMCParameters(alpha=0.5, eps=0.25, delta=0.25))
>>> result = solve(A, np.ones(A.shape[0]), solver="gmres", preconditioner=M)
>>> result.converged
True
"""

from repro.version import __version__
from repro.exceptions import ReproError
from repro.mcmc import MCMCParameters, MCMCPreconditioner
from repro.krylov import solve, SolveResult
from repro.core import (
    MCMCTuner,
    MatrixEvaluator,
    SolverSettings,
    GraphNeuralSurrogate,
    SurrogateConfig,
    TrainingConfig,
)
from repro.api import SolveRequestV1, SolveResponseV1
from repro.client import Client, HTTPClient, InProcessClient
from repro.server import SolveServer

__all__ = [
    "__version__",
    "ReproError",
    "MCMCParameters",
    "MCMCPreconditioner",
    "solve",
    "SolveResult",
    "MCMCTuner",
    "MatrixEvaluator",
    "SolverSettings",
    "GraphNeuralSurrogate",
    "SurrogateConfig",
    "TrainingConfig",
    "SolveServer",
    "SolveRequestV1",
    "SolveResponseV1",
    "Client",
    "HTTPClient",
    "InProcessClient",
]
