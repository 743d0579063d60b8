"""Markov chain Monte Carlo matrix inversion (MCMCMI).

This package implements the stochastic preconditioner generator at the heart
of the paper: the Ulam--von Neumann estimator of ``A^{-1}`` built from
independent random walks on the row graph of the Jacobi iteration matrix,
together with the paper's three algorithmic parameters

* ``alpha`` -- diagonal perturbation so the Neumann series converges,
* ``eps``   -- stochastic error controlling the number of chains per row,
* ``delta`` -- truncation error controlling the maximum walk length,

and the two matrix-independent settings fixed by the paper (preconditioner
fill factor ``2 * phi(A)`` and truncation threshold ``1e-9``).

Modules
-------
``parameters``      -- :class:`MCMCParameters`, bounds, the paper's 4x4x4 grid.
``walks``           -- vectorised random-walk engine.
``inversion``       -- row-wise inverse estimation and assembly.
``preconditioner``  -- :class:`MCMCPreconditioner` (the user-facing object).
``regenerative``    -- regenerative Ulam--von Neumann variant (single budget
                        parameter; the paper cites it as the most recent
                        algorithmic advance).
"""

from repro.mcmc.parameters import (
    MCMCParameters,
    ParameterBounds,
    DEFAULT_BOUNDS,
    paper_parameter_grid,
    sample_parameters,
    num_chains_for_eps,
    walk_length_for_delta,
)
from repro.mcmc.walks import WalkEngine, WalkStatistics, TransitionTable
from repro.mcmc.inversion import estimate_inverse, InversionReport
from repro.mcmc.preconditioner import MCMCPreconditioner
from repro.mcmc.regenerative import RegenerativePreconditioner, regenerative_inverse

__all__ = [
    "MCMCParameters",
    "ParameterBounds",
    "DEFAULT_BOUNDS",
    "paper_parameter_grid",
    "sample_parameters",
    "num_chains_for_eps",
    "walk_length_for_delta",
    "WalkEngine",
    "WalkStatistics",
    "TransitionTable",
    "estimate_inverse",
    "InversionReport",
    "MCMCPreconditioner",
    "RegenerativePreconditioner",
    "regenerative_inverse",
]
