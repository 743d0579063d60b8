#!/usr/bin/env python
"""Compare the MCMC preconditioner against classical algebraic baselines.

Reproduces the motivation of the paper's introduction: on matrices of the
study set, incomplete factorisations (ILU(0) / IC(0)), sparse approximate
inverses (SPAI), simple Jacobi scaling, the deterministic truncated Neumann
series and the stochastic MCMC matrix inversion are all applied as left
preconditioners of GMRES under identical settings, and the iteration counts
are tabulated.

Run with::

    python examples/compare_preconditioners.py
"""

from __future__ import annotations

import numpy as np

from repro import MCMCParameters, MCMCPreconditioner, solve
from repro.experiments.reporting import format_table
from repro.matrices import laplacian_2d, pdd_real_sparse, unsteady_advection_diffusion
from repro.mcmc import RegenerativePreconditioner
from repro.precond import (
    ILU0Preconditioner,
    IncompleteCholeskyPreconditioner,
    JacobiPreconditioner,
    NeumannPreconditioner,
    SPAIPreconditioner,
)
from repro.sparse import is_symmetric


def iteration_count(matrix, preconditioner, maxiter=600) -> int:
    rhs = np.ones(matrix.shape[0])
    return solve(matrix, rhs, solver="gmres", maxiter=maxiter,
                 restart=matrix.shape[0],
                 preconditioner=preconditioner).measured_iterations


def build_preconditioners(name: str, matrix):
    """All baselines applicable to ``matrix`` plus the MCMC/regenerative ones."""
    alpha = 0.5 if name.startswith("2DFD") else 4.0
    preconditioners = {
        "none": None,
        "jacobi": JacobiPreconditioner(matrix),
        "ilu0": ILU0Preconditioner(matrix),
        "spai": SPAIPreconditioner(matrix),
        "neumann(8)": NeumannPreconditioner(matrix, terms=8, alpha=0.0),
        "mcmc": MCMCPreconditioner(
            matrix, MCMCParameters(alpha=alpha, eps=0.125, delta=0.125), seed=0),
        "regenerative": RegenerativePreconditioner(matrix, alpha=alpha,
                                                   transition_budget=200, seed=0),
    }
    if is_symmetric(matrix):
        preconditioners["ic0"] = IncompleteCholeskyPreconditioner(matrix)
    return preconditioners


def main() -> None:
    matrices = {
        "2DFDLaplace_16": laplacian_2d(16),
        "unsteady_adv_diff_order2_0001": unsteady_advection_diffusion(15, order=2),
        "PDD_RealSparse_N64": pdd_real_sparse(64),
    }
    methods = ["none", "jacobi", "ic0", "ilu0", "spai", "neumann(8)",
               "mcmc", "regenerative"]
    rows = []
    for name, matrix in matrices.items():
        preconditioners = build_preconditioners(name, matrix)
        row = [name]
        for method in methods:
            if method not in preconditioners:
                row.append("-")
                continue
            row.append(iteration_count(matrix, preconditioners[method]))
        rows.append(row)
    print(format_table(["matrix"] + methods, rows,
                       title="GMRES iterations by preconditioner "
                             "(rtol=1e-8, identical settings)"))
    print("\nNotes: ILU/IC need triangular solves (hard to parallelise); "
          "SPAI, Neumann and MCMC apply via SpMV only -- the architectural "
          "advantage highlighted by the paper.")


if __name__ == "__main__":
    main()
