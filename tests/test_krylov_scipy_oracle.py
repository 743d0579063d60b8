"""Differential oracle: the Krylov solvers against scipy's.

Everything else checks ``cg`` / ``gmres`` / ``bicgstab`` against themselves
(frozen fixtures, loop-versus-block, the exit contract).  Here each one
solves the seeded SPD, diagonally dominant and unsymmetric systems of
``test_solver_properties.py`` beside ``scipy.sparse.linalg.cg`` / ``gmres``
/ ``bicgstab`` with the same preconditioner, and the two must agree: both
converge, the solutions to ``SOLUTION_RTOL`` and the iteration counts
within the band declared per solver.

The declared tolerances, measured over these 24 cases × 20 draws at
``rtol = 1e-10``:

* CG and BiCGStab return scipy's solution bit for bit; GMRES agrees to
  9.5e-11 (ILU(0), diagonally dominant) where the stopping rules differ and
  to 1e-15 where they do not.
* CG counts exactly scipy's iterations.
* BiCGStab counts one more when it converges at the half step: it counts
  that iteration and scipy returns before calling back for it.
* Unpreconditioned GMRES counts exactly scipy's iterations.  Preconditioned,
  GMRES stops on ``‖M(b - A x)‖ ≤ rtol ‖M b‖`` and scipy on
  ``‖b - A x‖ ≤ rtol ‖b‖``; ours stopped up to two steps earlier (Jacobi,
  diagonally dominant).
"""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from repro.krylov import bicgstab, cg, gmres
from repro.precond import (ILU0Preconditioner, IncompleteCholeskyPreconditioner,
                           JacobiPreconditioner)
from test_solver_properties import GENERATORS, N

RTOL = 1e-10
DRAWS = range(2000, 2020)
SOLUTION_RTOL = 1e-9

SOLVERS = {"cg": cg, "gmres": gmres, "bicgstab": bicgstab}
FAMILIES = {"jacobi": JacobiPreconditioner, "ilu0": ILU0Preconditioner,
            "ic0": IncompleteCholeskyPreconditioner}

#: ``ours - scipy`` iteration counts allowed, as (low, high), per solver and
#: whether a preconditioner is used.
ITERATION_BAND = {("cg", False): (0, 0), ("cg", True): (0, 0),
                  ("bicgstab", False): (0, 1), ("bicgstab", True): (0, 1),
                  ("gmres", False): (0, 0), ("gmres", True): (-2, 0)}

CASES = [(solver, kind, family)
         for solver, kinds in (
             ("cg", ["spd"]),
             ("gmres", ["spd", "diag_dominant", "unsymmetric"]),
             ("bicgstab", ["spd", "diag_dominant", "unsymmetric"]))
         for kind in kinds
         for family in (None, "jacobi", "ilu0",
                        *(["ic0"] if kind == "spd" else []))]


def _scipy_solve(solver, matrix, rhs, preconditioner):
    """scipy's answer, its exit code and how many iterations it called back."""
    calls = []
    operator = (None if preconditioner is None
                else preconditioner.as_linear_operator())
    if solver == "gmres":
        # full GMRES; ``maxiter`` counts restart cycles, ``pr_norm`` calls
        # back once per inner step
        solution, info = spla.gmres(matrix, rhs, rtol=RTOL, atol=0.0,
                                    restart=N, maxiter=20, M=operator,
                                    callback=calls.append,
                                    callback_type="pr_norm")
    else:
        solution, info = getattr(spla, solver)(
            matrix, rhs, rtol=RTOL, atol=0.0, maxiter=10 * N, M=operator,
            callback=calls.append)
    return solution, info, len(calls)


@pytest.mark.parametrize("solver,kind,family", CASES)
def test_agrees_with_scipy(solver, kind, family):
    low, high = ITERATION_BAND[solver, family is not None]
    for draw in DRAWS:
        matrix = GENERATORS[kind](seed=draw)
        rhs = np.random.default_rng(draw).standard_normal(N)
        preconditioner = None if family is None else FAMILIES[family](matrix)
        ours = SOLVERS[solver](matrix, rhs, preconditioner=preconditioner,
                               rtol=RTOL, maxiter=10 * N)
        theirs, info, iterations = _scipy_solve(solver, matrix, rhs,
                                                preconditioner)
        assert ours.converged and info == 0, draw
        assert (np.linalg.norm(ours.solution - theirs)
                <= SOLUTION_RTOL * np.linalg.norm(theirs)), draw
        assert low <= ours.iterations - iterations <= high, \
            (draw, ours.iterations, iterations)
