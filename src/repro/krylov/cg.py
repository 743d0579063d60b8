"""Preconditioned Conjugate Gradient (CG).

For symmetric positive-definite systems -- the 2-D FD Laplacians of the study
set -- the paper additionally runs CG (at ``alpha = 0.1``).  The classical
preconditioned CG recursion is used with the approximate inverse ``M`` applied
to the residual at every step.  CG formally requires a symmetric positive
definite preconditioner; the MCMC approximate inverse is not exactly
symmetric, so (as in the reference implementation) the method is used in its
"flexible" spirit: the recursion is unchanged and convergence is monitored on
the unpreconditioned recurrence residual, as the paper counts steps.
"""

from __future__ import annotations

import numpy as np

from repro.krylov.base import SolveResult, SolveRun

__all__ = ["cg"]


def cg(matrix, rhs, *, preconditioner=None, x0=None, rtol: float = 1e-8,
       maxiter: int | None = None) -> SolveResult:
    """Solve the SPD system ``A x = b`` with preconditioned CG.

    Parameters
    ----------
    matrix, rhs, preconditioner, x0, rtol, maxiter:
        As in :func:`repro.krylov.gmres.gmres`; the tolerance is relative to
        ``||b||``.
    """
    run = SolveRun("cg", matrix, rhs, x0, maxiter, rtol, preconditioner)
    b, x, apply_a, apply_m = run.b, run.x, run.apply_a, run.apply_m

    b_norm = float(np.linalg.norm(b))
    if b_norm == 0.0:
        return run.finish(np.zeros(run.n), converged=True, iterations=0,
                          history=[0.0], residual=b)
    tolerance = run.rtol * b_norm

    residual = b - apply_a(x)
    residual_norm = float(np.linalg.norm(residual))
    history = [residual_norm]
    if residual_norm <= tolerance:
        return run.finish(x, converged=True, iterations=0, history=history,
                          residual=residual)

    z = apply_m(residual)
    direction = z.copy()
    rz = float(np.dot(residual, z))

    iterations = 0
    converged = False
    breakdown = False

    while iterations < run.maxiter:
        iterations += 1
        a_direction = apply_a(direction)
        denominator = float(np.dot(direction, a_direction))
        if denominator == 0.0:
            breakdown = True
            break
        step = rz / denominator
        x = x + step * direction
        residual = residual - step * a_direction
        residual_norm = float(np.linalg.norm(residual))
        history.append(residual_norm)
        if residual_norm <= tolerance:
            converged = True
            break
        z = apply_m(residual)
        rz_new = float(np.dot(residual, z))
        # A vanishing M-inner product with a non-converged residual is a true
        # breakdown (e.g. an indefinite preconditioner): beta would be 0 and
        # the recursion would restart from a useless direction.  The old `rz`
        # can also be zero here — only when the *initial* (r0, M r0) vanished,
        # since later values are previous non-zero `rz_new`s — and would make
        # `beta` divide by zero.
        if rz_new == 0.0 or rz == 0.0:
            breakdown = True
            break
        beta = rz_new / rz
        direction = z + beta * direction
        rz = rz_new

    return run.finish(x, converged=converged, iterations=iterations,
                      history=history, breakdown=breakdown)
