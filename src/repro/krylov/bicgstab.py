"""BiCGStab with left preconditioning.

Van der Vorst's stabilised bi-conjugate gradient method for general
(nonsymmetric) systems, preconditioned with an explicit approximate inverse
``M ≈ A^{-1}`` applied to the residual-like vectors.  Each iteration performs
two matrix--vector products with ``A`` and two preconditioner applications;
``iterations`` in the returned :class:`~repro.krylov.base.SolveResult` counts
BiCGStab iterations (the quantity used by the paper's performance metric).
"""

from __future__ import annotations

import numpy as np

from repro.krylov.base import SolveResult, SolveRun

__all__ = ["bicgstab"]


def bicgstab(matrix, rhs, *, preconditioner=None, x0=None, rtol: float = 1e-8,
             maxiter: int | None = None) -> SolveResult:
    """Solve ``A x = b`` with preconditioned BiCGStab.

    Parameters
    ----------
    matrix, rhs, preconditioner, x0, rtol, maxiter:
        As in :func:`repro.krylov.gmres.gmres`; the tolerance is relative to
        ``||b||`` (unpreconditioned residual), which keeps the stopping rule
        identical with and without preconditioning.
    """
    run = SolveRun("bicgstab", matrix, rhs, x0, maxiter, rtol, preconditioner)
    b, x, n, apply_a, apply_m = run.b, run.x, run.n, run.apply_a, run.apply_m

    b_norm = float(np.linalg.norm(b))
    if b_norm == 0.0:
        return run.finish(np.zeros(n), converged=True, iterations=0,
                          history=[0.0], residual=b)
    tolerance = run.rtol * b_norm

    residual = b - apply_a(x)
    residual_norm = float(np.linalg.norm(residual))
    history = [residual_norm]
    if residual_norm <= tolerance:
        return run.finish(x, converged=True, iterations=0, history=history,
                          residual=residual)

    shadow = residual.copy()
    rho_previous = 1.0
    alpha = 1.0
    omega = 1.0
    direction = np.zeros(n, dtype=np.float64)
    v = np.zeros(n, dtype=np.float64)

    iterations = 0
    converged = False
    breakdown = False

    while iterations < run.maxiter:
        iterations += 1
        rho = float(np.dot(shadow, residual))
        if rho == 0.0:
            breakdown = True
            break
        if iterations == 1:
            direction = residual.copy()
        else:
            if omega == 0.0:
                breakdown = True
                break
            beta = (rho / rho_previous) * (alpha / omega)
            direction = residual + beta * (direction - omega * v)
        preconditioned_direction = apply_m(direction)
        v = apply_a(preconditioned_direction)
        shadow_dot_v = float(np.dot(shadow, v))
        if shadow_dot_v == 0.0:
            breakdown = True
            break
        alpha = rho / shadow_dot_v
        s = residual - alpha * v
        s_norm = float(np.linalg.norm(s))
        if s_norm <= tolerance:
            x = x + alpha * preconditioned_direction
            history.append(s_norm)
            converged = True
            break
        preconditioned_s = apply_m(s)
        t = apply_a(preconditioned_s)
        t_dot_t = float(np.dot(t, t))
        if t_dot_t == 0.0:
            breakdown = True
            x = x + alpha * preconditioned_direction
            history.append(s_norm)
            break
        omega = float(np.dot(t, s)) / t_dot_t
        x = x + alpha * preconditioned_direction + omega * preconditioned_s
        residual = s - omega * t
        residual_norm = float(np.linalg.norm(residual))
        history.append(residual_norm)
        if residual_norm <= tolerance:
            converged = True
            break
        if omega == 0.0:
            breakdown = True
            break
        rho_previous = rho

    return run.finish(x, converged=converged or history[-1] <= tolerance,
                      iterations=iterations, history=history,
                      breakdown=breakdown)
