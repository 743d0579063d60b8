"""Restarted GMRES with left preconditioning.

Implements GMRES(m) for the left-preconditioned system ``M A x = M b``:
Arnoldi with modified Gram--Schmidt builds an orthonormal basis of the Krylov
space of ``M A``, Givens rotations keep the least-squares problem in
upper-triangular form so that the preconditioned residual norm is available at
every inner step without forming the iterate.  The iteration count reported in
:class:`~repro.krylov.base.SolveResult` is the number of inner Arnoldi steps,
i.e. the number of applications of ``A`` (and of ``M``), which is the cost the
paper's performance metric tracks.
"""

from __future__ import annotations

import time

import numpy as np

from repro.krylov.base import SolveResult, as_preconditioner_function, prepare_system
from repro.obs.phases import (PHASE_MATVEC, PHASE_ORTHO, PHASE_PRECOND,
                              finish_solve_phases, solve_phase_timings,
                              timed_operator)

__all__ = ["gmres"]


def gmres(matrix, rhs, *, preconditioner=None, x0=None, rtol: float = 1e-8,
          maxiter: int | None = None, restart: int = 50) -> SolveResult:
    """Solve ``A x = b`` with left-preconditioned restarted GMRES.

    Parameters
    ----------
    matrix:
        Square sparse (or dense) matrix ``A``.
    rhs:
        Right-hand side ``b``.
    preconditioner:
        Left preconditioner ``M ≈ A^{-1}`` in any form accepted by
        :func:`~repro.krylov.base.as_preconditioner_function`.
    x0:
        Initial guess (zero vector by default).
    rtol:
        Relative tolerance on the preconditioned residual ``||M(b - Ax)||``.
    maxiter:
        Maximum number of inner iterations (matrix--vector products).
    restart:
        Restart length ``m`` of GMRES(m).

    Returns
    -------
    SolveResult
        With ``iterations`` counting inner Arnoldi steps.
    """
    a_matrix, b, x, maxiter, rtol = prepare_system(matrix, rhs, x0, maxiter, rtol)
    n = a_matrix.shape[0]
    timings = solve_phase_timings()
    apply_a = timed_operator(a_matrix.__matmul__, timings, PHASE_MATVEC)
    apply_m = timed_operator(as_preconditioner_function(preconditioner, n),
                             timings, PHASE_PRECOND)
    restart = int(max(1, min(restart, n, maxiter)))

    preconditioned_rhs_norm = float(np.linalg.norm(apply_m(b)))
    if preconditioned_rhs_norm == 0.0:
        # b (or M b) is zero: x = 0 is the exact solution.
        return SolveResult(solution=np.zeros(n), converged=True, iterations=0,
                           residual_norms=[0.0], solver="gmres", matvecs=0,
                           phase_timings=finish_solve_phases(timings))
    tolerance = rtol * preconditioned_rhs_norm

    residual_history: list[float] = []
    total_iterations = 0
    matvecs = 0
    converged = False

    residual = apply_m(b - apply_a(x))
    matvecs += 1
    residual_norm = float(np.linalg.norm(residual))
    residual_history.append(residual_norm)
    if residual_norm <= tolerance:
        return SolveResult(solution=x, converged=True, iterations=0,
                           residual_norms=residual_history, solver="gmres",
                           matvecs=matvecs,
                           phase_timings=finish_solve_phases(timings))

    while total_iterations < maxiter and not converged:
        # --- Arnoldi process for one restart cycle ---------------------------
        # The two big arrays are left uninitialised: serving asks for full
        # GMRES (``restart = min(n, maxiter)``), and zero-filling 1001 rows a
        # converging solve never reaches touches tens of MB per cycle.  Every
        # entry is written before it is read — basis row j+1 and Hessenberg
        # column j at step j — so results are bit-identical to zero-filling.
        basis = np.empty((restart + 1, n), dtype=np.float64)
        hessenberg = np.empty((restart + 1, restart), dtype=np.float64)
        givens_cos = np.zeros(restart, dtype=np.float64)
        givens_sin = np.zeros(restart, dtype=np.float64)
        rhs_small = np.zeros(restart + 1, dtype=np.float64)

        basis[0] = residual / residual_norm
        rhs_small[0] = residual_norm
        inner_used = 0

        for j in range(restart):
            if total_iterations >= maxiter:
                break
            total_iterations += 1
            inner_used = j + 1

            work = apply_m(apply_a(basis[j]))
            matvecs += 1
            # Modified Gram--Schmidt orthogonalisation.
            ortho_start = 0.0 if timings is None else time.perf_counter()
            for i in range(j + 1):
                hessenberg[i, j] = float(np.dot(work, basis[i]))
                work = work - hessenberg[i, j] * basis[i]
            hessenberg[j + 1, j] = float(np.linalg.norm(work))
            if timings is not None:
                timings.add(PHASE_ORTHO, time.perf_counter() - ortho_start)
            lucky_breakdown = hessenberg[j + 1, j] <= 1e-14 * max(residual_norm, 1.0)
            if not lucky_breakdown:
                basis[j + 1] = work / hessenberg[j + 1, j]

            # Apply the accumulated Givens rotations to the new column.
            for i in range(j):
                temp = givens_cos[i] * hessenberg[i, j] + givens_sin[i] * hessenberg[i + 1, j]
                hessenberg[i + 1, j] = (-givens_sin[i] * hessenberg[i, j]
                                        + givens_cos[i] * hessenberg[i + 1, j])
                hessenberg[i, j] = temp
            # New rotation annihilating the subdiagonal entry.
            denom = float(np.hypot(hessenberg[j, j], hessenberg[j + 1, j]))
            if denom == 0.0:
                givens_cos[j], givens_sin[j] = 1.0, 0.0
            else:
                givens_cos[j] = hessenberg[j, j] / denom
                givens_sin[j] = hessenberg[j + 1, j] / denom
            hessenberg[j, j] = denom
            hessenberg[j + 1, j] = 0.0
            rhs_small[j + 1] = -givens_sin[j] * rhs_small[j]
            rhs_small[j] = givens_cos[j] * rhs_small[j]

            residual_norm = abs(rhs_small[j + 1])
            residual_history.append(float(residual_norm))
            if residual_norm <= tolerance or lucky_breakdown:
                # End the cycle; convergence is only declared below, after the
                # true preconditioned residual is recomputed.  A "lucky"
                # breakdown whose recomputed residual still exceeds the
                # tolerance (near-dependent basis, singular preconditioner)
                # must not be reported as converged.
                break

        # --- Solve the small triangular system and update the iterate --------
        k = inner_used
        if k > 0:
            y = np.zeros(k, dtype=np.float64)
            for i in range(k - 1, -1, -1):
                diagonal = hessenberg[i, i]
                if diagonal == 0.0:
                    y[i] = 0.0
                    continue
                y[i] = (rhs_small[i] - np.dot(hessenberg[i, i + 1:k], y[i + 1:k])) / diagonal
            x = x + basis[:k].T @ y

        residual = apply_m(b - apply_a(x))
        matvecs += 1
        residual_norm = float(np.linalg.norm(residual))
        if residual_norm <= tolerance:
            converged = True

    return SolveResult(solution=x, converged=converged, iterations=total_iterations,
                       residual_norms=residual_history, solver="gmres",
                       matvecs=matvecs,
                       phase_timings=finish_solve_phases(timings))
