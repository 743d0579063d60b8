"""Restarted GMRES with left preconditioning.

Implements GMRES(m) for the left-preconditioned system ``M A x = M b``:
Arnoldi with classical Gram--Schmidt applied twice (CGS2) builds an
orthonormal basis of the Krylov space of ``M A``, Givens rotations keep the
least-squares problem in upper-triangular form so that the preconditioned
residual norm is available at every inner step without forming the iterate.
The iteration count reported in :class:`~repro.krylov.base.SolveResult` is
the number of inner Arnoldi steps, i.e. the number of applications of ``A``
(and of ``M``), which is the cost the paper's performance metric tracks.

Each CGS2 pass is two products with the stored basis (``V w`` and
``w - (V w) V``) instead of one Python-level step per basis vector, and the
second pass restores the orthogonality a single classical pass loses
("twice is enough", Giraud et al.).  The result is orthogonal to working
precision like modified Gram--Schmidt's but not bit-identical to it; the
tests hold GMRES to declared tolerances instead.
"""

from __future__ import annotations

import time

import numpy as np

from repro.krylov.base import SolveResult, SolveRun
from repro.obs.phases import PHASE_ORTHO

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
    run = SolveRun("gmres", matrix, rhs, x0, maxiter, rtol, preconditioner)
    b, x, n, maxiter = run.b, run.x, run.n, run.maxiter
    apply_a, apply_m, timings = run.apply_a, run.apply_m, run.timings
    restart = int(max(1, min(restart, n, maxiter)))

    preconditioned_rhs_norm = float(np.linalg.norm(apply_m(b)))
    if preconditioned_rhs_norm == 0.0:
        # x = 0 is the exact solution when b = 0.  When only M b vanishes the
        # preconditioned system carries no information about b: a breakdown.
        solved = not b.any()
        return run.finish(np.zeros(n), converged=solved, iterations=0,
                          history=[0.0], breakdown=not solved, residual=b)
    tolerance = run.rtol * preconditioned_rhs_norm

    total_iterations = 0
    converged = False
    # ``true`` is b - A x of the current iterate: what the exit reports.
    true = b - apply_a(x)
    residual = apply_m(true)
    residual_norm = float(np.linalg.norm(residual))
    residual_history = [residual_norm]
    if residual_norm <= tolerance:
        return run.finish(x, converged=True, iterations=0,
                          history=residual_history, residual=true)

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
            # Classical Gram--Schmidt, twice (CGS2): each pass is two BLAS
            # products over the stored basis, and the second restores the
            # orthogonality one classical pass loses.  The first pass writes
            # a fresh array, so the operator's output is never modified.
            ortho_start = 0.0 if timings is None else time.perf_counter()
            stored = basis[:j + 1]
            first = stored @ work
            work = work - first @ stored
            second = stored @ work
            work -= second @ stored
            hessenberg[:j + 1, j] = first + second
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

        true = b - apply_a(x)
        residual = apply_m(true)
        residual_norm = float(np.linalg.norm(residual))
        if residual_norm <= tolerance:
            converged = True

    return run.finish(x, converged=converged, iterations=total_iterations,
                      history=residual_history, residual=true)
