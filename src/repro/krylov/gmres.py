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

The least-squares side runs on Python floats: each step takes the new
Hessenberg column as a list once, applies the earlier rotations to it entry
by entry, and writes it into the Hessenberg once.  Python's float ``*``, ``+`` and ``/`` are the same
IEEE double operations numpy's float64 scalars perform, so this is
bit-identical to rotating the array in place (``tests/test_gmres_bitwise.py``
holds it to a ``float.hex`` fixture).  The new rotation's norm stays
``np.hypot``: ``math.hypot`` rounds differently on some inputs.  Under
:func:`repro.obs.phases.record_phases` the rotations, the back-substitution
and the iterate update are timed as the ``lsq`` phase.
"""

from __future__ import annotations

import time

import numpy as np

from repro.exceptions import ParameterError
from repro.krylov.base import SolveResult, SolveRun
from repro.obs.phases import PHASE_LSQ, PHASE_ORTHO

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
        Restart length ``m`` of GMRES(m), an integer >= 1; lengths beyond
        ``min(n, maxiter)`` run full GMRES.

    Returns
    -------
    SolveResult
        With ``iterations`` counting inner Arnoldi steps.
    """
    run = SolveRun("gmres", matrix, rhs, x0, maxiter, rtol, preconditioner)
    b, x, n, maxiter = run.b, run.x, run.n, run.maxiter
    apply_a, apply_m, timings = run.apply_a, run.apply_m, run.timings
    if restart < 1 or restart != int(restart):
        raise ParameterError(f"restart must be an integer >= 1, got {restart}")
    restart = int(min(restart, n, maxiter))

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
        # The least-squares side lives in Python floats: the rotations so
        # far, and the rotated right-hand side, whose last entry is the
        # residual estimate.
        cosines: list[float] = []
        sines: list[float] = []
        rhs_small = [residual_norm]

        basis[0] = residual / residual_norm
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
            projections = first + second
            subdiagonal = float(np.linalg.norm(work))
            if timings is not None:
                timings.add(PHASE_ORTHO, time.perf_counter() - ortho_start)
            lucky_breakdown = subdiagonal <= 1e-14 * max(residual_norm, 1.0)
            if not lucky_breakdown:
                basis[j + 1] = work / subdiagonal

            # Apply the accumulated Givens rotations to the new column, on
            # Python floats (bit-identical, see the module docstring).
            # ``upper`` carries entry i + 1 as rotation i leaves it.
            lsq_start = 0.0 if timings is None else time.perf_counter()
            column = projections.tolist()
            rotated = []
            upper = column[0]
            for c, s, lower in zip(cosines, sines, column[1:]):
                rotated.append(c * upper + s * lower)
                upper = -s * upper + c * lower
            # New rotation annihilating the subdiagonal entry (``np.hypot``,
            # not ``math.hypot``).
            denom = float(np.hypot(upper, subdiagonal))
            if denom == 0.0:
                c, s = 1.0, 0.0
            else:
                c, s = upper / denom, subdiagonal / denom
            cosines.append(c)
            sines.append(s)
            rotated += (denom, 0.0)
            hessenberg[:j + 2, j] = rotated
            rhs_small.append(-s * rhs_small[j])
            rhs_small[j] = c * rhs_small[j]
            if timings is not None:
                timings.add(PHASE_LSQ, time.perf_counter() - lsq_start)

            residual_norm = abs(rhs_small[j + 1])
            residual_history.append(residual_norm)
            if residual_norm <= tolerance or lucky_breakdown:
                # End the cycle; convergence is only declared below, after the
                # true preconditioned residual is recomputed.  A "lucky"
                # breakdown whose recomputed residual still exceeds the
                # tolerance (near-dependent basis, singular preconditioner)
                # must not be reported as converged.
                break

        # --- Solve the small triangular system and update the iterate --------
        lsq_start = 0.0 if timings is None else time.perf_counter()
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
        if timings is not None:
            timings.add(PHASE_LSQ, time.perf_counter() - lsq_start)

        true = b - apply_a(x)
        residual = apply_m(true)
        residual_norm = float(np.linalg.norm(residual))
        if residual_norm <= tolerance:
            converged = True

    return run.finish(x, converged=converged, iterations=total_iterations,
                      history=residual_history, residual=true)
