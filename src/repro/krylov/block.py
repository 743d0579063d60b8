"""Block conjugate gradients for multi right-hand-side SPD systems.

The solve server batches same-fingerprint requests into one
:func:`repro.krylov.solve_many` call, which by default loops ``solve()`` per
column — amortising the preconditioner build but not the Krylov work.
:func:`block_cg` builds **one** subspace for the whole right-hand-side
block (O'Leary's recursion), so a batch of ``k`` SPD requests pays fewer
applications of ``A`` than ``k`` independent CG solves, and less wall time
too.  Its deflation is rank-revealing: converged columns are retired from
the active block, and linearly-dependent right-hand sides (duplicated
columns, ``k > n`` blocks) are handled through truncated pseudo-inverses of
the small block Gram matrices instead of dividing by zero.

Block CG is the only block solver.  GMRES and BiCGStab batches are served
by the loop: block GMRES (block Arnoldi with a stacked least-squares solve
per step) saves matvecs but loses wall time to the loop on every measured
GMRES case (README, "Block solving").

Block CG returns the same per-column :class:`~repro.krylov.base.SolveResult`
list as the loop path, so callers (the scheduler, benchmarks, user code)
are agnostic to how the answers were produced.  The block-shared cost and
deflation accounting travels on every column as a single
:class:`BlockInfo` record.

Block answers agree with loop answers to the solve tolerance, but are *not*
bit-identical to them — which is why ``solve_many`` defaults to
``mode="loop"`` and the serving layer treats block mode as an explicit
opt-in (see :class:`repro.server.scheduler.Scheduler`).
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from repro.exceptions import MatrixFormatError, ParameterError
from repro.krylov.base import BlockInfo, SolveResult, SolveRun
from repro.sparse.csr import validate_square

__all__ = [
    "BLOCK_SOLVERS",
    "BlockInfo",
    "block_cg",
    "block_summary",
    "total_matvecs",
]

#: Solvers with a block implementation (``solve_many(mode="block")``).
BLOCK_SOLVERS = ("cg",)

#: Relative singular-value threshold below which block directions are
#: treated as linearly dependent and deflated (truncated pseudo-inverse).
DEFLATION_RTOL = 1e-12


def block_summary(results: Sequence[SolveResult]) -> BlockInfo | None:
    """The :class:`BlockInfo` a result list shares, or ``None`` (loop mode).

    A block solve attaches one record to every column of its block.
    """
    return next((result.block_info for result in results
                 if result.block_info is not None), None)


def total_matvecs(results: Sequence[SolveResult]) -> int:
    """Total applications of ``A`` across a result list, block-aware.

    Block columns carry ``matvecs=None`` (the applications are shared);
    their block-level total is counted exactly once.  Loop/standalone
    results contribute their own per-solve count.
    """
    summary = block_summary(results)
    return (0 if summary is None else summary.matvecs) + sum(
        result.matvecs or 0 for result in results if result.block_info is None)


# -- preparation -------------------------------------------------------------

def _prepare_block(matrix, rhs_block, x0):
    """Validate and normalise the inputs of a block solve.

    Error taxonomy mirrors :func:`repro.krylov.base.prepare_system`:
    malformed *block shapes* raise :class:`ParameterError` (the typed
    contract direct callers and ``solve_many`` share), while
    matrix-incompatibility (wrong length versus ``n``) stays
    :class:`MatrixFormatError`, exactly like a single-rhs solve.  The
    returned block is never mutated by the solvers, so no defensive copy
    is taken.
    """
    csr = validate_square(matrix)
    n = csr.shape[0]
    block = np.asarray(rhs_block, dtype=np.float64)
    if block.ndim == 1:
        block = block[:, None]
    if block.ndim != 2:
        raise ParameterError(
            f"rhs block must be a 1-D vector or a 2-D (n, k) array, "
            f"got a {block.ndim}-D array of shape {block.shape}")
    if block.shape[1] == 0:
        raise ParameterError("rhs block must contain at least one column")
    if block.shape[0] != n:
        raise MatrixFormatError(
            f"rhs block of shape {block.shape} incompatible with n={n}")
    if x0 is None:
        x = np.zeros((n, block.shape[1]), dtype=np.float64)
    else:
        start = np.asarray(x0, dtype=np.float64).ravel()
        if start.size != n:
            raise MatrixFormatError(
                f"initial guess of length {start.size} incompatible with n={n}")
        x = np.repeat(start[:, None], block.shape[1], axis=1)
    return csr, block, x


def _apply_block(apply_m: Callable[[np.ndarray], np.ndarray],
                 block: np.ndarray) -> np.ndarray:
    """Apply the (vector-only) preconditioner callable column by column."""
    out = np.empty_like(block)
    for j in range(block.shape[1]):
        out[:, j] = apply_m(block[:, j])
    return out


def _truncated_pinv(small: np.ndarray) -> tuple[np.ndarray, int]:
    """SVD pseudo-inverse of a small block matrix with its numerical rank.

    This is the rank-revealing step of the deflation: duplicated or
    linearly-dependent right-hand sides make the block Gram matrices
    singular, and the truncated pseudo-inverse restricts the update to the
    numerically independent directions instead of producing NaN.
    """
    u, s, vt = np.linalg.svd(small, full_matrices=False)
    if s.size == 0 or s[0] <= 0.0:
        return np.zeros_like(small.T), 0
    keep = s > DEFLATION_RTOL * s[0]
    rank = int(np.count_nonzero(keep))
    if rank == 0:
        return np.zeros_like(small.T), 0
    inv = (vt[keep].T * (1.0 / s[keep])) @ u[:, keep].T
    return inv, rank


# -- block conjugate gradients ----------------------------------------------

def block_cg(matrix, rhs_block, *, preconditioner=None, x0=None,
             rtol: float = 1e-8, maxiter: int | None = None
             ) -> list[SolveResult]:
    """Solve the SPD system ``A X = B`` with block preconditioned CG.

    One block iteration applies ``A`` to the whole active direction block
    (one application per active column) and expands every column's Krylov
    space by the *union* of the block directions, which is what makes the
    total matvec count drop below ``k`` independent CG runs.

    Parameters
    ----------
    rhs_block:
        ``(n, k)`` array (or a single length-``n`` vector).
    preconditioner, x0, rtol, maxiter:
        As in :func:`repro.krylov.cg.cg`; ``x0`` is one length-``n`` guess
        shared by every column, the tolerance is relative to each column's
        ``||b_j||``.

    Returns
    -------
    list[SolveResult]
        One result per column; every column carries the shared
        :class:`BlockInfo` in ``block_info``.
    """
    run = SolveRun("cg", matrix, rhs_block, x0, maxiter, rtol, preconditioner,
                   prepare=_prepare_block)
    rhs, x, maxiter, apply_a, apply_m = (
        run.b, run.x, run.maxiter, run.apply_a, run.apply_m)
    k = rhs.shape[1]

    b_norms = np.linalg.norm(rhs, axis=0)
    tolerances = run.rtol * b_norms
    histories: list[list[float]] = [[] for _ in range(k)]
    converged = np.zeros(k, dtype=bool)
    broke = np.zeros(k, dtype=bool)
    iterations = np.zeros(k, dtype=np.int64)
    deflated = 0
    total_block_iterations = 0

    # Zero columns: x = 0 is exact, no work (matches the single-rhs solver).
    zero = b_norms == 0.0
    for j in np.where(zero)[0]:
        x[:, j] = 0.0
        histories[j].append(0.0)
        converged[j] = True

    active = np.where(~zero)[0]
    if active.size:
        residual = rhs[:, active] - apply_a(x[:, active])
        norms = np.linalg.norm(residual, axis=0)
        for local, j in enumerate(active):
            histories[j].append(float(norms[local]))
        done = norms <= tolerances[active]
        converged[active[done]] = True
        active = active[~done]
        residual = residual[:, ~done]

    if active.size:
        z = _apply_block(apply_m, residual)
        direction = z.copy()
        gamma = z.T @ residual  # (w, w) block analogue of (r, M r)

        while active.size and total_block_iterations < maxiter:
            total_block_iterations += 1
            a_direction = apply_a(direction)
            gram = direction.T @ a_direction
            gram = 0.5 * (gram + gram.T)
            gram_inv, rank = _truncated_pinv(gram)
            if rank == 0:
                # No usable direction left: the block analogue of the
                # single-rhs ``(p, A p) == 0`` breakdown.
                broke[active] = True
                break
            alpha = gram_inv @ gamma
            x[:, active] += direction @ alpha
            residual -= a_direction @ alpha

            norms = np.linalg.norm(residual, axis=0)
            for local, j in enumerate(active):
                histories[j].append(float(norms[local]))
                iterations[j] = total_block_iterations
            done = norms <= tolerances[active]
            if done.any():
                keep = ~done
                converged[active[done]] = True
                if keep.any():
                    # Converged-column deflation: the block shrinks and the
                    # remaining columns keep iterating.
                    deflated += int(np.count_nonzero(done))
                active = active[keep]
                residual = residual[:, keep]
                direction = direction[:, keep]
                gamma = gamma[np.ix_(keep, keep)]
                if not active.size:
                    break

            z = _apply_block(apply_m, residual)
            gamma_next = z.T @ residual
            gamma_inv, gamma_rank = _truncated_pinv(gamma)
            if gamma_rank == 0:
                # The block analogue of ``(r, M r) == 0``: beta is
                # undefined and the recursion cannot restart usefully.
                broke[active] = True
                break
            beta = gamma_inv @ gamma_next
            direction = z + direction @ beta
            gamma = gamma_next

    return run.finish(x, converged=converged, iterations=iterations,
                      history=histories, breakdown=broke, deflated=deflated,
                      block_iterations=total_block_iterations)
