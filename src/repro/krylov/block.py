"""Block-Krylov solvers for multi right-hand-side systems.

The solve server batches same-fingerprint requests into one
:func:`repro.krylov.solve_many` call, which historically still looped
``solve()`` per column — amortising the preconditioner build but not the
Krylov work.  The block methods here build **one** subspace for the whole
right-hand-side block, so a batch of ``k`` near-identical requests pays far
fewer applications of ``A`` than ``k`` independent solves:

* :func:`block_cg` — block conjugate gradients (O'Leary's recursion) for
  SPD systems, with rank-revealing deflation: converged columns are retired
  from the active block and linearly-dependent right-hand sides (duplicated
  columns, ``k > n`` blocks) are handled through truncated pseudo-inverses
  of the small block Gram matrices instead of dividing by zero.
* :func:`block_gmres` — restarted block GMRES for general systems: block
  Arnoldi with modified Gram--Schmidt between blocks, a stacked
  least-squares problem solved per inner step for per-column residual
  estimates, per-column convergence tracking, and restarts that carry only
  the still-unconverged columns forward.

Both return the same per-column :class:`~repro.krylov.base.SolveResult`
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

import time
from typing import Callable, Sequence

import numpy as np

from repro.exceptions import MatrixFormatError, ParameterError
from repro.krylov.base import BlockInfo, SolveResult, SolveRun
from repro.obs.phases import PHASE_ORTHO
from repro.sparse.csr import validate_square

__all__ = [
    "BLOCK_SOLVERS",
    "BlockInfo",
    "block_cg",
    "block_gmres",
    "block_summary",
    "total_matvecs",
]

#: Solvers with a block implementation (``solve_many(mode="block")``).
BLOCK_SOLVERS = ("cg", "gmres")

#: Relative singular-value threshold below which block directions are
#: treated as linearly dependent and deflated (truncated pseudo-inverse).
DEFLATION_RTOL = 1e-12

#: Relative threshold of the block "lucky breakdown": when the norm of the
#: new Arnoldi block falls below it the Krylov space has become invariant.
LUCKY_BREAKDOWN_RTOL = 1e-14


def block_summary(results: Sequence[SolveResult]) -> BlockInfo | None:
    """Aggregate the distinct :class:`BlockInfo` records of a result list.

    Returns ``None`` when no result carries block info (loop-mode results).
    A ``k > n`` block GMRES solve is chunked internally and produces one
    record per chunk; this helper merges them into a single honest total.
    """
    infos: list[BlockInfo] = []
    for result in results:
        info = result.block_info
        if info is not None and not any(info is seen for seen in infos):
            infos.append(info)
    if not infos:
        return None
    if len(infos) == 1:
        return infos[0]
    return BlockInfo(
        solver=infos[0].solver,
        k=sum(info.k for info in infos),
        block_iterations=max(info.block_iterations for info in infos),
        matvecs=sum(info.matvecs for info in infos),
        deflated_columns=sum(info.deflated_columns for info in infos),
        breakdown=any(info.breakdown for info in infos),
    )


def total_matvecs(results: Sequence[SolveResult]) -> int:
    """Total applications of ``A`` across a result list, block-aware.

    Block columns carry ``matvecs=None`` (the applications are shared);
    their block-level total is counted exactly once per distinct
    :class:`BlockInfo`.  Loop/standalone results contribute their own
    per-solve count.
    """
    summary = block_summary(results)
    return (0 if summary is None else summary.matvecs) + sum(
        result.matvecs or 0 for result in results if result.block_info is None)


# -- shared preparation ------------------------------------------------------

def _prepare_block(matrix, rhs_block, x0):
    """Validate and normalise the inputs shared by both block methods.

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


# -- block GMRES -------------------------------------------------------------

def block_gmres(matrix, rhs_block, *, preconditioner=None, x0=None,
                rtol: float = 1e-8, maxiter: int | None = None,
                restart: int = 50) -> list[SolveResult]:
    """Solve ``A X = B`` with left-preconditioned restarted block GMRES.

    Block Arnoldi builds an orthonormal basis of the union Krylov space of
    ``M A`` over the whole active block (one application of ``A`` per active
    column per inner step); the stacked block least-squares problem is
    re-solved at every inner step so each column's preconditioned residual
    estimate — and therefore its convergence — is tracked individually.
    Restarts carry only the still-unconverged columns forward
    (converged-column deflation).

    Parameters
    ----------
    rhs_block:
        ``(n, k)`` array (or a single length-``n`` vector).  Blocks wider
        than ``n`` are solved in chunks of at most ``n`` columns (more
        columns than dimensions cannot share one orthonormal block basis).
    preconditioner, x0, rtol, maxiter, restart:
        As in :func:`repro.krylov.gmres.gmres`; the tolerance is relative to
        each column's ``||M b_j||`` and ``maxiter`` bounds the number of
        block inner steps any single column participates in.  ``restart``
        bounds the inner steps per cycle.

    Returns
    -------
    list[SolveResult]
        One result per column; ``iterations`` counts the block inner steps
        the column was active for, every column carries the shared
        :class:`BlockInfo`.
    """
    run = SolveRun("gmres", matrix, rhs_block, x0, maxiter, rtol,
                   preconditioner, prepare=_prepare_block)
    rhs, x, maxiter, apply_a, apply_m, timings = (
        run.b, run.x, run.maxiter, run.apply_a, run.apply_m, run.timings)
    n, k = rhs.shape
    if k > n:
        # More columns than dimensions: solve in <= n wide chunks so every
        # chunk can hold an orthonormal block basis.
        results: list[SolveResult] = []
        for start in range(0, k, n):
            results.extend(block_gmres(
                run.a, rhs[:, start:start + n],
                preconditioner=preconditioner, x0=x0, rtol=run.rtol,
                maxiter=maxiter, restart=restart))
        return results

    denominators = np.array(
        [float(np.linalg.norm(apply_m(rhs[:, j]))) for j in range(k)])
    tolerances = run.rtol * denominators
    histories: list[list[float]] = [[] for _ in range(k)]
    converged = np.zeros(k, dtype=bool)
    broke = np.zeros(k, dtype=bool)
    column_steps = np.zeros(k, dtype=np.int64)
    deflated = 0
    # b - A x per column for the exit: x stops changing once a column leaves
    # the active set, x = 0 columns hold b.  (`_apply_block` gets `fresh`, not
    # a view of `true`: the input's layout decides the last bit of its norms.)
    true = rhs.copy()

    # Zero preconditioned columns (single-rhs semantics): x = 0 is exact
    # when b_j = 0; when only M b_j vanishes the column has broken down.
    zero = denominators == 0.0
    for j in np.where(zero)[0]:
        x[:, j] = 0.0
        histories[j].append(0.0)
        converged[j] = not rhs[:, j].any()
        broke[j] = not converged[j]

    active = np.where(~zero)[0]
    if active.size:
        true[:, active] = fresh = rhs[:, active] - apply_a(x[:, active])
        residual = _apply_block(apply_m, fresh)
        norms = np.linalg.norm(residual, axis=0)
        for local, j in enumerate(active):
            histories[j].append(float(norms[local]))
        done = norms <= tolerances[active]
        converged[active[done]] = True
        active = active[~done]
        residual = residual[:, ~done]

    while active.size and int(column_steps[active].max()) < maxiter:
        width = int(active.size)
        budget = maxiter - int(column_steps[active].max())
        cycle_steps = max(1, min(int(restart), budget, max(1, n // width)))

        basis_0, small_rhs_top = np.linalg.qr(residual)
        blocks = [basis_0]
        hessenberg = np.zeros(
            ((cycle_steps + 1) * width, cycle_steps * width), dtype=np.float64)
        ls_rhs = np.zeros(((cycle_steps + 1) * width, width), dtype=np.float64)
        ls_rhs[:width] = small_rhs_top
        initial_scale = max(float(np.linalg.norm(small_rhs_top)), 1.0)

        solution_small = None
        steps_done = 0
        lucky = False
        for j in range(cycle_steps):
            work = _apply_block(apply_m, apply_a(blocks[j]))
            ortho_start = 0.0 if timings is None else time.perf_counter()
            for i in range(j + 1):
                coupling = blocks[i].T @ work
                work -= blocks[i] @ coupling
                hessenberg[i * width:(i + 1) * width,
                           j * width:(j + 1) * width] = coupling
            new_block, sub_diagonal = np.linalg.qr(work)
            if timings is not None:
                timings.add(PHASE_ORTHO, time.perf_counter() - ortho_start)
            hessenberg[(j + 1) * width:(j + 2) * width,
                       j * width:(j + 1) * width] = sub_diagonal
            steps_done = j + 1
            column_steps[active] += 1

            rows = (steps_done + 1) * width
            cols = steps_done * width
            solution_small, *_ = np.linalg.lstsq(
                hessenberg[:rows, :cols], ls_rhs[:rows], rcond=None)
            estimates = np.linalg.norm(
                ls_rhs[:rows] - hessenberg[:rows, :cols] @ solution_small,
                axis=0)
            for local, j_col in enumerate(active):
                histories[j_col].append(float(estimates[local]))

            lucky = (float(np.linalg.norm(sub_diagonal))
                     <= LUCKY_BREAKDOWN_RTOL * initial_scale)
            if (lucky or np.all(estimates <= tolerances[active])
                    or int(column_steps[active].max()) >= maxiter):
                break
            blocks.append(new_block)

        if steps_done:
            basis = np.hstack(blocks[:steps_done])
            x[:, active] += basis @ solution_small

        # True preconditioned residual (convergence is only ever declared on
        # it, exactly like the single-rhs solver's cycle-end recomputation).
        true[:, active] = fresh = rhs[:, active] - apply_a(x[:, active])
        residual = _apply_block(apply_m, fresh)
        norms = np.linalg.norm(residual, axis=0)
        for local, j_col in enumerate(active):
            histories[j_col].append(float(norms[local]))
        done = norms <= tolerances[active]
        if done.any():
            converged[active[done]] = True
            if (~done).any():
                deflated += int(np.count_nonzero(done))
        active = active[~done]
        residual = residual[:, ~done]
        if lucky and active.size:
            # Invariant subspace reached without convergence: further cycles
            # would rebuild the same space.  Report a breakdown so auto mode
            # can fall back to the loop path.
            broke[active] = True
            break

    return run.finish(x, converged=converged, iterations=column_steps,
                      history=histories, breakdown=broke, residual=true,
                      deflated=deflated, block_iterations=column_steps.max())
