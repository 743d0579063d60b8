"""Unified solver dispatch.

The categorical part of the MCMC parameter vector selects the Krylov solver;
this module maps the solver name to the implementation, for one right-hand
side (:func:`solve`) or a block of them (:func:`solve_many`).
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ParameterError
from repro.krylov.base import SolveResult
from repro.krylov.bicgstab import bicgstab
from repro.krylov.block import (
    BLOCK_SOLVERS,
    block_cg,
    block_gmres,
    block_summary,
)
from repro.krylov.cg import cg
from repro.krylov.gmres import gmres

__all__ = ["solve", "solve_many", "KNOWN_SOLVERS", "BATCH_MODES"]

#: Mapping from solver name to implementation.
KNOWN_SOLVERS = {
    "gmres": gmres,
    "bicgstab": bicgstab,
    "cg": cg,
}

#: Valid ``mode`` values of :func:`solve_many`.
BATCH_MODES = ("loop", "block", "auto")

#: Mapping from solver name to block implementation.
_BLOCK_IMPLEMENTATIONS = {
    "cg": block_cg,
    "gmres": block_gmres,
}


def solve(matrix, rhs, *, solver: str = "gmres", preconditioner=None, x0=None,
          rtol: float = 1e-8, maxiter: int | None = None, **solver_options
          ) -> SolveResult:
    """Solve ``A x = b`` with the named Krylov method.

    Parameters
    ----------
    solver:
        ``"gmres"``, ``"bicgstab"`` or ``"cg"`` (case insensitive).
    solver_options:
        Extra keyword arguments forwarded to the specific solver (e.g.
        ``restart`` for GMRES).
    """
    key = solver.strip().lower()
    if key not in KNOWN_SOLVERS:
        raise ParameterError(
            f"unknown solver {solver!r}; expected one of {sorted(KNOWN_SOLVERS)}")
    implementation = KNOWN_SOLVERS[key]
    return implementation(matrix, rhs, preconditioner=preconditioner, x0=x0,
                          rtol=rtol, maxiter=maxiter, **solver_options)


def _normalise_rhs_block(rhs_block) -> list[np.ndarray]:
    """The block as a validated list of equal-length column vectors.

    Raises :class:`ParameterError` — the typed error direct callers must
    see — for empty blocks, ragged column lengths, and arrays of the wrong
    dimensionality, instead of letting a malformed block reach numpy
    broadcasting inside a solver.
    """
    if isinstance(rhs_block, np.ndarray):
        if rhs_block.ndim == 1:
            columns = [rhs_block]
        elif rhs_block.ndim == 2:
            columns = [rhs_block[:, j] for j in range(rhs_block.shape[1])]
        else:
            raise ParameterError(
                f"rhs_block must be a 1-D vector, a 2-D (n, k) array or a "
                f"sequence of vectors, got a {rhs_block.ndim}-D array of "
                f"shape {rhs_block.shape}")
    else:
        try:
            columns = [np.asarray(column, dtype=np.float64).ravel()
                       for column in rhs_block]
        except (TypeError, ValueError) as error:
            raise ParameterError(
                f"rhs_block is not a sequence of numeric vectors: {error}")
    if not columns:
        raise ParameterError("rhs_block must contain at least one column")
    n = columns[0].size
    for index, column in enumerate(columns):
        if column.size != n:
            raise ParameterError(
                f"ragged rhs_block: column {index} has length "
                f"{column.size}, expected {n}")
    return columns


def solve_many(matrix, rhs_block, *, solver: str = "gmres", preconditioner=None,
               x0=None, rtol: float = 1e-8, maxiter: int | None = None,
               mode: str = "loop", **solver_options) -> list[SolveResult]:
    """Solve ``A X = B`` for every column of a multi-rhs block.

    The solve-server scheduler batches concurrent requests over the same
    matrix into one call here.  Two execution contracts, selected by
    ``mode``:

    * ``"loop"`` (default) — each column is solved with exactly the same
      arithmetic as a standalone :func:`solve`; results are **bit-identical**
      to ``k`` independent single-rhs calls, which is what makes batched
      serving indistinguishable from synchronous serving.
    * ``"block"`` — one shared Krylov subspace for the whole block
      (:func:`~repro.krylov.block.block_cg` /
      :func:`~repro.krylov.block.block_gmres`): far fewer total applications
      of ``A``, answers agreeing with the loop path to the solve tolerance
      but *not* bit for bit.  Only ``cg`` and ``gmres`` have block
      implementations; requesting block mode for any other solver raises
      :class:`ParameterError`.  A one-column block takes the loop path and
      matches :func:`solve` exactly.
    * ``"auto"`` — block when the block has ``k >= 2`` columns and the
      solver supports it, loop otherwise; falls back to the loop path when
      the block recursion breaks down.

    Malformed blocks (empty, ragged column lengths, wrong dimensionality)
    are rejected here with a typed :class:`ParameterError` — direct callers
    get the same admission-quality validation the serving layer performs.

    Parameters
    ----------
    rhs_block:
        A 2-D array of shape ``(n, k)`` (one system per column), a single
        length-``n`` vector (one column), or a sequence of ``k`` length-``n``
        vectors.
    x0:
        Optional initial guess shared by every column (``None`` -> zeros).
    mode:
        ``"loop"``, ``"block"`` or ``"auto"`` (see above).

    Returns
    -------
    list[SolveResult]
        One result per column, in column order.  Block-mode results carry a
        shared :class:`~repro.krylov.block.BlockInfo` in ``block_info``.
    """
    mode_key = str(mode).strip().lower()
    if mode_key not in BATCH_MODES:
        raise ParameterError(
            f"unknown solve_many mode {mode!r}; expected one of {BATCH_MODES}")
    solver_key = str(solver).strip().lower()
    if solver_key not in KNOWN_SOLVERS:
        raise ParameterError(
            f"unknown solver {solver!r}; expected one of {sorted(KNOWN_SOLVERS)}")
    if mode_key == "block" and solver_key not in BLOCK_SOLVERS:
        raise ParameterError(
            f"solver {solver!r} has no block implementation; "
            f"block mode supports {BLOCK_SOLVERS}")
    columns = _normalise_rhs_block(rhs_block)

    def solve_loop() -> list[SolveResult]:
        return [solve(matrix, column, solver=solver_key,
                      preconditioner=preconditioner, x0=x0, rtol=rtol,
                      maxiter=maxiter, **solver_options)
                for column in columns]

    use_block = (len(columns) >= 2 and solver_key in BLOCK_SOLVERS
                 and mode_key in ("block", "auto"))
    if not use_block:
        return solve_loop()

    if isinstance(rhs_block, np.ndarray) and rhs_block.ndim == 2:
        block = rhs_block  # already the validated (n, k) layout; no copy
    else:
        block = np.column_stack([np.asarray(column, dtype=np.float64).ravel()
                                 for column in columns])
    implementation = _BLOCK_IMPLEMENTATIONS[solver_key]
    results = implementation(matrix, block, preconditioner=preconditioner,
                             x0=x0, rtol=rtol, maxiter=maxiter,
                             **solver_options)
    summary = block_summary(results)
    if mode_key == "auto" and summary.breakdown:
        # Block breakdown under auto mode: serve the batch with the safe,
        # bit-identical loop path instead of surfacing partial answers.  The
        # abandoned attempt's A-applications were really paid; charge them to
        # the batch so matvec accounting stays honest.
        results = solve_loop()
        results[0].matvecs += summary.matvecs
    return results
