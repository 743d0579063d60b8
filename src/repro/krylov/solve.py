"""Unified solver dispatch.

The categorical part of the MCMC parameter vector selects the Krylov solver;
this module maps the solver name to the implementation, for one right-hand
side (:func:`solve`) or a block of them (:func:`solve_many`, one solve per
column).
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ParameterError
from repro.krylov.base import SolveResult
from repro.krylov.bicgstab import bicgstab
from repro.krylov.cg import cg
from repro.krylov.gmres import gmres

__all__ = ["solve", "solve_many", "KNOWN_SOLVERS"]

#: Mapping from solver name to implementation.
KNOWN_SOLVERS = {
    "gmres": gmres,
    "bicgstab": bicgstab,
    "cg": cg,
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
    key = str(solver).strip().lower()
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
    matrix into one call here.  Each column is solved with exactly the same
    arithmetic as a standalone :func:`solve`, so the results are
    **bit-identical** to ``k`` independent single-rhs calls — which is what
    makes batched serving indistinguishable from synchronous serving.

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
        ``"loop"``, the only execution mode (kept for callers that name it).

    Returns
    -------
    list[SolveResult]
        One result per column, in column order.
    """
    if mode != "loop":
        raise ParameterError(
            f"unknown solve_many mode {mode!r}; the loop is the only mode")
    return [solve(matrix, column, solver=solver,
                  preconditioner=preconditioner, x0=x0, rtol=rtol,
                  maxiter=maxiter, **solver_options)
            for column in _normalise_rhs_block(rhs_block)]
