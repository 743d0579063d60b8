"""Common data structures of the Krylov solvers, and the one way through them.

Every solver accepts the preconditioner in any of three forms (``None``, an
explicit sparse matrix, or a :class:`~repro.precond.base.Preconditioner`)
which :func:`as_preconditioner_function` normalises to a plain callable, and
every solver — single-rhs and block — runs inside one :class:`SolveRun`:
construction validates the system and binds the timed, self-counting
operators; :meth:`SolveRun.finish` is the only place a :class:`SolveResult`
is built, so the true residual, the termination reason, the matvec count and
the phase timings are each measured in exactly one place.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.sparse as sp

from repro.exceptions import MatrixFormatError, ParameterError
from repro.obs.phases import (PHASE_MATVEC, PHASE_PRECOND, finish_solve_phases,
                              solve_phase_timings, timed_operator)
from repro.precond.base import Preconditioner
from repro.sparse.csr import ensure_csr, validate_square

__all__ = ["TERMINATIONS", "BlockInfo", "SolveResult", "SolveRun",
           "as_preconditioner_function", "prepare_system"]

#: Why a solve stopped (:attr:`SolveResult.termination`).  ``converged``: the
#: solver's own stopping rule was met.  ``maxiter``: the budget ran out first.
#: ``breakdown``: the recurrence hit a division it cannot perform (``rho == 0``
#: in BiCGStab, ``(p, A p) == 0`` in CG, ``M b == 0`` with ``b != 0`` in GMRES,
#: rank collapse of a block).  ``non_finite``: NaN or infinity reached the
#: iterate or the recurrence (e.g. a preconditioner returning NaN).
TERMINATIONS = ("converged", "maxiter", "breakdown", "non_finite")


@dataclass(frozen=True)
class BlockInfo:
    """Shared accounting of one block solve (attached to every column).

    Attributes
    ----------
    solver:
        ``"cg"`` or ``"gmres"``.
    k:
        Number of right-hand-side columns the block solve handled.
    block_iterations:
        Block iterations (block CG steps, or block Arnoldi inner steps of
        the longest-running column for GMRES).
    matvecs:
        Total applications of ``A`` across the whole block — the quantity
        block methods reduce versus ``k`` independent solves.
    deflated_columns:
        Columns retired from the active block *early*, while other columns
        kept iterating (converged-column deflation).
    breakdown:
        True when the block recursion broke down (rank collapse of the
        block Gram matrix, or an invariant subspace that left columns
        unconverged); ``solve_many(mode="auto")`` falls back to the loop
        path in that case.
    """

    solver: str
    k: int
    block_iterations: int
    matvecs: int
    deflated_columns: int
    breakdown: bool


@dataclass
class SolveResult:
    """Outcome of a Krylov solve (built only by :meth:`SolveRun.finish`).

    Attributes
    ----------
    solution:
        Final iterate ``x``.
    converged:
        Whether the solver's *own* stopping rule was met within the budget:
        the recurrence residual against ``||b||`` for CG / BiCGStab, the
        recomputed ``||M(b - Ax)||`` against ``||M b||`` for GMRES.  It
        decides ``iterations``; ``true_residual`` says how good ``x`` is.
    iterations:
        Number of iterations performed.  For restarted GMRES this counts the
        *inner* iterations (matrix--vector products), which is the quantity
        whose reduction the paper's performance metric measures.
    residual_norms:
        History of the residual norms the solver iterated on (preconditioned
        for GMRES), starting with iteration 0.
    solver:
        Name of the solver that produced the result.
    termination:
        Why the solve stopped, one of :data:`TERMINATIONS`; ``"converged"``
        exactly when ``converged``.
    true_residual:
        ``||b - A x|| / ||b||`` of the returned iterate, measured at the
        exit (``0.0`` when ``b = 0``), whatever the recurrence tracked.
    maxiter:
        The resolved iteration budget the solve ran under.
    matvecs:
        Number of applications of ``A`` this solve performed, the exit's
        product included.  ``None`` for the columns of a block solve, where
        the applications are *shared*: the block-level total lives in
        :attr:`block_info` (:func:`repro.krylov.block.total_matvecs` sums
        either form correctly).  One deliberate exception: when
        ``solve_many`` abandons a broken-down block attempt under
        ``mode="auto"``, the attempt's applications are charged to the first
        column of the loop re-solve, so the *batch* total stays an honest
        count of work performed.
    block_info:
        :class:`BlockInfo` of the block solve that produced this column
        (shared by every column of the block), or ``None`` for a standalone
        single-rhs solve.
    phase_timings:
        ``{phase: seconds}`` wall-time split of this solve (``matvec``,
        ``precond_apply``, and — for GMRES-type methods —
        ``orthogonalization``), populated only while a
        :func:`repro.obs.phases.record_phases` context is active; ``None``
        otherwise.  For block solves the dict is shared by every column of
        the block, mirroring how the work itself is shared.
    """

    solution: np.ndarray
    converged: bool
    iterations: int
    residual_norms: list[float]
    solver: str
    termination: str
    true_residual: float
    maxiter: int
    matvecs: int | None = None
    block_info: BlockInfo | None = None
    phase_timings: dict[str, float] | None = None

    @property
    def final_residual(self) -> float:
        """Last recorded residual norm (``inf`` when no history exists)."""
        return self.residual_norms[-1] if self.residual_norms else float("inf")

    @property
    def measured_iterations(self) -> int:
        """The paper's measurement (Eq. 4 divides two of these): the count to
        convergence, saturated at the budget when the solve did not converge
        (the paper's divergence scenarios), and at least 1."""
        return max(self.iterations if self.converged else self.maxiter, 1)

    def describe(self) -> str:
        """One-line summary used in logs, examples and reports."""
        return (f"{self.solver}: {self.termination} in {self.iterations} "
                f"iterations (final residual {self.final_residual:.3e}, "
                f"true residual {self.true_residual:.3e})")


def as_preconditioner_function(preconditioner, n: int) -> Callable[[np.ndarray], np.ndarray]:
    """Normalise any accepted preconditioner form to a callable ``r -> M r``.

    Parameters
    ----------
    preconditioner:
        ``None`` (identity), a :class:`~repro.precond.base.Preconditioner`, an
        explicit sparse/dense matrix, or an arbitrary callable.
    n:
        Expected vector length (for validation of matrix shapes).
    """
    if preconditioner is None:
        return lambda r: r
    if isinstance(preconditioner, Preconditioner):
        if preconditioner.shape[1] != n:
            raise MatrixFormatError(
                f"preconditioner shape {preconditioner.shape} incompatible with n={n}")
        return preconditioner.apply
    if sp.issparse(preconditioner) or isinstance(preconditioner, np.ndarray):
        matrix = ensure_csr(preconditioner)
        if matrix.shape != (n, n):
            raise MatrixFormatError(
                f"preconditioner shape {matrix.shape} incompatible with n={n}")
        return lambda r: matrix @ r
    if callable(preconditioner):
        return preconditioner
    raise MatrixFormatError(
        f"unsupported preconditioner type {type(preconditioner)!r}")


def prepare_system(matrix, rhs, x0
                   ) -> tuple[sp.csr_matrix, np.ndarray, np.ndarray]:
    """Validate and normalise the system of a single-rhs solve."""
    csr = validate_square(matrix)
    n = csr.shape[0]
    b = np.asarray(rhs, dtype=np.float64).ravel()
    if b.size != n:
        raise MatrixFormatError(
            f"right-hand side of length {b.size} incompatible with n={n}")
    if x0 is None:
        x = np.zeros(n, dtype=np.float64)
    else:
        x = np.asarray(x0, dtype=np.float64).ravel().copy()
        if x.size != n:
            raise MatrixFormatError(
                f"initial guess of length {x.size} incompatible with n={n}")
    return csr, b, x


class SolveRun:
    """One Krylov solve from validated entry to its single exit.

    Construction runs ``prepare`` (:func:`prepare_system`, or the block
    solvers' counterpart), resolves budget and tolerance and binds the
    phase-timed ``apply_m``; ``apply_a`` is phase-timed too and counts its
    own applications (an ``(n, w)`` block product counts ``w``).
    """

    def __init__(self, solver: str, matrix, rhs, x0, maxiter, rtol,
                 preconditioner, prepare=prepare_system) -> None:
        self.solver = solver
        self.a, self.b, self.x = prepare(matrix, rhs, x0)
        self.n = n = self.a.shape[0]
        if maxiter is None:
            maxiter = min(max(10 * n, 100), 5000)
        if maxiter < 1:
            raise ParameterError(f"maxiter must be >= 1, got {maxiter}")
        if not 0.0 < rtol < 1.0:
            raise ParameterError(f"rtol must lie in (0, 1), got {rtol}")
        self.maxiter, self.rtol = int(maxiter), float(rtol)
        self.matvecs = 0
        self.timings = solve_phase_timings()
        self._product = timed_operator(self.a.__matmul__, self.timings,
                                       PHASE_MATVEC)
        self.apply_m = timed_operator(
            as_preconditioner_function(preconditioner, n), self.timings,
            PHASE_PRECOND)

    def apply_a(self, v: np.ndarray) -> np.ndarray:
        # (a method, not a stored closure: the run must not refer to itself)
        self.matvecs += 1 if v.ndim == 1 else v.shape[1]
        return self._product(v)

    def finish(self, x, *, converged, iterations, history, breakdown=False,
               residual=None, block_iterations=0, deflated=0):
        """The only exit: one :class:`SolveResult`, or one per block column.

        ``x`` is the final iterate: a vector with scalar ``converged`` /
        ``iterations`` / ``breakdown`` and one ``history`` list, or an
        ``(n, k)`` block with one entry of each per column (which then share
        one :class:`BlockInfo`).  ``residual`` is ``b - A x`` where the solver
        already holds it; otherwise it costs one more *counted* product.  A
        solver reports what its recurrence saw; the reason is classified here.
        """
        if residual is None:
            residual = self.b - self.apply_a(x)
        single = x.ndim == 1
        if single:
            converged, iterations, history, breakdown = (
                [converged], [iterations], [history], [breakdown])
        b_norms = np.linalg.norm(self.b.reshape(self.n, -1), axis=0)
        true = np.divide(np.linalg.norm(residual.reshape(self.n, -1), axis=0),
                         b_norms, out=np.zeros_like(b_norms),
                         where=b_norms > 0.0)
        info = None if single else BlockInfo(
            solver=self.solver, k=len(history),
            block_iterations=int(block_iterations), matvecs=self.matvecs,
            deflated_columns=int(deflated),
            breakdown=any(b and not c for b, c in zip(breakdown, converged)))
        finite = np.isfinite(true) & np.isfinite([h[-1] for h in history])
        phase_timings = finish_solve_phases(self.timings)
        results = [
            SolveResult(
                solution=x if single else x[:, j].copy(),
                converged=bool(converged[j]),
                iterations=int(iterations[j]),
                residual_norms=[float(value) for value in history[j]],
                solver=self.solver,
                termination=("converged" if converged[j]
                             else "non_finite" if not finite[j]
                             else "breakdown" if breakdown[j] else "maxiter"),
                true_residual=float(true[j]),
                maxiter=self.maxiter,
                matvecs=self.matvecs if single else None,
                block_info=info,
                # Shared by every column, like the block work itself.
                phase_timings=phase_timings)
            for j in range(len(history))]
        return results[0] if single else results
