"""Krylov subspace solvers with left preconditioning.

The paper solves the preconditioned system ``P A x = P b`` with GMRES or
BiCGStab (and CG when ``A`` is symmetric positive definite) and measures the
preconditioning performance as the ratio of iteration counts with and without
the preconditioner.  This package provides from-scratch implementations of the
three solvers with a uniform interface and exact iteration counting -- the
quantity the whole tuning framework optimises.  Every solver leaves through
:meth:`repro.krylov.base.SolveRun.finish`, so "converged in k iterations" is
one definition everywhere.

Public surface
--------------
* :class:`SolveResult` -- solution, convergence flag, iteration and matvec
  counts, residual history, and what the exit measured: ``true_residual``,
  ``termination`` (one of :data:`TERMINATIONS`), ``measured_iterations``.
* :func:`gmres`, :func:`bicgstab`, :func:`cg` -- the individual solvers.
* :func:`block_cg` -- block CG, the multi-rhs SPD solver sharing one
  subspace across a right-hand-side block (with deflation).
* :func:`solve` -- dispatch by solver name (the categorical part of ``x_M``).
* :func:`solve_many` -- multi-rhs dispatch with ``mode="loop"|"block"|"auto"``.
"""

from repro.krylov.base import (TERMINATIONS, SolveResult,
                               as_preconditioner_function)
from repro.krylov.gmres import gmres
from repro.krylov.bicgstab import bicgstab
from repro.krylov.block import (
    BLOCK_SOLVERS,
    BlockInfo,
    block_cg,
    block_summary,
    total_matvecs,
)
from repro.krylov.cg import cg
from repro.krylov.solve import (
    BATCH_MODES,
    KNOWN_SOLVERS,
    solve,
    solve_many,
)

__all__ = [
    "SolveResult",
    "TERMINATIONS",
    "as_preconditioner_function",
    "gmres",
    "bicgstab",
    "cg",
    "block_cg",
    "block_summary",
    "total_matvecs",
    "BlockInfo",
    "BLOCK_SOLVERS",
    "BATCH_MODES",
    "solve",
    "solve_many",
    "KNOWN_SOLVERS",
]
