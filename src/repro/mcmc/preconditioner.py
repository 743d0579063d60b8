"""The user-facing MCMC preconditioner object.

Wraps :func:`repro.mcmc.inversion.estimate_inverse` in the common
:class:`~repro.precond.base.Preconditioner` interface so the Krylov solvers,
the evaluation layer and the benchmark harness can treat it exactly like the
classical baselines.  The two matrix-independent settings fixed by the paper
(fill factor ``2 * phi(A)`` and truncation threshold ``1e-9``) are the
defaults; the build report is retained for diagnostics.
"""

from __future__ import annotations

import scipy.sparse as sp

from repro.mcmc.inversion import (
    DEFAULT_DROP_TOLERANCE,
    DEFAULT_FILL_MULTIPLE,
    InversionReport,
    estimate_inverse,
)
from repro.mcmc.parameters import MCMCParameters
from repro.mcmc.walks import TransitionTable
from repro.precond.base import MatrixPreconditioner

__all__ = ["MCMCPreconditioner"]


class MCMCPreconditioner(MatrixPreconditioner):
    """Sparse approximate inverse obtained by MCMC matrix inversion.

    Parameters
    ----------
    matrix:
        The system matrix ``A``.
    parameters:
        Algorithmic parameters ``(alpha, eps, delta)`` of the estimator.
    seed:
        Master seed of the per-block random streams (reproducible builds).
    fill_multiple:
        Retained fill as a multiple of ``phi(A)`` (paper default: 2.0).
    drop_tolerance:
        Truncation threshold (paper default: ``1e-9``).
    transition_table:
        Optional pre-built :class:`~repro.mcmc.walks.TransitionTable` for
        this ``(A, alpha)`` pair; lets callers sweeping ``eps`` / ``delta``
        (replications, ablation grids) reuse one table across builds.

    Examples
    --------
    >>> import numpy as np
    >>> from repro.matrices import laplacian_2d
    >>> from repro.mcmc import MCMCParameters, MCMCPreconditioner
    >>> A = laplacian_2d(8)
    >>> M = MCMCPreconditioner(A, MCMCParameters(alpha=1.0, eps=0.25, delta=0.25))
    >>> z = M.apply(np.ones(A.shape[0]))
    >>> z.shape
    (49,)
    """

    def __init__(self, matrix: sp.spmatrix, parameters: MCMCParameters, *,
                 seed: int | None = 0,
                 fill_multiple: float = DEFAULT_FILL_MULTIPLE,
                 drop_tolerance: float = DEFAULT_DROP_TOLERANCE,
                 transition_table: TransitionTable | None = None) -> None:
        approximate_inverse, report = estimate_inverse(
            matrix,
            parameters,
            seed=seed,
            fill_multiple=fill_multiple,
            drop_tolerance=drop_tolerance,
            transition_table=transition_table,
            return_report=True,
        )
        super().__init__(approximate_inverse, name="MCMCPreconditioner")
        self._parameters = parameters
        self._report = report

    @property
    def parameters(self) -> MCMCParameters:
        """The algorithmic parameters the preconditioner was built with."""
        return self._parameters

    @property
    def report(self) -> InversionReport:
        """Build report (chains per row, walk lengths, fill, contraction flag)."""
        return self._report

    def describe(self) -> str:
        return (f"MCMCPreconditioner({self._parameters.describe()}, "
                f"nnz={self.nnz}, contraction={self._report.contraction})")
