"""Incomplete LU factorisation with zero fill-in, ILU(0).

The classical algebraic preconditioner of the paper's literature review
(Saad's ILU family).  The factorisation keeps exactly the sparsity pattern of
``A``: ``A ≈ L U`` with ``L`` unit lower triangular and ``U`` upper triangular,
and entries outside the pattern of ``A`` are discarded.  Application solves the
two triangular systems ``L y = r``, ``U z = y``, each through a
:class:`~repro.precond.base.TriangularSolve` prepared once.

The implementation follows the standard IKJ variant of the algorithm operating
directly on the CSR structure, with an optional diagonal shift to survive the
small pivots that make ILU "break down for indefinite matrices" -- precisely
the weakness the paper cites as motivation for stochastic preconditioners.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.exceptions import PreconditionerError
from repro.precond.base import Preconditioner, TriangularSolve
from repro.sparse.csr import ensure_csr, validate_square

__all__ = ["ILU0Preconditioner"]


def _ilu0_factorise(matrix: sp.csr_matrix, pivot_shift: float) -> sp.csr_matrix:
    """Return the combined LU factor stored in a single CSR matrix.

    The strict lower triangle holds ``L`` (unit diagonal implied) and the upper
    triangle including the diagonal holds ``U`` -- the classic compact storage.
    """
    n = matrix.shape[0]
    factor = matrix.copy().tolil()
    # Work on dense rows of the pattern for clarity; the pattern is sparse so
    # each row touches only its own non-zeros.
    rows_cols = [np.asarray(factor.rows[i], dtype=np.int64) for i in range(n)]
    rows_vals = [np.asarray(factor.data[i], dtype=np.float64) for i in range(n)]

    diag_value = np.zeros(n, dtype=np.float64)
    column_positions: list[dict[int, int]] = [
        {int(col): pos for pos, col in enumerate(cols)} for cols in rows_cols
    ]

    for i in range(n):
        cols_i = rows_cols[i]
        vals_i = rows_vals[i]
        # Eliminate using previously factorised rows k < i present in row i.
        for pos_k, k in enumerate(cols_i):
            if k >= i:
                break
            pivot = diag_value[k]
            if pivot == 0.0:
                raise PreconditionerError(
                    f"ILU(0) breakdown: zero pivot at row {k}")
            multiplier = vals_i[pos_k] / pivot
            vals_i[pos_k] = multiplier
            # Subtract multiplier * U[k, j] for j in pattern(i), j > k.
            cols_k = rows_cols[k]
            vals_k = rows_vals[k]
            positions_i = column_positions[i]
            for pos_j in range(len(cols_k)):
                j = cols_k[pos_j]
                if j <= k:
                    continue
                target = positions_i.get(int(j))
                if target is not None:
                    vals_i[target] -= multiplier * vals_k[pos_j]
        position_diag = column_positions[i].get(i)
        if position_diag is None:
            raise PreconditionerError(
                f"ILU(0) requires a structurally non-zero diagonal (row {i})")
        if abs(vals_i[position_diag]) < 1e-14:
            vals_i[position_diag] = pivot_shift if pivot_shift > 0 else 1e-14
        diag_value[i] = vals_i[position_diag]
        rows_vals[i] = vals_i

    out = matrix.copy().tolil()
    for i in range(n):
        out.rows[i] = list(map(int, rows_cols[i]))
        out.data[i] = list(map(float, rows_vals[i]))
    return ensure_csr(out.tocsr())


class ILU0Preconditioner(Preconditioner):
    """Zero fill-in incomplete LU preconditioner.

    Parameters
    ----------
    matrix:
        Square sparse matrix with a structurally non-zero diagonal.
    pivot_shift:
        Replacement value for (near-)zero pivots; ``0`` keeps a tiny epsilon.
    """

    def __init__(self, matrix: sp.spmatrix, *, pivot_shift: float = 0.0) -> None:
        csr = validate_square(matrix)
        self._factor = _ilu0_factorise(csr, pivot_shift)
        self._n = csr.shape[0]
        # Split the compact factor once; apply() solves with the two halves.
        lower = sp.tril(self._factor, k=-1).tocsr() + sp.identity(self._n, format="csr")
        upper = sp.triu(self._factor, k=0).tocsr()
        self._solve_lower = TriangularSolve(lower, lower=True,
                                            unit_diagonal=True)
        self._solve_upper = TriangularSolve(upper, lower=False)

    @property
    def shape(self) -> tuple[int, int]:
        return (self._n, self._n)

    @property
    def nnz(self) -> int:
        return int(self._factor.nnz)

    @property
    def factor(self) -> sp.csr_matrix:
        """Compact LU factor (strict lower = L, upper incl. diagonal = U)."""
        return self._factor

    def apply(self, vector: np.ndarray) -> np.ndarray:
        array = self._check_vector(vector)
        return self._solve_upper(self._solve_lower(array))
