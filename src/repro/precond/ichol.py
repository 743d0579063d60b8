"""Incomplete Cholesky factorisation with zero fill-in, IC(0).

For symmetric positive-definite matrices (the 2-D FD Laplacians of the study
set) ``A ≈ L L^T`` where ``L`` keeps the lower-triangular sparsity pattern of
``A``.  Application solves ``L y = r`` and ``L^T z = y``, each through a
:class:`~repro.precond.base.TriangularSolve` prepared once.  A diagonal
shift is applied automatically when a negative pivot appears (the standard
remedy for matrices that are only weakly positive definite), and the
attempted shifts are recorded for diagnostics.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.exceptions import PreconditionerError
from repro.precond.base import Preconditioner, TriangularSolve
from repro.sparse.csr import ensure_csr, is_symmetric, validate_square

__all__ = ["IncompleteCholeskyPreconditioner"]


def _ic0_factorise(matrix: sp.csr_matrix) -> sp.csr_matrix:
    """IC(0) on the lower-triangular pattern; raises on a non-positive pivot."""
    lower_pattern = sp.tril(matrix, k=0).tocsr()
    n = matrix.shape[0]
    lil = lower_pattern.tolil()
    rows_cols = [np.asarray(lil.rows[i], dtype=np.int64) for i in range(n)]
    rows_vals = [np.asarray(lil.data[i], dtype=np.float64) for i in range(n)]
    column_positions = [
        {int(col): pos for pos, col in enumerate(cols)} for cols in rows_cols
    ]
    diag = np.zeros(n, dtype=np.float64)

    for i in range(n):
        cols_i = rows_cols[i]
        vals_i = rows_vals[i]
        for pos_k, k in enumerate(cols_i):
            if k >= i:
                break
            # L[i, k] = (A[i, k] - sum_{j<k} L[i, j] L[k, j]) / L[k, k]
            accumulator = vals_i[pos_k]
            cols_k = rows_cols[k]
            vals_k = rows_vals[k]
            positions_i = column_positions[i]
            for pos_j in range(len(cols_k)):
                j = cols_k[pos_j]
                if j >= k:
                    break
                target = positions_i.get(int(j))
                if target is not None:
                    accumulator -= vals_i[target] * vals_k[pos_j]
            if diag[k] == 0.0:
                raise PreconditionerError(
                    f"IC(0) breakdown: zero pivot at row {k}")
            vals_i[pos_k] = accumulator / diag[k]
        position_diag = column_positions[i].get(i)
        if position_diag is None:
            raise PreconditionerError(
                f"IC(0) requires a structurally non-zero diagonal (row {i})")
        pivot = vals_i[position_diag]
        if position_diag:
            # Only the strictly-lower entries of row i contribute to the pivot.
            strictly_lower = vals_i[:position_diag]
            pivot = vals_i[position_diag] - float(np.sum(strictly_lower ** 2))
        if pivot <= 0.0:
            raise PreconditionerError(
                f"IC(0) breakdown: non-positive pivot {pivot:.3e} at row {i}")
        vals_i[position_diag] = np.sqrt(pivot)
        diag[i] = vals_i[position_diag]
        rows_vals[i] = vals_i

    out = lower_pattern.tolil()
    for i in range(n):
        out.rows[i] = list(map(int, rows_cols[i]))
        out.data[i] = list(map(float, rows_vals[i]))
    return ensure_csr(out.tocsr())


class IncompleteCholeskyPreconditioner(Preconditioner):
    """IC(0) preconditioner for symmetric positive-definite matrices.

    Parameters
    ----------
    matrix:
        Symmetric matrix; a :class:`~repro.exceptions.PreconditionerError` is
        raised when the input is not symmetric.
    shift_step:
        Relative diagonal shift added (repeatedly) when the factorisation
        encounters a non-positive pivot.
    max_shifts:
        Maximum number of shift attempts before giving up.
    """

    def __init__(self, matrix: sp.spmatrix, *, shift_step: float = 1e-3,
                 max_shifts: int = 8) -> None:
        csr = validate_square(matrix)
        if not is_symmetric(csr, tol=1e-10):
            raise PreconditionerError(
                "Incomplete Cholesky requires a symmetric matrix")
        self._n = csr.shape[0]
        self._shifts_used = 0
        diag_scale = float(np.abs(csr.diagonal()).mean())
        shifted = csr
        last_error: PreconditionerError | None = None
        for attempt in range(max_shifts + 1):
            try:
                self._lower = _ic0_factorise(shifted)
                break
            except PreconditionerError as error:
                last_error = error
                self._shifts_used = attempt + 1
                shift = shift_step * (2.0 ** attempt) * diag_scale
                shifted = (csr + shift * sp.identity(self._n, format="csr")).tocsr()
        else:
            raise PreconditionerError(
                f"IC(0) failed after {max_shifts} diagonal shifts") from last_error
        self._solve_lower = TriangularSolve(self._lower, lower=True)
        self._solve_upper = TriangularSolve(self._lower.T.tocsr(),
                                            lower=False)

    @property
    def shape(self) -> tuple[int, int]:
        return (self._n, self._n)

    @property
    def nnz(self) -> int:
        return int(self._lower.nnz)

    @property
    def lower_factor(self) -> sp.csr_matrix:
        """The incomplete Cholesky factor ``L``."""
        return self._lower

    @property
    def shifts_used(self) -> int:
        """How many diagonal shifts were needed before the factorisation succeeded."""
        return self._shifts_used

    def apply(self, vector: np.ndarray) -> np.ndarray:
        array = self._check_vector(vector)
        return self._solve_upper(self._solve_lower(array))
