"""Incomplete Cholesky factorisation with zero fill-in, IC(0).

For symmetric positive-definite matrices (the 2-D FD Laplacians of the study
set) ``A ≈ L L^T`` where ``L`` keeps the lower-triangular sparsity pattern of
``A``.  Application solves ``L y = r`` and ``L^T z = y``, each through a
:class:`~repro.precond.base.TriangularSolve` prepared once.  A diagonal
shift is applied automatically when a pivot is not positive or a factor row
is not finite (the standard remedy for matrices that are only weakly
positive definite), and the attempted shifts are recorded for diagnostics.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.sparse as sp

from repro.exceptions import ParameterError, PreconditionerError
from repro.precond.base import Preconditioner, TriangularSolve
from repro.sparse.csr import ensure_csr, is_symmetric, validate_square

__all__ = ["IncompleteCholeskyPreconditioner"]


def _ic0_factorise(matrix: sp.csr_matrix) -> sp.csr_matrix:
    """IC(0) on the lower-triangular pattern; raises on a pivot that is not
    positive or a row that is not finite.

    One up-looking pass over the sorted CSR arrays on Python floats: row
    ``i``'s columns are scattered into ``where`` (column -> position) while
    the row is computed, and ``diag_pos[k]`` locates the pivot of each
    finished row ``k``.  Python float ``*``, ``-``, ``/`` and ``sqrt`` are
    the same IEEE operations as numpy's float64 scalars, taken in the same
    order.  The pivot's sum of squares is added in order from ``0.0`` below
    eight terms, which is what ``np.sum`` does there; from eight terms up
    ``np.sum`` adds with eight accumulators, so it is called as before.
    """
    lower = sp.tril(matrix, k=0).tocsr()
    lower.sum_duplicates()
    n = lower.shape[0]
    indptr = lower.indptr.tolist()
    indices = lower.indices.tolist()
    data = lower.data.tolist()
    where = [-1] * n
    diag_pos = [0] * n

    for i in range(n):
        start, end = indptr[i], indptr[i + 1]
        for pos in range(start, end):
            where[indices[pos]] = pos
        for pos_k in range(start, end):
            k = indices[pos_k]
            if k >= i:
                break
            # L[i, k] = (A[i, k] - sum_{j<k} L[i, j] L[k, j]) / L[k, k]
            accumulator = data[pos_k]
            for pos_j in range(indptr[k], diag_pos[k]):
                target = where[indices[pos_j]]
                if target >= 0:
                    accumulator -= data[target] * data[pos_j]
            pivot_k = data[diag_pos[k]]
            if pivot_k == 0.0:
                raise PreconditionerError(
                    f"IC(0) breakdown: zero pivot at row {k}")
            data[pos_k] = accumulator / pivot_k
        position_diag = where[i]
        if position_diag < 0:
            raise PreconditionerError(
                f"IC(0) requires a structurally non-zero diagonal (row {i})")
        # Only the strictly-lower entries of row i contribute to the pivot.
        if position_diag - start < 8:
            squares = 0.0
            for pos in range(start, position_diag):
                squares += data[pos] * data[pos]
        else:
            squares = float(np.sum(np.array(data[start:position_diag]) ** 2))
        pivot = data[position_diag] - squares
        if not pivot > 0.0:
            raise PreconditionerError(
                f"IC(0) breakdown: non-positive pivot {pivot:.3e} at row {i}")
        # Every strictly-lower entry enters the pivot squared, so a finite
        # pivot leaves only an infinite diagonal to catch.
        if pivot == math.inf:
            raise PreconditionerError(
                f"IC(0) breakdown: non-finite entry in row {i}")
        data[position_diag] = math.sqrt(pivot)
        diag_pos[i] = position_diag
        for pos in range(start, end):
            where[indices[pos]] = -1

    lower.data = np.array(data, dtype=np.float64)
    return ensure_csr(lower)


class IncompleteCholeskyPreconditioner(Preconditioner):
    """IC(0) preconditioner for symmetric positive-definite matrices.

    Parameters
    ----------
    matrix:
        Symmetric matrix; a :class:`~repro.exceptions.PreconditionerError` is
        raised when the input is not symmetric.
    shift_step:
        Relative diagonal shift added (repeatedly) when the factorisation
        encounters a pivot that is not positive or a row that is not finite;
        must be finite and > 0.
    max_shifts:
        Maximum number of shift attempts before giving up, an integer >= 0.
    """

    def __init__(self, matrix: sp.spmatrix, *, shift_step: float = 1e-3,
                 max_shifts: int = 8) -> None:
        csr = validate_square(matrix)
        if not 0.0 < shift_step < math.inf:
            raise ParameterError(
                f"shift_step must be finite and > 0, got {shift_step!r}")
        if (isinstance(max_shifts, bool)
                or not isinstance(max_shifts, (int, np.integer))
                or max_shifts < 0):
            raise ParameterError(
                f"max_shifts must be an integer >= 0, got {max_shifts!r}")
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
