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

import math

import numpy as np
import scipy.sparse as sp

from repro.exceptions import ParameterError, PreconditionerError
from repro.precond.base import Preconditioner, TriangularSolve
from repro.sparse.csr import ensure_csr, validate_square

__all__ = ["ILU0Preconditioner"]


def _ilu0_factorise(matrix: sp.csr_matrix, pivot_shift: float) -> sp.csr_matrix:
    """Return the combined LU factor stored in a single CSR matrix.

    The strict lower triangle holds ``L`` (unit diagonal implied) and the upper
    triangle including the diagonal holds ``U`` -- the classic compact storage.
    One pass over the sorted CSR arrays on Python floats (the same IEEE
    operations as numpy's float64 scalars, in the same order): row ``i``'s
    columns are scattered into ``where`` (column -> position) while the row is
    eliminated, and ``diag_pos[k]`` locates the pivot of each finished row.
    Raises when an entry overflowed to a non-finite value, naming the first
    row that holds one (a missing diagonal, found during the pass, is
    reported instead).
    """
    factor = matrix.copy()
    factor.sum_duplicates()
    n = factor.shape[0]
    indptr = factor.indptr.tolist()
    indices = factor.indices.tolist()
    data = factor.data.tolist()
    where = [-1] * n
    diag_pos = [0] * n
    replacement = float(pivot_shift) if pivot_shift > 0 else 1e-14

    for i in range(n):
        start, end = indptr[i], indptr[i + 1]
        for pos in range(start, end):
            where[indices[pos]] = pos
        # Eliminate using previously factorised rows k < i present in row i.
        for pos_k in range(start, end):
            k = indices[pos_k]
            if k >= i:
                break
            pivot = data[diag_pos[k]]
            if pivot == 0.0:
                raise PreconditionerError(
                    f"ILU(0) breakdown: zero pivot at row {k}")
            multiplier = data[pos_k] / pivot
            data[pos_k] = multiplier
            # Subtract multiplier * U[k, j] for j in pattern(i), j > k.
            for pos_j in range(diag_pos[k] + 1, indptr[k + 1]):
                target = where[indices[pos_j]]
                if target >= 0:
                    data[target] -= multiplier * data[pos_j]
        position_diag = where[i]
        if position_diag < 0:
            raise PreconditionerError(
                f"ILU(0) requires a structurally non-zero diagonal (row {i})")
        if abs(data[position_diag]) < 1e-14:
            data[position_diag] = replacement
        diag_pos[i] = position_diag
        for pos in range(start, end):
            where[indices[pos]] = -1

    values = np.array(data, dtype=np.float64)
    finite = np.isfinite(values)
    if not finite.all():
        row = int(np.searchsorted(factor.indptr, np.argmin(finite),
                                  side="right")) - 1
        raise PreconditionerError(
            f"ILU(0) breakdown: non-finite entry in row {row}")
    factor.data = values
    return ensure_csr(factor)


class ILU0Preconditioner(Preconditioner):
    """Zero fill-in incomplete LU preconditioner.

    Parameters
    ----------
    matrix:
        Square sparse matrix with a structurally non-zero diagonal.
    pivot_shift:
        Replacement value for (near-)zero pivots, finite and >= 0; ``0``
        keeps a tiny epsilon.  A factor entry that overflows to a non-finite
        value raises :class:`~repro.exceptions.PreconditionerError`.
    """

    def __init__(self, matrix: sp.spmatrix, *, pivot_shift: float = 0.0) -> None:
        csr = validate_square(matrix)
        if not 0.0 <= pivot_shift < math.inf:
            raise ParameterError(
                f"pivot_shift must be finite and >= 0, got {pivot_shift!r}")
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
