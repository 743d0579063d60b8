"""Preconditioner interface shared by MCMC and classical baselines.

A preconditioner is, from the Krylov solvers' point of view, nothing more than
a linear operator ``z = M(r)`` approximating ``A^{-1} r``.  Left
preconditioning -- the scheme used throughout the paper (``P A x = P b``) --
only ever applies the operator to vectors, so the interface is a single
``apply`` method plus enough metadata for reporting.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np
import scipy.sparse as sp
# The compiled substitution behind ``scipy.sparse.linalg.spsolve_triangular``.
from scipy.sparse.linalg._dsolve._superlu import gstrs

from repro.exceptions import PreconditionerError
from repro.sparse.csr import ensure_csr, validate_square

__all__ = ["Preconditioner", "IdentityPreconditioner", "MatrixPreconditioner"]


class Preconditioner(ABC):
    """Abstract left preconditioner ``z = M(r) ≈ A^{-1} r``."""

    @abstractmethod
    def apply(self, vector: np.ndarray) -> np.ndarray:
        """Apply the preconditioner to a vector (or a stack of vectors)."""

    @property
    @abstractmethod
    def shape(self) -> tuple[int, int]:
        """Shape of the underlying operator."""

    @property
    def nnz(self) -> int:
        """Number of stored non-zeros (0 when the operator is matrix-free)."""
        return 0

    def as_linear_operator(self):
        """Expose the preconditioner as a :class:`scipy.sparse.linalg.LinearOperator`."""
        import scipy.sparse.linalg as spla

        return spla.LinearOperator(self.shape, matvec=self.apply, dtype=np.float64)

    def __call__(self, vector: np.ndarray) -> np.ndarray:
        return self.apply(vector)

    def describe(self) -> str:
        """Human-readable one-liner used in reports."""
        return f"{type(self).__name__}(shape={self.shape}, nnz={self.nnz})"

    def _check_vector(self, vector: np.ndarray) -> np.ndarray:
        array = np.asarray(vector, dtype=np.float64)
        if array.shape[0] != self.shape[1]:
            raise PreconditionerError(
                f"vector of length {array.shape[0]} incompatible with "
                f"preconditioner shape {self.shape}")
        return array


class IdentityPreconditioner(Preconditioner):
    """No-op preconditioner (the unpreconditioned reference of the metric)."""

    def __init__(self, n: int) -> None:
        if n <= 0:
            raise PreconditionerError(f"dimension must be positive, got {n}")
        self._n = n

    @property
    def shape(self) -> tuple[int, int]:
        return (self._n, self._n)

    def apply(self, vector: np.ndarray) -> np.ndarray:
        return np.array(self._check_vector(vector), copy=True)


class MatrixPreconditioner(Preconditioner):
    """Preconditioner defined by an explicit sparse matrix ``P`` (``z = P r``).

    This is the common base of the MCMC, Neumann and SPAI preconditioners,
    whose defining property -- emphasised by the paper -- is that application
    is a sparse matrix--vector product and therefore embarrassingly parallel.
    """

    def __init__(self, matrix: sp.spmatrix, *, name: str | None = None) -> None:
        self._matrix = validate_square(ensure_csr(matrix))
        self._name = name or type(self).__name__

    @property
    def matrix(self) -> sp.csr_matrix:
        """The explicit sparse approximate inverse ``P``."""
        return self._matrix

    @property
    def shape(self) -> tuple[int, int]:
        return self._matrix.shape

    @property
    def nnz(self) -> int:
        return int(self._matrix.nnz)

    def apply(self, vector: np.ndarray) -> np.ndarray:
        array = self._check_vector(vector)
        return self._matrix @ array

    def describe(self) -> str:
        return f"{self._name}(shape={self.shape}, nnz={self.nnz})"


class TriangularSolve:
    """``x = T⁻¹ b`` for one sparse triangular CSR factor ``T``, prepared once.

    ``scipy.sparse.linalg.spsolve_triangular`` spends most of a call
    preparing its input (a copy of ``T``, the diagonal scaling,
    ``sum_duplicates``, index casts) before one compiled SuperLU ``gstrs``
    substitution.  This does that preparation at construction, step for step
    as scipy 1.17 does it for a CSR factor, and each call is the same
    ``gstrs`` on the same arrays: the same arithmetic, so the result is
    bit-identical to ``spsolve_triangular(T, b, lower, unit_diagonal=...)``
    (``tests/test_precond.py`` checks it).  The prepared arrays pickle.
    """

    def __init__(self, factor: sp.csr_matrix, *, lower: bool,
                 unit_diagonal: bool = False) -> None:
        # A CSR factor is solved as its CSC transpose, with ``trans="T"``.
        transposed = factor.T.tocsc(copy=True)
        n = transposed.shape[0]
        if unit_diagonal:
            transposed.setdiag(1)
            self._scale = None
        else:
            diagonal = transposed.diagonal()
            if np.any(diagonal == 0):
                raise PreconditionerError("triangular factor has a zero pivot")
            self._scale = 1 / diagonal
            transposed = (transposed.T @ sp.diags_array(self._scale)).T
        transposed.sum_duplicates()
        # gstrs solves with an "L" (unit diagonal) and a strictly upper "U".
        if lower:  # the transpose is upper triangular
            l_slot, u_slot = sp.eye_array(n, format="csc"), transposed
            u_slot.setdiag(0)
        else:
            l_slot, u_slot = transposed, sp.csc_array((n, n))
        self._factors = tuple(
            value for part in (l_slot, u_slot)
            for value in (n, part.nnz, part.data.astype(np.float64),
                          part.indices.astype(np.intc),
                          part.indptr.astype(np.intc)))

    def __call__(self, rhs: np.ndarray) -> np.ndarray:
        solution, info = gstrs("T", *self._factors,
                               np.array(rhs, dtype=np.float64))
        if info:
            raise PreconditionerError("triangular factor is singular")
        if self._scale is None:
            return solution
        return solution * self._scale.reshape(-1, *[1] * (solution.ndim - 1))
