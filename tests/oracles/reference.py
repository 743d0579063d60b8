"""Seed per-row loop implementations kept verbatim as equivalence oracles.

The vectorised hot paths (:class:`repro.mcmc.walks.TransitionTable`,
:func:`repro.sparse.csr.truncate_to_fill_factor` and SPAI's batched
least-squares solve) are pinned against these original loop implementations
by the equivalence tests (``tests/test_mcmc_walks.py``,
``tests/test_sparse_csr.py``, ``tests/test_precond.py``).  The two dense
accuracy measures of an approximate inverse (:func:`inversion_error`,
:func:`preconditioned_condition_estimate`) are here too: only the tests use
them.  :class:`LayerNorm` is the layer-norm operation as first written, on
``ndarray.mean`` / ``ndarray.var``; ``tests/test_nn_tensor_functional.py``
pins the one-pass statistics of :class:`repro.nn.functional.LayerNorm` to
it byte for byte.  All of this is intentionally slow and must not be used on any
production path; it lives in one place so a future fix to the oracle
semantics cannot silently diverge between copies.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.exceptions import ParameterError, PreconditionerError
from repro.nn.autograd import Operation
from repro.sparse.csr import ensure_csr, validate_square
from repro.sparse.norms import condition_number
from repro.sparse.splitting import perturb_diagonal

__all__ = [
    "LoopTransitionTable",
    "loop_truncate_to_fill_factor",
    "inversion_error",
    "preconditioned_condition_estimate",
    "LayerNorm",
]


class LoopTransitionTable:
    """Verbatim seed implementation of the TransitionTable construction."""

    def __init__(self, b_matrix) -> None:
        csr = ensure_csr(b_matrix)
        self._n = csr.shape[0]
        row_counts = np.diff(csr.indptr)
        self._row_nnz = row_counts.astype(np.int64)
        max_nnz = int(row_counts.max()) if csr.nnz else 0
        self._max_nnz = max_nnz

        self._cumprob = np.ones((self._n, max(max_nnz, 1)), dtype=np.float64)
        self._columns = np.zeros((self._n, max(max_nnz, 1)), dtype=np.int64)
        self._multiplier = np.zeros((self._n, max(max_nnz, 1)), dtype=np.float64)
        self._row_abs_sum = np.zeros(self._n, dtype=np.float64)

        data, indices, indptr = csr.data, csr.indices, csr.indptr
        for row in range(self._n):
            start, stop = indptr[row], indptr[row + 1]
            if start == stop:
                continue
            values = data[start:stop]
            cols = indices[start:stop]
            abs_values = np.abs(values)
            total = float(abs_values.sum())
            self._row_abs_sum[row] = total
            if total == 0.0:
                # All stored entries are (numerically) zero: absorbing row.
                self._row_nnz[row] = 0
                continue
            probabilities = abs_values / total
            self._cumprob[row, : stop - start] = np.cumsum(probabilities)
            self._cumprob[row, stop - start - 1] = 1.0
            self._columns[row, : stop - start] = cols
            self._multiplier[row, : stop - start] = np.sign(values) * total


def loop_truncate_to_fill_factor(matrix, target_fill: float):
    """Verbatim seed implementation of the per-row top-k truncation loop.

    Note: unlike the vectorised replacement, the seed version lets the
    one-entry-per-row floor exceed the global budget.
    """
    csr = ensure_csr(matrix, copy=True)
    n_rows, n_cols = csr.shape
    budget_total = int(np.floor(target_fill * n_rows * n_cols))
    if csr.nnz <= budget_total:
        return csr

    counts = np.diff(csr.indptr)
    raw = counts.astype(np.float64) * (budget_total / max(csr.nnz, 1))
    budgets = np.maximum(np.floor(raw).astype(np.int64), (counts > 0).astype(np.int64))
    budgets = np.minimum(budgets, counts)

    keep_mask = np.zeros(csr.nnz, dtype=bool)
    data = csr.data
    indptr = csr.indptr
    for row in range(n_rows):
        start, stop = indptr[row], indptr[row + 1]
        k = int(budgets[row])
        if k <= 0 or start == stop:
            continue
        segment = np.abs(data[start:stop])
        if k >= segment.size:
            keep_mask[start:stop] = True
            continue
        top = np.argpartition(segment, segment.size - k)[segment.size - k:]
        keep_mask[start + top] = True

    out = csr.copy()
    out.data = np.where(keep_mask, out.data, 0.0)
    out.eliminate_zeros()
    return out


def _spai_static_loop(matrix: sp.csr_matrix, pattern: sp.csr_matrix) -> sp.csr_matrix:
    """Seed SPAI solve: one ``lstsq`` per column of ``M``.

    The batched ``repro.precond.spai._spai_static`` must reproduce its result
    within floating-point roundoff.
    """
    n = matrix.shape[0]
    csc = matrix.tocsc()
    pattern_csc = pattern.tocsc()
    columns: list[np.ndarray] = []
    rows: list[np.ndarray] = []
    values: list[np.ndarray] = []
    for j in range(n):
        support = pattern_csc.indices[pattern_csc.indptr[j]:pattern_csc.indptr[j + 1]]
        if support.size == 0:
            continue
        # Rows touched by the support columns of A.
        sub = csc[:, support]
        touched = np.unique(sub.indices)
        if touched.size == 0:
            continue
        dense_block = sub.toarray()[touched, :]
        rhs = np.zeros(touched.size, dtype=np.float64)
        position = np.searchsorted(touched, j)
        if position < touched.size and touched[position] == j:
            rhs[position] = 1.0
        solution, *_ = np.linalg.lstsq(dense_block, rhs, rcond=None)
        columns.append(np.full(support.size, j, dtype=np.int64))
        rows.append(support.astype(np.int64))
        values.append(solution)
    if not values:
        raise PreconditionerError("SPAI produced an empty preconditioner")
    coo = sp.coo_matrix(
        (np.concatenate(values), (np.concatenate(rows), np.concatenate(columns))),
        shape=(n, n),
    )
    return ensure_csr(coo.tocsr())


def inversion_error(matrix: sp.spmatrix, approximate_inverse: sp.spmatrix, *,
                    alpha: float = 0.0, ord: str = "fro") -> float:
    """Relative error of ``P`` as an inverse of the perturbed matrix.

    Computes ``||P A_hat - I|| / ||I||`` with ``A_hat = A + alpha * diag(A)``;
    the Frobenius norm is the default.  Only sensible for small matrices since
    the product is formed explicitly.
    """
    csr = validate_square(matrix)
    approx = ensure_csr(approximate_inverse)
    if approx.shape != csr.shape:
        raise ParameterError(
            f"shape mismatch: A is {csr.shape}, P is {approx.shape}")
    perturbed = perturb_diagonal(csr, alpha)
    n = csr.shape[0]
    residual = (approx @ perturbed - sp.identity(n, format="csr")).tocsr()
    if ord == "fro":
        return float(sp.linalg.norm(residual, "fro") / np.sqrt(n))
    if ord == "inf":
        return float(np.abs(residual).sum(axis=1).max())
    raise ParameterError(f"unsupported norm {ord!r}; use 'fro' or 'inf'")


def preconditioned_condition_estimate(matrix: sp.spmatrix,
                                      approximate_inverse: sp.spmatrix) -> float:
    """Condition number of the left-preconditioned operator ``P A``.

    Dense computation -- intended for the small matrices of the study set to
    verify that a successful preconditioner indeed lowers ``kappa``.
    """
    csr = validate_square(matrix)
    approx = ensure_csr(approximate_inverse)
    product = (approx @ csr).tocsr()
    return condition_number(product)


class LayerNorm(Operation):
    # gamma/beta gradients come back in the row-broadcast shape.
    broadcastable = True

    def __init__(self, eps: float) -> None:
        self.eps = eps

    def forward(self, a, gamma, beta):
        mu = a.mean(axis=-1, keepdims=True)
        var = a.var(axis=-1, keepdims=True)
        self.inv_std = 1.0 / np.sqrt(var + self.eps)
        self.normalised = (a - mu) * self.inv_std
        self.gamma = gamma
        return gamma * self.normalised + beta

    def backward(self, grad, index):
        if index == 1:  # gamma (engine un-broadcasts to its shape)
            return grad * self.normalised
        if index == 2:  # beta
            return grad
        grad_normalised = grad * self.gamma
        # Standard layer-norm backward (per-row statistics).
        return (grad_normalised
                - grad_normalised.mean(axis=-1, keepdims=True)
                - self.normalised * (grad_normalised * self.normalised
                                     ).mean(axis=-1, keepdims=True)
                ) * self.inv_std
