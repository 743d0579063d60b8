"""Seed per-row loop implementations kept verbatim as equivalence oracles.

The vectorised hot paths (:class:`repro.mcmc.walks.TransitionTable` and
:func:`repro.sparse.csr.truncate_to_fill_factor`) are pinned against these
original loop implementations by the equivalence tests
(``tests/test_mcmc_walks.py``, ``tests/test_sparse_csr.py``).  They are
intentionally slow and must not be used on any production path; they live in
one place so a future fix to the oracle semantics cannot silently diverge
between copies.
"""

from __future__ import annotations

import numpy as np

from repro.sparse.csr import ensure_csr

__all__ = ["LoopTransitionTable", "loop_truncate_to_fill_factor"]


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
