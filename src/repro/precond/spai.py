"""Sparse approximate inverse (SPAI) preconditioner with a fixed pattern.

Grote & Huckle's SPAI -- cited by the paper as the classical remedy to the
parallelism bottleneck of incomplete factorisations -- computes an explicit
sparse ``M ≈ A^{-1}`` by minimising ``||A M - I||_F`` column by column subject
to a prescribed sparsity pattern.  Each column is an independent small
least-squares problem, which is why the method parallelises as well as the
MCMC estimator.  We implement the static-pattern variant where the pattern of
``M`` is that of ``A`` (or of a power of ``A``).
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.exceptions import PreconditionerError
from repro.precond.base import MatrixPreconditioner
from repro.sparse.csr import ensure_csr, validate_square
from repro.sparse.topk import row_topk_mask

__all__ = ["SPAIPreconditioner"]


def _spai_static_loop(matrix: sp.csr_matrix, pattern: sp.csr_matrix) -> sp.csr_matrix:
    """Reference per-column least-squares loop (kept for the tests).

    One ``lstsq`` per column of ``M``; the vectorised :func:`_spai_static`
    below must reproduce its result within floating-point roundoff.
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


def _spai_static(matrix: sp.csr_matrix, pattern: sp.csr_matrix) -> sp.csr_matrix:
    """Solve the column-wise least-squares problems for a static pattern.

    Vectorised formulation: structured patterns (stencil matrices, powers of
    ``A``) produce many columns whose local problem has the *same* dense shape
    ``(touched rows, support size)``.  Columns are grouped by that shape and
    each group is solved with one batched QR factorisation instead of one
    ``lstsq`` call per column; rank-deficient or underdetermined groups fall
    back to the reference per-column ``lstsq`` so the minimum-norm semantics
    are preserved exactly where they matter.
    """
    n = matrix.shape[0]
    csc = matrix.tocsc()
    csc.sort_indices()
    pattern_csc = pattern.tocsc()
    pattern_csc.sort_indices()
    a_indptr = csc.indptr
    a_indices = csc.indices.astype(np.int64, copy=False)
    a_data = csc.data
    p_indptr = pattern_csc.indptr
    p_indices = pattern_csc.indices.astype(np.int64, copy=False)

    support_sizes = np.diff(p_indptr).astype(np.int64)
    if p_indices.size == 0:
        raise PreconditionerError("SPAI produced an empty preconditioner")

    # Expand every pattern entry (column j, slot t, support column c) into the
    # non-zeros of A[:, c]: quadruples (owner column j, slot t, row r, value v).
    entry_counts = (a_indptr[p_indices + 1] - a_indptr[p_indices]).astype(np.int64)
    total = int(entry_counts.sum())
    pat_owner = np.repeat(np.arange(n, dtype=np.int64), support_sizes)
    pat_slot = np.arange(p_indices.size, dtype=np.int64) - np.repeat(
        p_indptr[:-1].astype(np.int64), support_sizes)
    reps = np.repeat(np.arange(p_indices.size, dtype=np.int64), entry_counts)
    run_starts = np.cumsum(entry_counts) - entry_counts
    offsets = np.arange(total, dtype=np.int64) - np.repeat(run_starts, entry_counts)
    gather = np.repeat(a_indptr[p_indices].astype(np.int64), entry_counts) + offsets
    q_row = a_indices[gather]
    q_val = a_data[gather]
    q_owner = pat_owner[reps]
    q_slot = pat_slot[reps]

    # Sorted unique touched rows per column via one global key sort.  The key
    # packs (owner, row) so unique keys enumerate each column's touched set in
    # row order, matching np.unique in the reference loop.
    key = q_owner * np.int64(n) + q_row
    sorted_key = np.sort(key)
    if sorted_key.size:
        uniq_mask = np.empty(sorted_key.size, dtype=bool)
        uniq_mask[0] = True
        np.not_equal(sorted_key[1:], sorted_key[:-1], out=uniq_mask[1:])
        uniq_keys = sorted_key[uniq_mask]
    else:
        uniq_keys = sorted_key
    touched_counts = np.bincount((uniq_keys // n).astype(np.intp), minlength=n)
    touched_starts = np.concatenate(([0], np.cumsum(touched_counts)))
    q_rpos = np.searchsorted(uniq_keys, key) - touched_starts[q_owner]

    active = (support_sizes > 0) & (touched_counts > 0)
    active_cols = np.flatnonzero(active)
    if active_cols.size == 0:
        raise PreconditionerError("SPAI produced an empty preconditioner")

    # Group active columns by their dense-block shape (m, k).
    m_of = touched_counts[active_cols]
    k_of = support_sizes[active_cols]
    shape_key = m_of * (int(k_of.max()) + 1) + k_of
    group_keys, group_of_active = np.unique(shape_key, return_inverse=True)
    group_of = np.full(n, -1, dtype=np.int64)
    group_of[active_cols] = group_of_active
    local_of = np.empty(n, dtype=np.int64)
    for g in range(group_keys.size):
        members = active_cols[group_of_active == g]
        local_of[members] = np.arange(members.size)

    # Diagonal position of j inside its touched set (unit rhs entry).
    diag_key = active_cols * np.int64(n) + active_cols
    dpos = np.searchsorted(uniq_keys, diag_key)
    has_diag = (dpos < uniq_keys.size) & (uniq_keys[np.minimum(dpos, uniq_keys.size - 1)] == diag_key)
    drow = dpos - touched_starts[active_cols]

    # Order quadruples by group once so each group's scatter is a slice.
    q_group = group_of[q_owner]
    q_order = np.argsort(q_group, kind="stable")
    q_group_sorted = q_group[q_order]
    group_bounds = np.searchsorted(q_group_sorted, np.arange(group_keys.size + 1))

    values_by_column: dict[int, np.ndarray] = {}
    eps = np.finfo(np.float64).eps
    for g in range(group_keys.size):
        members = active_cols[group_of_active == g]
        m = int(touched_counts[members[0]])
        k = int(support_sizes[members[0]])
        sel = q_order[group_bounds[g]:group_bounds[g + 1]]
        blocks = np.zeros((members.size, m, k), dtype=np.float64)
        blocks[local_of[q_owner[sel]], q_rpos[sel], q_slot[sel]] = q_val[sel]
        rhs = np.zeros((members.size, m), dtype=np.float64)
        in_group = np.isin(active_cols, members, assume_unique=True)
        rhs_rows = drow[in_group]
        rhs_hit = has_diag[in_group]
        rhs[np.flatnonzero(rhs_hit), rhs_rows[rhs_hit]] = 1.0

        solved = np.zeros(members.size, dtype=bool)
        solutions = np.empty((members.size, k), dtype=np.float64)
        if m >= k:
            q_fac, r_fac = np.linalg.qr(blocks)
            r_diag = np.abs(np.diagonal(r_fac, axis1=1, axis2=2))
            full_rank = r_diag.min(axis=1) > eps * max(m, k) * np.maximum(
                r_diag.max(axis=1), np.finfo(np.float64).tiny)
            if full_rank.any():
                beta = np.matmul(q_fac[full_rank].transpose(0, 2, 1),
                                 rhs[full_rank, :, None])
                solutions[full_rank] = np.linalg.solve(r_fac[full_rank], beta)[:, :, 0]
                solved[full_rank] = True
        for idx in np.flatnonzero(~solved):
            solutions[idx], *_ = np.linalg.lstsq(blocks[idx], rhs[idx], rcond=None)
        for idx, j in enumerate(members):
            values_by_column[int(j)] = solutions[idx]

    data = np.concatenate([values_by_column[int(j)] for j in active_cols])
    rows = np.concatenate([p_indices[p_indptr[j]:p_indptr[j + 1]] for j in active_cols])
    cols = np.repeat(active_cols, support_sizes[active_cols])
    coo = sp.coo_matrix((data, (rows, cols)), shape=(n, n))
    return ensure_csr(coo.tocsr())


class SPAIPreconditioner(MatrixPreconditioner):
    """Static-pattern sparse approximate inverse ``min ||A M - I||_F``.

    Parameters
    ----------
    matrix:
        The system matrix ``A``.
    pattern_power:
        The sparsity pattern of ``M`` is taken from ``A^pattern_power``
        (1 = pattern of ``A``; 2 adds one level of fill and is noticeably more
        accurate at a quadratic cost in the pattern size).
    pattern_cap:
        Optional upper bound on the pattern size per column of ``M``.  Higher
        powers can fill in quickly; the cap keeps, per column, only the
        positions with the largest ``|A|^pattern_power`` weight (via the
        shared :func:`~repro.sparse.topk.row_topk_mask` kernel), bounding the
        cost of the least-squares solves.
    """

    def __init__(self, matrix: sp.spmatrix, *, pattern_power: int = 1,
                 pattern_cap: int | None = None) -> None:
        if pattern_power < 1:
            raise PreconditionerError(
                f"pattern_power must be >= 1, got {pattern_power}")
        if pattern_cap is not None and pattern_cap < 1:
            raise PreconditionerError(
                f"pattern_cap must be >= 1, got {pattern_cap}")
        csr = validate_square(matrix)
        # Powers of |A| carry the same sparsity pattern as the binarised
        # products (non-negative entries cannot cancel symbolically) while
        # also providing the magnitudes the per-column cap selects by.  The
        # structural pattern must not depend on scaling, so the magnitudes
        # are normalised and floored to 1e-150 before every product: any
        # pairwise product of floored entries then stays a normal float, so
        # no pattern position can underflow to an exact zero and be dropped
        # by the sparse matmul or ``eliminate_zeros``.
        floor = 1e-150
        magnitude = ensure_csr(abs(csr))
        if magnitude.nnz:
            magnitude.data /= magnitude.data.max()
            np.maximum(magnitude.data, floor, out=magnitude.data)
        accumulated = magnitude.copy()
        for _ in range(pattern_power - 1):
            accumulated = ensure_csr((accumulated @ magnitude).tocsr())
            if accumulated.nnz:
                np.maximum(accumulated.data, floor, out=accumulated.data)
        if pattern_cap is not None:
            csc = accumulated.tocsc()
            budgets = np.full(csc.shape[1], pattern_cap, dtype=np.int64)
            # CSC arrays are structurally CSR arrays of the transpose, so the
            # row-top-k kernel caps per *column* here.
            mask = row_topk_mask(csc.data, csc.indptr, budgets)
            csc.data = np.where(mask, csc.data, 0.0)
            csc.eliminate_zeros()
            accumulated = ensure_csr(csc.tocsr())
        pattern = accumulated.copy()
        pattern.data = np.ones_like(pattern.data)
        pattern = ensure_csr(pattern)
        approximate_inverse = _spai_static(csr, pattern)
        super().__init__(approximate_inverse, name="SPAIPreconditioner")
        self._pattern_power = pattern_power
        self._pattern_cap = pattern_cap
        self._pattern_nnz = int(pattern.nnz)

    @property
    def pattern_power(self) -> int:
        """Power of ``A`` whose pattern constrains the approximate inverse."""
        return self._pattern_power

    @property
    def pattern_cap(self) -> int | None:
        """Maximum retained pattern entries per column (``None`` = no cap)."""
        return self._pattern_cap

    @property
    def pattern_nnz(self) -> int:
        """Size of the sparsity pattern the least-squares solves were run on."""
        return self._pattern_nnz
