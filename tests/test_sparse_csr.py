"""Tests for repro.sparse.csr."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from repro.exceptions import MatrixFormatError
from repro.sparse.csr import (
    drop_small_entries,
    ensure_csr,
    fill_factor,
    is_symmetric,
    nnz_per_row,
    random_sparse,
    row_sums_abs,
    sparsity,
    symmetricity_score,
    truncate_to_fill_factor,
    validate_square,
)


class TestEnsureCsr:
    def test_dense_input(self):
        dense = np.array([[1.0, 0.0], [2.0, 3.0]])
        csr = ensure_csr(dense)
        assert sp.issparse(csr)
        assert csr.nnz == 3

    def test_explicit_zeros_removed(self):
        matrix = sp.csr_matrix(np.array([[1.0, 0.0], [0.0, 2.0]]))
        matrix.data[0] = 0.0
        assert ensure_csr(matrix).nnz == 1

    def test_copy_flag(self):
        matrix = sp.identity(3, format="csr")
        copied = ensure_csr(matrix, copy=True)
        copied.data[0] = 5.0
        assert matrix.data[0] == 1.0

    def test_invalid_type(self):
        with pytest.raises(MatrixFormatError):
            ensure_csr("not a matrix")

    def test_invalid_ndim(self):
        with pytest.raises(MatrixFormatError):
            ensure_csr(np.ones(4))


class TestValidateSquare:
    def test_rejects_rectangular(self):
        with pytest.raises(MatrixFormatError):
            validate_square(sp.csr_matrix(np.ones((2, 3))))

    def test_rejects_nan(self):
        matrix = np.array([[1.0, np.nan], [0.0, 1.0]])
        with pytest.raises(MatrixFormatError):
            validate_square(matrix)

    def test_accepts_square(self, small_spd):
        assert validate_square(small_spd).shape == small_spd.shape


class TestSymmetry:
    def test_laplacian_is_symmetric(self, small_spd):
        assert is_symmetric(small_spd)
        assert symmetricity_score(small_spd) == pytest.approx(1.0)

    def test_nonsymmetric_detected(self, small_nonsym):
        assert not is_symmetric(small_nonsym)
        assert symmetricity_score(small_nonsym) < 1.0

    def test_rectangular_is_not_symmetric(self):
        assert not is_symmetric(sp.csr_matrix(np.ones((2, 3))))

    def test_skew_symmetric_scores_zero(self):
        skew = np.array([[0.0, 1.0], [-1.0, 0.0]])
        assert symmetricity_score(skew) == pytest.approx(0.0, abs=1e-12)


class TestStructuralMetrics:
    def test_fill_and_sparsity_sum_to_one(self, small_spd):
        assert fill_factor(small_spd) + sparsity(small_spd) == pytest.approx(1.0)

    def test_nnz_per_row_matches_total(self, small_nonsym):
        assert nnz_per_row(small_nonsym).sum() == small_nonsym.nnz

    def test_row_sums_abs(self):
        matrix = np.array([[1.0, -2.0], [0.0, 3.0]])
        np.testing.assert_allclose(row_sums_abs(matrix), [3.0, 3.0])


class TestDropSmallEntries:
    def test_drops_below_threshold(self):
        matrix = np.array([[1.0, 1e-12], [0.0, 2.0]])
        assert drop_small_entries(matrix, 1e-9).nnz == 2

    def test_zero_threshold_is_noop(self, small_spd):
        assert drop_small_entries(small_spd, 0.0).nnz == small_spd.nnz

    def test_negative_threshold_raises(self):
        with pytest.raises(MatrixFormatError):
            drop_small_entries(np.eye(2), -1.0)

    def test_original_not_modified(self, small_spd):
        before = small_spd.nnz
        drop_small_entries(small_spd, 10.0)
        assert small_spd.nnz == before


class TestTruncateToFillFactor:
    def test_respects_budget(self, small_nonsym):
        target = fill_factor(small_nonsym) / 2
        truncated = truncate_to_fill_factor(small_nonsym, target)
        assert fill_factor(truncated) <= target * 1.05

    def test_noop_when_already_sparse(self, small_spd):
        truncated = truncate_to_fill_factor(small_spd, 1.0)
        assert truncated.nnz == small_spd.nnz

    def test_keeps_largest_entries(self):
        matrix = np.array([[5.0, 0.1, 0.0], [0.0, 4.0, 0.2], [0.3, 0.0, 3.0]])
        truncated = truncate_to_fill_factor(matrix, 3.0 / 9.0)
        dense = truncated.toarray()
        assert dense[0, 0] == 5.0 and dense[1, 1] == 4.0 and dense[2, 2] == 3.0

    def test_invalid_target(self):
        with pytest.raises(MatrixFormatError):
            truncate_to_fill_factor(np.eye(3), 0.0)

    def test_per_row_floor_never_exceeds_global_budget(self):
        # 6 single-entry rows but a budget of 3: the historical "at least one
        # entry per non-empty row" floor would keep 6; the overflow must be
        # redistributed by dropping the smallest magnitudes.
        n = 6
        matrix = sp.diags(np.array([6.0, 5.0, 1.0, 4.0, 2.0, 3.0])).tocsr()
        target = 3.0 / (n * n)
        truncated = truncate_to_fill_factor(matrix, target)
        assert truncated.nnz == 3
        np.testing.assert_allclose(np.sort(np.abs(truncated.data)),
                                   [4.0, 5.0, 6.0])

    def test_matches_seed_loop_selection(self):
        """Equivalence with the seed per-row argpartition loop."""
        from oracles.reference import loop_truncate_to_fill_factor

        for seed, n, density, ratio in [(0, 40, 0.3, 0.5), (1, 25, 0.8, 0.25),
                                        (2, 60, 0.1, 0.6)]:
            matrix = random_sparse(n, density, seed=seed)
            target = ratio * matrix.nnz / (n * n)
            reference = loop_truncate_to_fill_factor(matrix, target)
            vectorised = truncate_to_fill_factor(matrix, target)
            budget_total = int(np.floor(target * n * n))
            # The vectorised result additionally enforces the global budget;
            # when the seed loop already respected it the outputs are equal,
            # otherwise the vectorised selection is a trimmed subset.
            assert vectorised.nnz == min(reference.nnz, budget_total)
            difference = (reference - vectorised).tocsr()
            difference.eliminate_zeros()
            overlap_mismatch = reference.nnz - vectorised.nnz
            assert difference.nnz <= overlap_mismatch


class TestRandomSparse:
    def test_shape_and_determinism(self):
        a = random_sparse(20, 0.2, seed=0)
        b = random_sparse(20, 0.2, seed=0)
        assert a.shape == (20, 20)
        assert (a != b).nnz == 0

    def test_symmetric_option(self):
        assert is_symmetric(random_sparse(15, 0.3, seed=1, symmetric=True))

    def test_diag_boost(self):
        boosted = random_sparse(10, 0.1, seed=2, diag_boost=5.0)
        assert np.all(np.abs(boosted.diagonal()) > 0)

    def test_invalid_arguments(self):
        with pytest.raises(MatrixFormatError):
            random_sparse(0, 0.5)
        with pytest.raises(MatrixFormatError):
            random_sparse(5, 0.0)


@settings(max_examples=25, deadline=None)
@given(n=st.integers(min_value=2, max_value=25),
       density=st.floats(min_value=0.05, max_value=0.9),
       target=st.floats(min_value=0.05, max_value=1.0))
def test_truncation_never_increases_nnz_property(n, density, target):
    """Property: truncation never adds entries and the budget is strict."""
    matrix = random_sparse(n, density, seed=n)
    truncated = truncate_to_fill_factor(matrix, target)
    assert truncated.nnz <= matrix.nnz
    budget = int(np.floor(target * n * n))
    # No slack: the per-row floor overflow is redistributed, so the global
    # budget is a hard guarantee.
    assert truncated.nnz <= budget


@settings(max_examples=25, deadline=None)
@given(n=st.integers(min_value=2, max_value=20),
       density=st.floats(min_value=0.05, max_value=0.9))
def test_symmetricity_score_bounds_property(n, density):
    """Property: the symmetry score always lies in [0, 1]."""
    matrix = random_sparse(n, density, seed=n + 100)
    score = symmetricity_score(matrix)
    assert 0.0 <= score <= 1.0
