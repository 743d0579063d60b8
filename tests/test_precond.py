"""Tests for the baseline preconditioners."""

from __future__ import annotations

import pickle

import numpy as np
import pytest
import scipy.sparse as sp

from repro.exceptions import ParameterError, PreconditionerError
from repro.krylov import cg, gmres
from repro.matrices import laplacian_2d, pdd_real_sparse
from repro.precond import (
    IdentityPreconditioner,
    ILU0Preconditioner,
    IncompleteCholeskyPreconditioner,
    JacobiPreconditioner,
    MatrixPreconditioner,
    NeumannPreconditioner,
    SPAIPreconditioner,
)


class TestIdentityAndMatrix:
    def test_identity_returns_copy(self):
        preconditioner = IdentityPreconditioner(4)
        vector = np.arange(4.0)
        output = preconditioner.apply(vector)
        np.testing.assert_allclose(output, vector)
        output[0] = 99.0
        assert vector[0] == 0.0

    def test_identity_invalid_dimension(self):
        with pytest.raises(PreconditionerError):
            IdentityPreconditioner(0)

    def test_matrix_preconditioner_applies_spmv(self, small_spd):
        inverse_diag = sp.diags(1.0 / small_spd.diagonal(), format="csr")
        preconditioner = MatrixPreconditioner(inverse_diag)
        vector = np.ones(small_spd.shape[0])
        np.testing.assert_allclose(preconditioner(vector), inverse_diag @ vector)
        assert preconditioner.nnz == inverse_diag.nnz

    def test_vector_length_validation(self, small_spd):
        preconditioner = JacobiPreconditioner(small_spd)
        with pytest.raises(PreconditionerError):
            preconditioner.apply(np.ones(3))

    def test_as_linear_operator(self, small_spd):
        operator = JacobiPreconditioner(small_spd).as_linear_operator()
        assert operator.shape == small_spd.shape


class TestJacobi:
    def test_matches_diagonal_inverse(self, small_spd):
        preconditioner = JacobiPreconditioner(small_spd)
        vector = np.ones(small_spd.shape[0])
        np.testing.assert_allclose(preconditioner.apply(vector),
                                   vector / small_spd.diagonal())

    def test_zero_diagonal_rejected(self):
        matrix = sp.csr_matrix(np.array([[0.0, 1.0], [1.0, 1.0]]))
        with pytest.raises(PreconditionerError):
            JacobiPreconditioner(matrix)


class TestNeumann:
    def test_accelerates_gmres(self):
        matrix = laplacian_2d(10)
        rhs = np.ones(matrix.shape[0])
        plain = gmres(matrix, rhs, rtol=1e-8)
        preconditioned = gmres(matrix, rhs, rtol=1e-8,
                               preconditioner=NeumannPreconditioner(matrix, terms=8))
        assert preconditioned.iterations < plain.iterations

    def test_attributes(self, small_spd):
        preconditioner = NeumannPreconditioner(small_spd, terms=3, alpha=0.5)
        assert preconditioner.terms == 3
        assert preconditioner.alpha == 0.5


class TestILU0:
    def test_exact_for_tridiagonal(self):
        """ILU(0) of a tridiagonal matrix is the exact LU factorisation."""
        matrix = sp.diags([-np.ones(9), 2.0 * np.ones(10), -np.ones(9)],
                          offsets=[-1, 0, 1], format="csr")
        preconditioner = ILU0Preconditioner(matrix)
        rhs = np.arange(1.0, 11.0)
        np.testing.assert_allclose(preconditioner.apply(matrix @ rhs), rhs, atol=1e-10)

    def test_accelerates_gmres_on_laplacian(self):
        matrix = laplacian_2d(10)
        rhs = np.ones(matrix.shape[0])
        plain = gmres(matrix, rhs, rtol=1e-8)
        preconditioned = gmres(matrix, rhs, rtol=1e-8,
                               preconditioner=ILU0Preconditioner(matrix))
        assert preconditioned.converged
        assert preconditioned.iterations < plain.iterations

    def test_requires_structural_diagonal(self):
        matrix = sp.csr_matrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
        with pytest.raises(PreconditionerError):
            ILU0Preconditioner(matrix)

    def test_nnz_matches_pattern(self, small_nonsym):
        preconditioner = ILU0Preconditioner(small_nonsym)
        assert preconditioner.nnz == small_nonsym.nnz

    def test_apply_is_the_two_triangular_solves_bit_for_bit(self):
        preconditioner = ILU0Preconditioner(pdd_real_sparse(80, seed=2))
        factor = preconditioner.factor
        lower = sp.tril(factor, k=-1) + sp.identity(factor.shape[0])
        _assert_apply_is_two_triangular_solves(
            preconditioner, lower.tocsr(), sp.triu(factor).tocsr())


def _assert_apply_is_two_triangular_solves(preconditioner, lower, upper):
    """``apply`` is scipy's ``spsolve_triangular`` with ``L`` then ``U``,
    bit for bit: the solve plan prepared once at construction runs the same
    compiled substitution on the same arrays.  Checked on repeated
    applications (which reuse the plan), on a stack of vectors, and after a
    pickle round trip (the preconditioners stay picklable)."""
    from scipy.sparse.linalg import spsolve_triangular

    unit_lower = isinstance(preconditioner, ILU0Preconditioner)
    rng = np.random.default_rng(5)
    reloaded = pickle.loads(pickle.dumps(preconditioner))
    for shape in (lower.shape[0], lower.shape[0], (lower.shape[0], 3)):
        vector = rng.standard_normal(shape)
        expected = spsolve_triangular(
            upper, spsolve_triangular(lower, vector, lower=True,
                                      unit_diagonal=unit_lower), lower=False)
        assert np.array_equal(preconditioner.apply(vector), expected)
        assert np.array_equal(reloaded.apply(vector), expected)


@pytest.mark.parametrize("kind, option, value", [
    (IncompleteCholeskyPreconditioner, "shift_step", 0.0),
    (IncompleteCholeskyPreconditioner, "shift_step", -1e-3),
    (IncompleteCholeskyPreconditioner, "shift_step", float("nan")),
    (IncompleteCholeskyPreconditioner, "shift_step", float("inf")),
    (IncompleteCholeskyPreconditioner, "max_shifts", -1),
    (IncompleteCholeskyPreconditioner, "max_shifts", 2.5),
    (IncompleteCholeskyPreconditioner, "max_shifts", True),
    (ILU0Preconditioner, "pivot_shift", -1e-3),
    (ILU0Preconditioner, "pivot_shift", float("nan")),
    (ILU0Preconditioner, "pivot_shift", float("inf"))])
def test_invalid_factorisation_option_is_rejected(small_spd, kind, option,
                                                  value):
    """These used to reject a healthy matrix (``max_shifts=-1``), raise a
    bare ``TypeError``, return a NaN factor or become ``1e-14``."""
    with pytest.raises(ParameterError):
        kind(small_spd, **{option: value})


def test_boundary_factorisation_options_are_accepted(small_spd):
    assert IncompleteCholeskyPreconditioner(small_spd,
                                            max_shifts=0).shifts_used == 0
    assert IncompleteCholeskyPreconditioner(
        small_spd, max_shifts=np.int64(3)).shifts_used == 0
    assert ILU0Preconditioner(small_spd, pivot_shift=0).nnz == small_spd.nnz


class TestNonFiniteFactors:
    """A factor entry that overflows raises instead of being returned: the
    apply of such a factor is NaN.  IC(0) treats it as a breakdown and tries
    its diagonal shifts first."""

    def test_ilu0_overflow_raises(self):
        matrix = sp.csr_matrix(np.array([[1e-200, 1e200], [1e200, 1e-200]]))
        with pytest.raises(PreconditionerError,
                           match="non-finite entry in row 1"):
            ILU0Preconditioner(matrix)

    def test_ic0_nan_pivot_is_a_breakdown(self):
        """Row 3's multiplier sums ``-inf + inf``: the pivot is NaN, which
        ``pivot <= 0`` let through as an all-NaN row."""
        dense = np.diag([1.0, 1.0, 1e201, 1.0])
        for (row, col), value in {(2, 0): 1e100, (2, 1): -1e100,
                                  (3, 0): 1e250, (3, 1): 1e250,
                                  (3, 2): 1.0}.items():
            dense[row, col] = dense[col, row] = value
        with pytest.raises(PreconditionerError) as raised:
            IncompleteCholeskyPreconditioner(sp.csr_matrix(dense),
                                             max_shifts=0)
        assert str(raised.value.__cause__) == (
            "IC(0) breakdown: non-positive pivot nan at row 3")

    def test_ic0_infinite_diagonal_runs_out_of_shifts(self):
        """The mean diagonal overflows, so every shift is infinite; the
        shifted factor used to come back as ``diag(inf, inf)``."""
        matrix = sp.csr_matrix(np.array([[1e308, 1.7e308], [1.7e308, 1e308]]))
        with pytest.raises(PreconditionerError,
                           match="failed after 8 diagonal shifts") as raised, \
                np.errstate(over="ignore"):
            IncompleteCholeskyPreconditioner(matrix)
        assert str(raised.value.__cause__) == (
            "IC(0) breakdown: non-finite entry in row 0")

    def test_nan_shift_step_is_rejected_before_it_reaches_the_factor(self):
        shifted = (laplacian_2d(8) - 3.5 * sp.identity(49)).tocsr()
        with pytest.raises(ParameterError):
            IncompleteCholeskyPreconditioner(shifted, shift_step=float("nan"))


class TestIncompleteCholesky:
    def test_exact_for_tridiagonal_spd(self):
        matrix = sp.diags([-np.ones(9), 2.0 * np.ones(10), -np.ones(9)],
                          offsets=[-1, 0, 1], format="csr")
        preconditioner = IncompleteCholeskyPreconditioner(matrix)
        rhs = np.linspace(0.0, 1.0, 10)
        np.testing.assert_allclose(preconditioner.apply(matrix @ rhs), rhs, atol=1e-10)

    def test_accelerates_cg(self):
        matrix = laplacian_2d(10)
        rhs = np.ones(matrix.shape[0])
        plain = cg(matrix, rhs, rtol=1e-8)
        preconditioned = cg(matrix, rhs, rtol=1e-8,
                            preconditioner=IncompleteCholeskyPreconditioner(matrix))
        assert preconditioned.converged
        assert preconditioned.iterations < plain.iterations

    def test_rejects_nonsymmetric(self, small_nonsym):
        with pytest.raises(PreconditionerError):
            IncompleteCholeskyPreconditioner(small_nonsym)

    def test_lower_factor_is_lower_triangular(self, small_spd):
        preconditioner = IncompleteCholeskyPreconditioner(small_spd)
        upper_part = sp.triu(preconditioner.lower_factor, k=1)
        assert upper_part.nnz == 0

    def test_apply_is_the_two_triangular_solves_bit_for_bit(self):
        preconditioner = IncompleteCholeskyPreconditioner(laplacian_2d(12))
        lower = preconditioner.lower_factor
        _assert_apply_is_two_triangular_solves(preconditioner, lower,
                                               lower.T.tocsr())


class TestSPAI:
    def test_better_than_jacobi_on_laplacian(self):
        matrix = laplacian_2d(8)
        rhs = np.ones(matrix.shape[0])
        jacobi = gmres(matrix, rhs, rtol=1e-8,
                       preconditioner=JacobiPreconditioner(matrix))
        spai = gmres(matrix, rhs, rtol=1e-8,
                     preconditioner=SPAIPreconditioner(matrix))
        assert spai.converged
        assert spai.iterations <= jacobi.iterations

    def test_pattern_power_two_improves_accuracy(self, small_spd):
        identity = np.eye(small_spd.shape[0])
        errors = []
        for power in (1, 2):
            spai = SPAIPreconditioner(small_spd, pattern_power=power)
            errors.append(np.linalg.norm(small_spd.toarray() @ spai.matrix.toarray()
                                         - identity))
        assert errors[1] < errors[0]

    def test_invalid_pattern_power(self, small_spd):
        with pytest.raises(PreconditionerError):
            SPAIPreconditioner(small_spd, pattern_power=0)

    def test_pattern_cap_bounds_columns(self, small_spd):
        capped = SPAIPreconditioner(small_spd, pattern_power=2, pattern_cap=3)
        assert capped.pattern_cap == 3
        per_column = np.diff(capped.matrix.tocsc().indptr)
        assert per_column.max() <= 3
        # The capped preconditioner still has to work as one.
        uncapped = SPAIPreconditioner(small_spd, pattern_power=2)
        assert capped.nnz < uncapped.nnz

    def test_pattern_cap_noop_when_loose(self, small_spd):
        loose = SPAIPreconditioner(small_spd, pattern_cap=10_000)
        plain = SPAIPreconditioner(small_spd)
        assert (loose.matrix != plain.matrix).nnz == 0

    def test_invalid_pattern_cap(self, small_spd):
        with pytest.raises(PreconditionerError):
            SPAIPreconditioner(small_spd, pattern_cap=0)

    def test_pattern_structure_is_scale_invariant(self):
        """Underflowing magnitude products must not drop pattern positions.

        With ``A[0,1] = A[1,2] = 1e-200`` the only contribution to pattern
        position (0, 2) at ``pattern_power=2`` is the product ``1e-400``,
        which underflows to zero; structurally the position must survive, as
        it does for the well-scaled version of the same matrix.
        """
        base = np.eye(4)
        base[0, 1] = base[1, 2] = 1.0
        tiny = base.copy()
        tiny[0, 1] = tiny[1, 2] = 1e-200
        spai_base = SPAIPreconditioner(sp.csr_matrix(base), pattern_power=2)
        spai_tiny = SPAIPreconditioner(sp.csr_matrix(tiny), pattern_power=2)
        assert spai_tiny.pattern_nnz == spai_base.pattern_nnz

    def test_works_for_nonsymmetric(self, small_nonsym):
        spai = SPAIPreconditioner(small_nonsym)
        result = gmres(small_nonsym, np.ones(small_nonsym.shape[0]),
                       preconditioner=spai, rtol=1e-8)
        assert result.converged

    def test_batched_matches_reference_loop(self, small_spd, small_nonsym):
        from oracles.reference import _spai_static_loop
        from repro.precond.spai import _spai_static
        rng = np.random.default_rng(7)
        dense = rng.standard_normal((20, 20))
        dense[np.abs(dense) < 1.2] = 0.0
        np.fill_diagonal(dense, 3.0)
        matrices = [small_spd.tocsr(), small_nonsym.tocsr(),
                    sp.csr_matrix(dense)]
        for matrix in matrices:
            for power in (1, 2):
                pattern = abs(matrix)
                for _ in range(power - 1):
                    pattern = (pattern @ abs(matrix)).tocsr()
                pattern = pattern.tocsr()
                pattern.data = np.ones_like(pattern.data)
                reference = _spai_static_loop(matrix, pattern)
                batched = _spai_static(matrix, pattern)
                np.testing.assert_array_equal(reference.indptr, batched.indptr)
                np.testing.assert_array_equal(reference.indices, batched.indices)
                np.testing.assert_allclose(batched.data, reference.data,
                                           rtol=1e-9, atol=1e-12)

    def test_batched_handles_rank_deficient_blocks(self):
        # Duplicated columns make every local least-squares block rank
        # deficient; the batched kernel must fall back to per-column lstsq
        # and reproduce the minimum-norm solutions of the reference loop.
        from oracles.reference import _spai_static_loop
        from repro.precond.spai import _spai_static
        matrix = sp.csr_matrix(np.array([[1.0, 1.0, 0.0],
                                         [2.0, 2.0, 0.0],
                                         [0.0, 0.0, 1.0]]))
        pattern = sp.csr_matrix(np.ones((3, 3)))
        reference = _spai_static_loop(matrix, pattern)
        batched = _spai_static(matrix, pattern)
        np.testing.assert_allclose(batched.toarray(), reference.toarray(),
                                   rtol=1e-12, atol=1e-12)

    def test_batched_handles_zero_diagonal_columns(self):
        from oracles.reference import _spai_static_loop
        from repro.precond.spai import _spai_static
        matrix = sp.csr_matrix(np.array([[0.0, 1.0, 0.0],
                                         [1.0, 0.0, 0.0],
                                         [0.0, 0.0, 0.5]]))
        pattern = matrix.copy()
        pattern.data = np.ones_like(pattern.data)
        reference = _spai_static_loop(matrix, pattern)
        batched = _spai_static(matrix, pattern)
        np.testing.assert_allclose(batched.toarray(), reference.toarray(),
                                   rtol=1e-12, atol=1e-12)
