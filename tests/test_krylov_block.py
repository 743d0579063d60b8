"""Block-Krylov solver tests: block CG / block GMRES, degenerate block
shapes, `solve_many` mode dispatch, and the typed validation contract."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import ParameterError
from repro.krylov import (
    BLOCK_SOLVERS,
    block_cg,
    block_gmres,
    block_summary,
    solve,
    solve_many,
    total_matvecs,
)
from repro.matrices import laplacian_2d, pdd_real_sparse
from repro.precond import JacobiPreconditioner


@pytest.fixture(scope="module")
def spd_matrix():
    return laplacian_2d(10)


@pytest.fixture(scope="module")
def nonsym_matrix():
    return pdd_real_sparse(70, density=0.15, dominance=2.0, seed=4)


def _block(matrix, k, seed=0):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((matrix.shape[0], k))


class TestBlockCG:
    def test_converges_and_matches_loop_to_tolerance(self, spd_matrix):
        block = _block(spd_matrix, 6)
        results = block_cg(spd_matrix, block, rtol=1e-10)
        assert all(result.converged for result in results)
        for j, result in enumerate(results):
            single = solve(spd_matrix, block[:, j], solver="cg", rtol=1e-10)
            np.testing.assert_allclose(result.solution, single.solution,
                                       atol=1e-6)
            # per-column true residual meets the requested tolerance
            residual = np.linalg.norm(
                spd_matrix @ result.solution - block[:, j])
            assert residual <= 10 * 1e-10 * np.linalg.norm(block[:, j])

    def test_fewer_matvecs_than_loop(self, spd_matrix):
        block = _block(spd_matrix, 8)
        block_results = block_cg(spd_matrix, block, rtol=1e-8)
        loop_results = [solve(spd_matrix, block[:, j], solver="cg", rtol=1e-8)
                        for j in range(8)]
        assert all(result.converged for result in block_results)
        assert total_matvecs(block_results) < total_matvecs(loop_results)

    def test_block_info_shared_and_counted_once(self, spd_matrix):
        results = block_cg(spd_matrix, _block(spd_matrix, 4), rtol=1e-8)
        info = results[0].block_info
        assert all(result.block_info is info for result in results)
        assert block_summary(results) is info
        assert total_matvecs(results) == info.matvecs
        assert all(result.matvecs is None for result in results)

    def test_preconditioned_block_cg(self, spd_matrix):
        block = _block(spd_matrix, 4, seed=3)
        preconditioner = JacobiPreconditioner(spd_matrix)
        results = block_cg(spd_matrix, block, preconditioner=preconditioner,
                           rtol=1e-10)
        assert all(result.converged for result in results)
        for j, result in enumerate(results):
            residual = np.linalg.norm(
                spd_matrix @ result.solution - block[:, j])
            assert residual <= 10 * 1e-10 * np.linalg.norm(block[:, j])


class TestBlockGMRES:
    def test_converges_and_matches_loop_to_tolerance(self, nonsym_matrix):
        block = _block(nonsym_matrix, 5, seed=1)
        results = block_gmres(nonsym_matrix, block, rtol=1e-10)
        assert all(result.converged for result in results)
        for j, result in enumerate(results):
            single = solve(nonsym_matrix, block[:, j], solver="gmres",
                           rtol=1e-10)
            np.testing.assert_allclose(result.solution, single.solution,
                                       atol=1e-6)

    def test_restart_cycles_still_converge(self, nonsym_matrix):
        block = _block(nonsym_matrix, 3, seed=2)
        results = block_gmres(nonsym_matrix, block, rtol=1e-8, restart=4,
                              maxiter=2000)
        assert all(result.converged for result in results)
        for j, result in enumerate(results):
            residual = np.linalg.norm(
                nonsym_matrix @ result.solution - block[:, j])
            assert residual <= 1e-5 * np.linalg.norm(block[:, j])

    def test_per_column_iterations_bounded_by_maxiter(self, nonsym_matrix):
        block = _block(nonsym_matrix, 3, seed=5)
        results = block_gmres(nonsym_matrix, block, rtol=1e-14, maxiter=7)
        assert all(result.iterations <= 7 for result in results)


class TestDegenerateBlockShapes:
    def test_k1_block_takes_the_loop_path_bitwise(self, spd_matrix):
        """A one-column block must match a standalone solve exactly."""
        rhs = _block(spd_matrix, 1)
        for solver in BLOCK_SOLVERS:
            results = solve_many(spd_matrix, rhs, solver=solver,
                                 mode="block", rtol=1e-10)
            single = solve(spd_matrix, rhs[:, 0], solver=solver, rtol=1e-10)
            assert len(results) == 1
            assert results[0].block_info is None
            assert results[0].iterations == single.iterations
            assert np.array_equal(results[0].solution, single.solution)

    def test_duplicated_columns_deflate_without_nan(self, spd_matrix):
        rhs = _block(spd_matrix, 2)
        block = np.column_stack([rhs[:, 0], rhs[:, 0], rhs[:, 1], rhs[:, 0]])
        for implementation in (block_cg, block_gmres):
            results = implementation(spd_matrix, block, rtol=1e-10)
            assert all(np.isfinite(result.solution).all()
                       for result in results)
            assert all(result.converged for result in results)
            # duplicated columns converge to the same answer
            np.testing.assert_allclose(results[0].solution,
                                       results[1].solution, atol=1e-8)
            np.testing.assert_allclose(results[0].solution,
                                       results[3].solution, atol=1e-8)

    def test_zero_column_solved_exactly_with_no_work(self, spd_matrix):
        n = spd_matrix.shape[0]
        block = np.column_stack([np.zeros(n), _block(spd_matrix, 1)[:, 0]])
        for implementation in (block_cg, block_gmres):
            results = implementation(spd_matrix, block, rtol=1e-10)
            assert results[0].converged and results[0].iterations == 0
            np.testing.assert_allclose(results[0].solution, 0.0)
            assert results[0].final_residual == 0.0
            assert results[1].converged

    def test_wider_than_n_block(self):
        matrix = laplacian_2d(4)  # n = 9
        n = matrix.shape[0]
        block = _block(matrix, n + 5, seed=7)
        for implementation in (block_cg, block_gmres):
            results = implementation(matrix, block, rtol=1e-10)
            assert len(results) == n + 5
            assert all(result.converged for result in results)
            for j, result in enumerate(results):
                residual = np.linalg.norm(
                    matrix @ result.solution - block[:, j])
                assert residual <= 1e-7 * np.linalg.norm(block[:, j])
        summary = block_summary(results)
        assert summary is not None and summary.k == n + 5

    def test_mixed_converged_and_unconverged_columns_stay_honest(
            self, spd_matrix):
        """An easy column must report convergence (and its own residual)
        even when a hard column exhausts the iteration budget."""
        # an eigenvector rhs is solved by a single (block) CG iteration
        _, vectors = np.linalg.eigh(spd_matrix.toarray())
        easy = vectors[:, 0]
        hard = _block(spd_matrix, 1)[:, 0]
        block = np.column_stack([easy, hard])
        results = block_cg(spd_matrix, block, rtol=1e-10, maxiter=3)
        assert results[0].converged
        assert not results[1].converged
        assert results[0].iterations <= results[1].iterations == 3
        assert results[0].final_residual <= \
            10 * 1e-10 * np.linalg.norm(easy)
        assert results[1].final_residual > 1e-10 * np.linalg.norm(hard)
        # the easy column was deflated while the hard one kept iterating
        assert results[0].block_info.deflated_columns >= 1


class TestSolveManyModes:
    def test_loop_is_the_default(self, spd_matrix):
        results = solve_many(spd_matrix, _block(spd_matrix, 3), solver="cg")
        assert all(result.block_info is None for result in results)

    def test_auto_uses_block_for_supported_solvers(self, spd_matrix):
        block = _block(spd_matrix, 4)
        for solver in BLOCK_SOLVERS:
            results = solve_many(spd_matrix, block, solver=solver,
                                 mode="auto")
            assert results[0].block_info is not None, solver

    def test_auto_falls_back_to_loop_for_bicgstab(self, nonsym_matrix):
        results = solve_many(nonsym_matrix, _block(nonsym_matrix, 3, seed=2),
                             solver="bicgstab", mode="auto")
        assert all(result.block_info is None for result in results)
        assert all(result.converged for result in results)

    def test_block_mode_rejects_unsupported_solver(self, nonsym_matrix):
        with pytest.raises(ParameterError):
            solve_many(nonsym_matrix, _block(nonsym_matrix, 2),
                       solver="bicgstab", mode="block")

    def test_unknown_mode_rejected(self, spd_matrix):
        with pytest.raises(ParameterError):
            solve_many(spd_matrix, _block(spd_matrix, 2), mode="vectorised")

    def test_auto_breakdown_falls_back_to_loop(self):
        """A preconditioner that annihilates the residual block forces a
        block-CG breakdown; auto mode must silently serve the loop path."""
        matrix = laplacian_2d(5)
        n = matrix.shape[0]
        block = _block(matrix, 2, seed=9)

        calls = {"count": 0}

        def preconditioner(residual):
            calls["count"] += 1
            if calls["count"] <= 2:
                return residual.copy()
            return np.zeros_like(residual)

        results = solve_many(matrix, block, solver="cg", mode="auto",
                             preconditioner=preconditioner, rtol=1e-12,
                             maxiter=50)
        # fallback results are loop results (no block info) for all columns
        assert len(results) == 2
        assert all(result.block_info is None for result in results)
        # ... and the abandoned block attempt's matvecs are still charged,
        # so the batch's total stays an honest count of A-applications
        calls["count"] = 0
        pure_loop = solve_many(matrix, block, solver="cg", mode="loop",
                               preconditioner=preconditioner, rtol=1e-12,
                               maxiter=50)
        assert total_matvecs(results) > total_matvecs(pure_loop)

    def test_block_mode_keeps_breakdown_visible(self):
        """Explicit block mode surfaces the breakdown instead of retrying."""
        matrix = laplacian_2d(5)
        block = _block(matrix, 2, seed=9)

        def preconditioner(residual):
            return np.zeros_like(residual)

        results = solve_many(matrix, block, solver="cg", mode="block",
                             preconditioner=preconditioner, rtol=1e-12,
                             maxiter=50)
        assert results[0].block_info is not None
        assert results[0].block_info.breakdown
        assert all(result.termination == "breakdown" for result in results)


class TestTypedValidation:
    """Direct `solve_many` callers get ParameterError, never a numpy crash."""

    def test_empty_array_block(self, spd_matrix):
        with pytest.raises(ParameterError):
            solve_many(spd_matrix, np.empty((spd_matrix.shape[0], 0)))

    def test_empty_sequence_block(self, spd_matrix):
        with pytest.raises(ParameterError):
            solve_many(spd_matrix, [])

    def test_ragged_sequence_block(self, spd_matrix):
        n = spd_matrix.shape[0]
        with pytest.raises(ParameterError):
            solve_many(spd_matrix, [np.ones(n), np.ones(n - 1)])

    def test_three_dimensional_array_block(self, spd_matrix):
        n = spd_matrix.shape[0]
        with pytest.raises(ParameterError):
            solve_many(spd_matrix, np.ones((n, 2, 2)))

    def test_non_numeric_block(self, spd_matrix):
        with pytest.raises(ParameterError):
            solve_many(spd_matrix, [object()])

    def test_block_functions_reject_empty_blocks(self, spd_matrix):
        for implementation in (block_cg, block_gmres):
            with pytest.raises(ParameterError):
                implementation(spd_matrix,
                               np.empty((spd_matrix.shape[0], 0)))
