"""Tests for the Krylov solvers (GMRES, BiCGStab, CG) and the dispatcher."""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from repro.exceptions import MatrixFormatError, ParameterError
from repro.krylov import KNOWN_SOLVERS, bicgstab, cg, gmres, solve
from repro.matrices import laplacian_2d
from repro.precond import JacobiPreconditioner, NeumannPreconditioner


@pytest.fixture(scope="module")
def spd_system():
    matrix = laplacian_2d(10)
    rng = np.random.default_rng(0)
    solution = rng.standard_normal(matrix.shape[0])
    return matrix, matrix @ solution, solution


@pytest.fixture(scope="module")
def nonsym_system():
    from repro.matrices import pdd_real_sparse

    matrix = pdd_real_sparse(60, density=0.15, dominance=2.0, seed=4)
    rng = np.random.default_rng(1)
    solution = rng.standard_normal(matrix.shape[0])
    return matrix, matrix @ solution, solution


class TestGMRES:
    def test_solves_spd_system(self, spd_system):
        matrix, rhs, solution = spd_system
        result = gmres(matrix, rhs, rtol=1e-10)
        assert result.converged
        np.testing.assert_allclose(result.solution, solution, atol=1e-6)

    def test_solves_nonsymmetric_system(self, nonsym_system):
        matrix, rhs, solution = nonsym_system
        result = gmres(matrix, rhs, rtol=1e-10)
        assert result.converged
        np.testing.assert_allclose(result.solution, solution, atol=1e-6)

    def test_restart_still_converges(self, spd_system):
        matrix, rhs, solution = spd_system
        result = gmres(matrix, rhs, restart=10, rtol=1e-8, maxiter=2000)
        assert result.converged
        np.testing.assert_allclose(result.solution, solution, atol=1e-4)

    def test_zero_rhs(self, spd_system):
        matrix, _, _ = spd_system
        result = gmres(matrix, np.zeros(matrix.shape[0]))
        assert result.converged and result.iterations == 0
        np.testing.assert_allclose(result.solution, 0.0)

    def test_initial_guess_exact(self, spd_system):
        matrix, rhs, solution = spd_system
        result = gmres(matrix, rhs, x0=solution)
        assert result.converged and result.iterations == 0

    def test_maxiter_respected(self, spd_system):
        matrix, rhs, _ = spd_system
        result = gmres(matrix, rhs, maxiter=3, rtol=1e-14)
        assert result.iterations <= 3
        assert not result.converged

    def test_residual_history_monotone_head(self, spd_system):
        matrix, rhs, _ = spd_system
        result = gmres(matrix, rhs, rtol=1e-10)
        history = np.array(result.residual_norms)
        # Within a restart cycle the GMRES residual is non-increasing.
        assert np.all(np.diff(history[: min(20, history.size)]) <= 1e-9)

    def test_preconditioning_reduces_iterations(self, spd_system):
        matrix, rhs, _ = spd_system
        plain = gmres(matrix, rhs, rtol=1e-8)
        preconditioner = NeumannPreconditioner(matrix, terms=8, alpha=0.0)
        preconditioned = gmres(matrix, rhs, preconditioner=preconditioner, rtol=1e-8)
        assert preconditioned.converged
        assert preconditioned.iterations < plain.iterations

    def test_lucky_breakdown_without_convergence_not_reported_converged(self):
        """A declared lucky breakdown must not override the residual check.

        ``A = I + 1e-6 N`` with a huge right-hand side makes the relative
        breakdown threshold (``1e-14 * residual_norm``) loose enough to fire
        on the first Arnoldi step, while the recomputed true preconditioned
        residual is still orders of magnitude above the tolerance.  The
        historical code set ``converged = True`` in that state.
        """
        n = 4
        nilpotent = sp.csr_matrix(np.eye(n, k=1))
        matrix = sp.identity(n, format="csr") + 1e-6 * nilpotent
        rhs = 1e10 * np.ones(n)
        result = gmres(matrix, rhs, rtol=1e-10, maxiter=1)
        assert result.iterations == 1
        assert not result.converged
        true_residual = np.linalg.norm(rhs - matrix @ result.solution)
        assert true_residual > 1e-10 * np.linalg.norm(rhs)

    @pytest.mark.parametrize("restart", [0, -3, 2.7])
    def test_invalid_restart_rejected(self, spd_system, restart):
        """``restart`` is not clamped into range: 0 and -3 used to run
        GMRES(1) and 2.7 GMRES(2)."""
        matrix, rhs, _ = spd_system
        with pytest.raises(ParameterError, match="restart"):
            gmres(matrix, rhs, restart=restart)

    def test_restart_beyond_dimension_is_full_gmres(self, spd_system):
        matrix, rhs, _ = spd_system
        n = matrix.shape[0]
        full = gmres(matrix, rhs, rtol=1e-10, restart=n)
        longer = gmres(matrix, rhs, rtol=1e-10, restart=10 * n)
        assert longer.iterations == full.iterations
        assert np.array_equal(longer.solution, full.solution)

    def test_lucky_breakdown_with_convergence_still_converges(self):
        """On ``A = I`` the first Arnoldi step breaks down *and* solves."""
        matrix = sp.identity(5, format="csr")
        rhs = np.arange(1.0, 6.0)
        result = gmres(matrix, rhs, rtol=1e-10)
        assert result.converged
        assert result.iterations == 1
        np.testing.assert_allclose(result.solution, rhs, atol=1e-12)


class TestBiCGStab:
    def test_solves_nonsymmetric_system(self, nonsym_system):
        matrix, rhs, solution = nonsym_system
        result = bicgstab(matrix, rhs, rtol=1e-10)
        assert result.converged
        np.testing.assert_allclose(result.solution, solution, atol=1e-5)

    def test_preconditioned_converges_faster_or_equal(self, spd_system):
        matrix, rhs, _ = spd_system
        plain = bicgstab(matrix, rhs, rtol=1e-8)
        preconditioned = bicgstab(matrix, rhs, rtol=1e-8,
                                  preconditioner=NeumannPreconditioner(matrix, terms=8))
        assert preconditioned.converged
        assert preconditioned.iterations <= plain.iterations

    def test_zero_rhs(self, nonsym_system):
        matrix, _, _ = nonsym_system
        result = bicgstab(matrix, np.zeros(matrix.shape[0]))
        assert result.converged and result.iterations == 0

    def test_describe(self, nonsym_system):
        matrix, rhs, _ = nonsym_system
        assert "bicgstab" in bicgstab(matrix, rhs).describe()


class TestCG:
    def test_solves_spd_system(self, spd_system):
        matrix, rhs, solution = spd_system
        result = cg(matrix, rhs, rtol=1e-10)
        assert result.converged
        np.testing.assert_allclose(result.solution, solution, atol=1e-6)

    def test_jacobi_preconditioning(self, spd_system):
        matrix, rhs, solution = spd_system
        result = cg(matrix, rhs, preconditioner=JacobiPreconditioner(matrix),
                    rtol=1e-10)
        assert result.converged
        np.testing.assert_allclose(result.solution, solution, atol=1e-6)

    def test_iteration_count_bounded_by_dimension(self, spd_system):
        matrix, rhs, _ = spd_system
        result = cg(matrix, rhs, rtol=1e-10)
        assert result.iterations <= matrix.shape[0]

    def test_breakdown_on_vanishing_m_inner_product(self):
        """A preconditioner making ``(r, M r) = 0`` must trigger a breakdown.

        The preconditioner returns the residual on the first application and a
        vector orthogonal to the residual afterwards, so ``rz_new == 0`` on
        the first iteration while the residual is still far from converged.
        The historical check tested the *old* ``rz`` (never zero there) and
        would run a useless extra iteration with ``beta = 0``.
        """
        matrix = sp.csr_matrix(np.diag([1.0, 3.0]))
        rhs = np.array([1.0, 1.0])
        calls = {"count": 0}

        def preconditioner(residual):
            calls["count"] += 1
            if calls["count"] == 1:
                return residual.copy()
            return np.array([-residual[1], residual[0]])

        result = cg(matrix, rhs, preconditioner=preconditioner, rtol=1e-12)
        assert result.termination == "breakdown"
        assert not result.converged
        # The breakdown must be detected immediately, on the first iteration.
        assert result.iterations == 1
        assert result.final_residual > 1e-12 * np.linalg.norm(rhs)

    def test_breakdown_on_vanishing_initial_m_inner_product(self):
        """``(r0, M r0) == 0`` must report a breakdown, not divide by zero.

        Here the *first* preconditioner application is orthogonal to the
        residual (``rz == 0`` before the loop) and later ones are not, so
        ``beta = rz_new / rz`` would divide by zero without the guard on the
        old ``rz``.
        """
        matrix = sp.csr_matrix(np.diag([1.0, 3.0]))
        rhs = np.array([1.0, 1.0])
        calls = {"count": 0}

        def preconditioner(residual):
            calls["count"] += 1
            if calls["count"] == 1:
                return np.array([-residual[1], residual[0]])
            return residual.copy()

        result = cg(matrix, rhs, preconditioner=preconditioner, rtol=1e-12)
        assert result.termination == "breakdown"
        assert not result.converged


class TestDispatcher:
    def test_known_solvers(self):
        assert set(KNOWN_SOLVERS) == {"gmres", "bicgstab", "cg"}

    @pytest.mark.parametrize("solver", ["gmres", "bicgstab", "cg"])
    def test_solve_dispatch(self, spd_system, solver):
        matrix, rhs, solution = spd_system
        result = solve(matrix, rhs, solver=solver, rtol=1e-10)
        assert result.solver == solver
        np.testing.assert_allclose(result.solution, solution, atol=1e-5)

    def test_solve_unknown_solver(self, spd_system):
        matrix, rhs, _ = spd_system
        with pytest.raises(ParameterError):
            solve(matrix, rhs, solver="minres")

    def test_input_validation(self, spd_system):
        matrix, rhs, _ = spd_system
        with pytest.raises(MatrixFormatError):
            solve(matrix, rhs[:-1], solver="gmres")
        with pytest.raises(MatrixFormatError):
            solve(matrix, rhs, solver="gmres", x0=np.ones(3))
        with pytest.raises(ParameterError):
            solve(matrix, rhs, solver="gmres", rtol=2.0)
        with pytest.raises(ParameterError):
            solve(matrix, rhs, solver="gmres", maxiter=0)

    def test_matrix_preconditioner_passed_as_sparse(self, spd_system):
        matrix, rhs, solution = spd_system
        inverse_diag = sp.diags(1.0 / matrix.diagonal())
        result = solve(matrix, rhs, solver="gmres", preconditioner=inverse_diag,
                       rtol=1e-10)
        assert result.converged
        np.testing.assert_allclose(result.solution, solution, atol=1e-6)

    def test_callable_preconditioner(self, spd_system):
        matrix, rhs, _ = spd_system
        result = solve(matrix, rhs, solver="gmres",
                       preconditioner=lambda r: r / matrix.diagonal())
        assert result.converged

    def test_wrong_preconditioner_shape(self, spd_system):
        matrix, rhs, _ = spd_system
        with pytest.raises(MatrixFormatError):
            solve(matrix, rhs, solver="gmres", preconditioner=np.eye(3))


class TestSolveMany:
    """Multi-rhs batching must be arithmetically identical to single solves."""

    def test_columns_match_single_solves_bitwise(self, spd_system):
        from repro.krylov import solve_many

        matrix, rhs, _ = spd_system
        block = np.stack([rhs, 2.0 * rhs, rhs - 1.0], axis=1)
        preconditioner = JacobiPreconditioner(matrix)
        batched = solve_many(matrix, block, solver="cg",
                             preconditioner=preconditioner, rtol=1e-10)
        for column_index, result in enumerate(batched):
            single = solve(matrix, block[:, column_index], solver="cg",
                           preconditioner=preconditioner, rtol=1e-10)
            assert result.iterations == single.iterations
            assert np.array_equal(result.solution, single.solution)

    def test_accepts_sequence_of_vectors(self, spd_system):
        from repro.krylov import solve_many

        matrix, rhs, _ = spd_system
        results = solve_many(matrix, [rhs, rhs], solver="gmres")
        assert len(results) == 2
        assert np.array_equal(results[0].solution, results[1].solution)

    def test_empty_block_rejected(self, spd_system):
        from repro.krylov import solve_many

        matrix, rhs, _ = spd_system
        with pytest.raises(ParameterError):
            solve_many(matrix, np.empty((rhs.size, 0)))

    def test_mismatched_column_lengths_rejected(self, spd_system):
        from repro.krylov import solve_many

        matrix, rhs, _ = spd_system
        with pytest.raises(ParameterError):
            solve_many(matrix, [rhs, rhs[:-1]])

    @pytest.mark.parametrize("block", ["empty sequence", "3-D", "non-numeric"])
    def test_malformed_blocks_rejected(self, spd_system, block):
        from repro.krylov import solve_many

        matrix, rhs, _ = spd_system
        malformed = {"empty sequence": [],
                     "3-D": np.ones((rhs.size, 2, 2)),
                     "non-numeric": [object()]}[block]
        with pytest.raises(ParameterError):
            solve_many(matrix, malformed)

    def test_unknown_solver_is_a_parameter_error(self, spd_system):
        from repro.krylov import solve_many

        matrix, rhs, _ = spd_system
        for solver in (None, "minres"):
            with pytest.raises(ParameterError):
                solve(matrix, rhs, solver=solver)
            with pytest.raises(ParameterError):
                solve_many(matrix, [rhs, rhs], solver=solver)

    @pytest.mark.parametrize("solver", sorted(KNOWN_SOLVERS))
    def test_single_vector_is_a_one_column_block(self, spd_system, solver):
        from repro.krylov import solve_many

        matrix, rhs, _ = spd_system
        (batched,) = solve_many(matrix, rhs, solver=solver, rtol=1e-10)
        single = solve(matrix, rhs, solver=solver, rtol=1e-10)
        assert (batched.iterations, batched.matvecs, batched.termination) == (
            single.iterations, single.matvecs, single.termination)
        assert np.array_equal(batched.solution, single.solution)

    @pytest.mark.parametrize("solver", sorted(KNOWN_SOLVERS))
    def test_block_wider_than_n_answers_every_column(self, solver):
        """More right-hand sides than unknowns: every column is still its
        own solve (the columns are necessarily linearly dependent)."""
        from repro.krylov import solve_many

        matrix = laplacian_2d(4)
        n = matrix.shape[0]
        block = np.random.default_rng(7).standard_normal((n, n + 3))
        batched = solve_many(matrix, block, solver=solver, rtol=1e-10)
        assert len(batched) == n + 3
        for column_index, result in enumerate(batched):
            single = solve(matrix, block[:, column_index], solver=solver,
                           rtol=1e-10)
            assert result.converged
            assert result.matvecs == single.matvecs
            assert np.array_equal(result.solution, single.solution)

    @pytest.mark.parametrize("mode", ["block", "auto", "vectorised"])
    def test_the_loop_is_the_only_mode(self, spd_system, mode):
        from repro.krylov import solve_many

        matrix, rhs, _ = spd_system
        with pytest.raises(ParameterError):
            solve_many(matrix, [rhs, rhs], mode=mode)


# -- GMRES uninitialised storage ------------------------------------------------
GMRES_GOLDEN_PATH = Path(__file__).parent / "data" / "gmres_golden.json"


def _gmres_storage_cases() -> dict[str, dict]:
    """Solves that reach deep into the Arnoldi storage: full-GMRES cycles of
    64 and 100 steps, a 40-step cycle under ``restart=50``, and nine cycles
    of ``restart=10`` (each cycle allocates afresh, typically over the
    previous cycle's memory)."""
    from repro.matrices import unsteady_advection_diffusion

    cases = {
        "full_64_steps": (unsteady_advection_diffusion(8, order=1, seed=3), 64),
        "full_100_steps": (unsteady_advection_diffusion(10, order=2, seed=3), 100),
        "restart_50": (laplacian_2d(12), 50),
        "restart_10": (laplacian_2d(12), 10),
    }
    results = {}
    for label, (matrix, restart) in cases.items():
        rhs = np.random.default_rng(0).standard_normal(matrix.shape[0])
        result = gmres(matrix, rhs, rtol=1e-10, restart=restart, maxiter=2000)
        results[label] = {"iterations": result.iterations,
                          "converged": result.converged,
                          "matvecs": result.matvecs,
                          "solution": result.solution.tolist(),
                          "residual_norms": list(result.residual_norms)}
    return results


class _PoisonedNumpy:
    """numpy, except that uninitialised memory reads as NaN."""

    def __getattr__(self, name):
        return getattr(np, name)

    @staticmethod
    def empty(shape, dtype=float):
        return np.full(shape, np.nan, dtype=dtype)


#: The declared tolerances of the frozen GMRES results.  They were frozen
#: under modified Gram--Schmidt; GMRES now orthogonalises with CGS2, which is
#: orthogonal to working precision too but rounds differently.  Measured on
#: the four cases: solutions agree to 7.8e-12 relative (full_64_steps) and
#: whole residual histories to 2.7e-11 of their first entry (full_100_steps).
SOLUTION_RTOL = 1e-10
HISTORY_RTOL = 1e-9
#: The one case whose step count CGS2 changes, pinned exactly.
#: full_100_steps asks rtol 1e-10 of a matrix with condition number 7.9e6,
#: below what rounding allows: after the 100-step cycle exhausts the space
#: the true residual is 5.7e-11 under MGS and 1.05e-10 under CGS2, so CGS2
#: restarts for exactly one more step (101 steps), which costs two more
#: products with ``A`` (the step and the restart's residual).  Its history
#: gains that step's entry, which must match the frozen final estimate.
EXTRA_STEPS = {"full_100_steps": 1}


class TestGMRESUninitialisedStorage:
    """The basis and the Hessenberg are allocated without zero-filling, so
    every entry must be written before it is read.  Results are compared
    with ones frozen at the last commit that zero-filled both (4b55391;
    regenerate by running this file as a script *there*) — as allocated,
    and with the "uninitialised" memory poisoned with NaN, which any read of
    an unwritten entry would carry into the result.

    The comparison is a tolerance fixture, not a bitwise one: step counts
    and convergence are exact (``full_100_steps`` pinned at its one extra
    step, see ``EXTRA_STEPS``), solutions and whole residual histories agree
    to the tolerances declared above.  A NaN read from
    poisoned storage fails all of them."""

    @pytest.mark.parametrize("poisoned", [False, True])
    def test_results_equal_the_zero_filling_implementation(self, poisoned,
                                                           monkeypatch):
        if poisoned:
            # (`repro.krylov.gmres` the attribute is the function)
            monkeypatch.setattr(sys.modules["repro.krylov.gmres"], "np",
                                _PoisonedNumpy())
        frozen = json.loads(GMRES_GOLDEN_PATH.read_text())
        results = _gmres_storage_cases()
        assert set(results) == set(frozen)
        for label, case in results.items():
            expected = frozen[label]
            extra = EXTRA_STEPS.get(label, 0)
            assert case["converged"] == expected["converged"], label
            assert case["iterations"] == expected["iterations"] + extra, label
            assert case["matvecs"] == expected["matvecs"] + 2 * extra, label
            solution = np.asarray(case["solution"])
            reference = np.asarray(expected["solution"])
            assert np.all(np.isfinite(solution)), label
            assert (np.linalg.norm(solution - reference)
                    <= SOLUTION_RTOL * np.linalg.norm(reference)), label
            history = np.asarray(case["residual_norms"])
            reference = np.asarray(expected["residual_norms"])
            reference = np.append(reference, [reference[-1]] * extra)
            np.testing.assert_allclose(history, reference, rtol=0,
                                       atol=HISTORY_RTOL * reference[0],
                                       err_msg=label)

if __name__ == "__main__":
    GMRES_GOLDEN_PATH.write_text(json.dumps(_gmres_storage_cases()) + "\n")
    print(f"wrote {GMRES_GOLDEN_PATH}")
