"""The one exit of the Krylov solvers: ``SolveRun.finish``.

Every solver returns through it, so the facts it owns — the true residual,
the termination reason, the resolved budget behind ``measured_iterations``
and the matvec count including its own product — are tested here once, next
to a fixture showing that routing the solvers through it changed no number
they produce.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from repro.krylov import (bicgstab, block_cg, block_gmres, cg, gmres, solve,
                          solve_many)
from repro.matrices import laplacian_2d, unsteady_advection_diffusion
from repro.precond import (ILU0Preconditioner, IncompleteCholeskyPreconditioner,
                           JacobiPreconditioner)

EXIT_GOLDEN_PATH = Path(__file__).parent / "data" / "krylov_exit_golden.json"

#: Products the exit adds to each golden case's ``matvecs``: one per CG /
#: BiCGStab solve that iterated (their recurrence residual is not ``b - A x``),
#: one block product — a matvec per column — for block CG, none where the
#: solver already holds ``b - A x`` (early exits, block GMRES).
EXIT_PRODUCTS = {
    "cg_plain": 1, "cg_ic0": 1, "cg_maxiter": 1,
    "cg_exact_guess": 0, "cg_zero_rhs": 0,
    "bicgstab_plain": 1, "bicgstab_ilu0": 1, "bicgstab_maxiter": 1,
    "block_cg": 4, "block_cg_jacobi": 4,
    "block_gmres": 0, "block_gmres_jacobi": 0,
}


def _exit_cases() -> dict[str, dict]:
    """CG, BiCGStab and both block solvers over their exits (converged,
    budget exhausted, exact initial guess, zero right-hand side, a block
    with a duplicated and a zero column).  Uses only what the solvers
    offered before ``SolveRun`` existed, so it runs unchanged there."""
    spd = laplacian_2d(7)
    general = unsteady_advection_diffusion(6, order=1, seed=3)
    rng = np.random.default_rng(0)
    n = spd.shape[0]
    b, c, guess = (rng.standard_normal(n) for _ in range(3))
    block = np.column_stack([b, c, b, np.zeros(n)])
    results = {
        "cg_plain": cg(spd, b, rtol=1e-10),
        "cg_ic0": cg(spd, b, rtol=1e-10,
                     preconditioner=IncompleteCholeskyPreconditioner(spd)),
        "cg_maxiter": cg(spd, b, rtol=1e-12, maxiter=3),
        "cg_exact_guess": cg(spd, spd @ guess, x0=guess),
        "cg_zero_rhs": cg(spd, np.zeros(n), x0=guess),
        "bicgstab_plain": bicgstab(general, c, rtol=1e-10),
        "bicgstab_ilu0": bicgstab(general, c, rtol=1e-10,
                                  preconditioner=ILU0Preconditioner(general)),
        "bicgstab_maxiter": bicgstab(general, c, rtol=1e-12, maxiter=2),
        "block_cg": block_cg(spd, block, rtol=1e-10),
        "block_cg_jacobi": block_cg(spd, block, rtol=1e-10,
                                    preconditioner=JacobiPreconditioner(spd)),
        "block_gmres": block_gmres(general, block, rtol=1e-10, restart=5),
        "block_gmres_jacobi": block_gmres(
            general, block, rtol=1e-10,
            preconditioner=JacobiPreconditioner(general)),
    }
    cases = {}
    for label, outcome in results.items():
        columns = outcome if isinstance(outcome, list) else [outcome]
        cases[label] = {
            "solution": [column.solution.tolist() for column in columns],
            "iterations": [column.iterations for column in columns],
            "converged": [column.converged for column in columns],
            "residual_norms": [list(column.residual_norms)
                               for column in columns],
            "matvecs": (outcome.matvecs if columns[0].block_info is None
                        else columns[0].block_info.matvecs),
        }
    return cases


def test_the_exit_changes_no_number_the_solvers_produce():
    """Frozen at c595ef1, the last commit whose solvers built their own
    results (regenerate by running this file as a script *there*): answers,
    counts and histories are equal to the bit, and ``matvecs`` moves by
    exactly the exit's counted products."""
    frozen = json.loads(EXIT_GOLDEN_PATH.read_text())
    cases = _exit_cases()
    assert set(cases) == set(frozen) == set(EXIT_PRODUCTS)
    for label, case in cases.items():
        for field in ("solution", "iterations", "converged"):
            assert np.array_equal(case[field], frozen[label][field]), \
                f"{label}.{field}"
        # (ragged across block columns, so compared column by column)
        assert len(case["residual_norms"]) == len(frozen[label]["residual_norms"])
        for ours, theirs in zip(case["residual_norms"],
                                frozen[label]["residual_norms"]):
            assert np.array_equal(ours, theirs), f"{label}.residual_norms"
        assert case["matvecs"] == (frozen[label]["matvecs"]
                                   + EXIT_PRODUCTS[label]), f"{label}.matvecs"


# -- the four reasons ---------------------------------------------------------
SINGLE_SOLVERS = {"cg": cg, "bicgstab": bicgstab, "gmres": gmres}


@pytest.fixture(scope="module")
def spd_system():
    matrix = laplacian_2d(8)
    return matrix, np.random.default_rng(0).standard_normal(matrix.shape[0])


@pytest.mark.parametrize("solver", sorted(SINGLE_SOLVERS))
class TestTermination:
    def test_converged(self, spd_system, solver):
        matrix, rhs = spd_system
        result = SINGLE_SOLVERS[solver](matrix, rhs)
        assert result.converged and result.termination == "converged"
        assert result.measured_iterations == result.iterations
        assert result.termination in result.describe()

    def test_maxiter(self, spd_system, solver):
        matrix, rhs = spd_system
        result = SINGLE_SOLVERS[solver](matrix, rhs, rtol=1e-14, maxiter=2)
        assert not result.converged and result.termination == "maxiter"
        assert result.maxiter == 2
        # The paper's measurement saturates at the budget.
        assert result.iterations == result.measured_iterations == 2

    def test_non_finite(self, spd_system, solver):
        """A preconditioner returning NaN: the recurrences never see a
        comparison succeed, so the budget runs out — the exit names why."""
        matrix, rhs = spd_system
        result = SINGLE_SOLVERS[solver](
            matrix, rhs, maxiter=5, preconditioner=lambda v: v * np.nan)
        assert not result.converged and result.termination == "non_finite"
        assert np.isnan(result.true_residual)
        assert result.measured_iterations == 5

    def test_default_budget_is_recorded(self, spd_system, solver):
        matrix, rhs = spd_system
        n = matrix.shape[0]
        assert SINGLE_SOLVERS[solver](matrix, rhs).maxiter == 10 * n


def test_breakdown_is_a_reason():
    """BiCGStab's ``rho == 0``: a shadow residual orthogonal to the next one."""
    matrix = sp.csr_matrix(np.array([[0.0, 1.0], [-1.0, 0.0]]))
    result = bicgstab(matrix, np.array([1.0, 0.0]))
    assert not result.converged and result.termination == "breakdown"
    assert result.true_residual == pytest.approx(1.0)
    assert result.measured_iterations == result.maxiter


def test_measured_iterations_is_at_least_one(spd_system):
    matrix, rhs = spd_system
    exact = cg(matrix, rhs).solution
    result = cg(matrix, matrix @ exact, x0=exact)
    assert result.converged and result.iterations == 0
    assert result.measured_iterations == 1


class TestVanishingPreconditionedRhs:
    """``M b = 0`` used to be answered ``converged=True, x = 0`` whatever
    ``b`` was; only ``b = 0`` makes that answer right."""

    @staticmethod
    def annihilate(vector):
        return 0.0 * vector

    def test_gmres_reports_breakdown(self, spd_system):
        matrix, rhs = spd_system
        result = gmres(matrix, rhs, preconditioner=self.annihilate)
        assert not result.converged and result.termination == "breakdown"
        assert result.iterations == 0 and result.matvecs == 0
        assert not result.solution.any()
        assert result.true_residual == 1.0

    def test_gmres_zero_rhs_still_converged(self, spd_system):
        matrix, rhs = spd_system
        result = gmres(matrix, np.zeros_like(rhs),
                       preconditioner=self.annihilate)
        assert result.converged and result.termination == "converged"
        assert result.true_residual == 0.0

    def test_block_gmres_reports_breakdown_per_column(self, spd_system):
        matrix, rhs = spd_system
        block = np.column_stack([rhs, np.zeros_like(rhs), 2.0 * rhs])
        results = block_gmres(matrix, block, preconditioner=self.annihilate)
        assert [result.termination for result in results] == [
            "breakdown", "converged", "breakdown"]
        assert [result.converged for result in results] == [False, True, False]
        assert [result.true_residual for result in results] == [1.0, 0.0, 1.0]
        assert all(result.iterations == 0 for result in results)
        assert results[0].block_info.breakdown

    def test_auto_mode_does_not_hide_it_behind_the_fallback(self, spd_system):
        matrix, rhs = spd_system
        results = solve_many(matrix, [rhs, rhs], solver="gmres", mode="auto",
                             preconditioner=self.annihilate)
        assert all(result.termination == "breakdown" for result in results)


# -- the exit's own product -----------------------------------------------------
@pytest.mark.parametrize("solver", ["cg", "bicgstab"])
def test_exit_product_is_counted_and_timed(spd_system, solver):
    """The true-residual product is a real application of ``A``: it shows in
    ``matvecs`` and in the ``matvec`` phase, like any other."""
    from repro.obs.phases import record_phases

    matrix, rhs = spd_system
    applications = {"count": 0}

    class Counting(sp.csr_matrix):
        def __matmul__(self, other):
            applications["count"] += 1
            return super().__matmul__(other)

    with record_phases() as recorder:
        result = solve(Counting(matrix), rhs, solver=solver)
    assert result.matvecs == applications["count"] == recorder.calls["matvec"]


def test_block_columns_share_one_accounting(spd_system):
    matrix, rhs = spd_system
    results = block_cg(matrix, np.column_stack([rhs, 2.0 * rhs, rhs + 1.0]))
    assert all(result.matvecs is None for result in results)
    assert all(result.block_info is results[0].block_info for result in results)
    assert all(result.maxiter == 10 * matrix.shape[0] for result in results)


if __name__ == "__main__":
    EXIT_GOLDEN_PATH.write_text(json.dumps(_exit_cases()) + "\n")
    print(f"wrote {EXIT_GOLDEN_PATH}")
