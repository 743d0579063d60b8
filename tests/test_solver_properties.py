"""Property-based solver tests over randomly generated matrices.

Hypothesis-style, but with seeded numpy generators (no new dependency):
every case is a deterministic function of its seed, so failures reproduce
exactly.  The generators emit the three structural classes the solver stack
serves — random SPD, diagonally dominant, and unsymmetric sparse matrices —
and each drawn system is pushed through **every solver x every
preconditioner family**, asserting:

* the solver's convergence contract — when a solve reports ``converged``,
  its residual meets the requested ``rtol`` (true residual ``||Ax - b||``
  for CG/BiCGStab, preconditioned residual ``||M(b - Ax)||`` for GMRES,
  which is what those solvers' stopping rules promise);
* the determinism contract of the serving stack —
  ``solve_many(mode="loop")`` stays **bit-identical** to sequential
  :func:`~repro.krylov.solve` calls for every solver/preconditioner family;
* per-column accounting — each column of a batch (a zero column and
  ``maxiter``-cut columns among them) carries its own ``matvecs``,
  ``termination`` and ``true_residual``, field for field the single solve's;
* the exit contract — whatever the solver and however it stopped,
  ``true_residual`` is ``||b - A x|| / ||b||`` of the returned iterate and
  ``termination`` names the reason from the closed set; over 30 further
  draws per matrix kind the worst ``true_residual / rtol`` of a converged
  solve stays inside the table declared below.

Families whose construction legitimately rejects a matrix class (e.g.
IC(0) on an unsymmetric matrix) are skipped per case, mirroring the
serving policy's deterministic identity fallback.
"""

from __future__ import annotations

import dataclasses
import zlib

import numpy as np
import pytest
import scipy.sparse as sp

from repro.exceptions import PreconditionerError
from repro.krylov import KNOWN_SOLVERS, TERMINATIONS, solve, solve_many
from repro.mcmc.parameters import MCMCParameters
from repro.precond.factory import KNOWN_FAMILIES, make_preconditioner

RTOL = 1e-8
N = 28
MATRIX_KINDS = ("spd", "diag_dominant", "unsymmetric")

#: (solver, kind) pairs whose convergence is *guaranteed* by theory at this
#: scale (used to assert convergence outright, not just the conditional
#: residual property).
GUARANTEED = {
    ("cg", "spd"),
    ("gmres", "spd"),
    ("gmres", "diag_dominant"),
    ("gmres", "unsymmetric"),
    ("bicgstab", "diag_dominant"),
}


# -- seeded generators -------------------------------------------------------

def random_spd(seed: int, n: int = N) -> sp.csr_matrix:
    """Random sparse SPD matrix: ``B Bᵀ + n I`` over a sparse ``B``."""
    rng = np.random.default_rng(seed)
    base = sp.random(n, n, density=0.2, random_state=rng, format="csr")
    matrix = base @ base.T + n * sp.identity(n, format="csr")
    return sp.csr_matrix(matrix)


def random_diag_dominant(seed: int, n: int = N) -> sp.csr_matrix:
    """Random sparse matrix made strictly row-diagonally dominant."""
    rng = np.random.default_rng(seed)
    base = sp.random(n, n, density=0.25, random_state=rng, format="csr")
    base.data = rng.standard_normal(base.nnz)
    dense = base.toarray()
    np.fill_diagonal(dense, 0.0)
    row_mass = np.abs(dense).sum(axis=1)
    np.fill_diagonal(dense, row_mass * 1.5 + 1.0)
    return sp.csr_matrix(dense)


def random_unsymmetric(seed: int, n: int = N) -> sp.csr_matrix:
    """Random unsymmetric sparse matrix with a usable (shifted) diagonal."""
    rng = np.random.default_rng(seed)
    base = sp.random(n, n, density=0.25, random_state=rng, format="csr")
    base.data = rng.standard_normal(base.nnz)
    dense = base.toarray()
    # keep it far from singular without making it dominant or symmetric
    np.fill_diagonal(dense, dense.diagonal() + 4.0)
    return sp.csr_matrix(dense)


def _case_seed(*parts: str) -> int:
    """Deterministic per-case seed (``hash()`` is salted per process)."""
    return zlib.crc32("/".join(parts).encode("utf-8"))


GENERATORS = {
    "spd": random_spd,
    "diag_dominant": random_diag_dominant,
    "unsymmetric": random_unsymmetric,
}


def _build_preconditioner(family: str, matrix: sp.csr_matrix):
    """The family's preconditioner for this matrix, or a skip marker."""
    params = {}
    if family == "mcmc":
        params["parameters"] = MCMCParameters(alpha=2.0, eps=0.25, delta=0.25)
    try:
        return make_preconditioner(family, matrix, **params)
    except PreconditionerError as error:
        pytest.skip(f"{family} rejects this matrix class: {error}")


def _assert_convergence_contract(matrix, rhs, result, preconditioner,
                                 solver: str) -> None:
    """What ``converged=True`` promises, per solver stopping rule."""
    if not result.converged:
        return
    if solver == "gmres":
        from repro.krylov.base import as_preconditioner_function

        apply_m = as_preconditioner_function(preconditioner, matrix.shape[0])
        achieved = np.linalg.norm(apply_m(rhs - matrix @ result.solution))
        bound = RTOL * np.linalg.norm(apply_m(rhs))
    else:
        achieved = np.linalg.norm(rhs - matrix @ result.solution)
        bound = RTOL * np.linalg.norm(rhs)
    # small slack: the recursion's last recorded residual, not a fresh one
    assert achieved <= 50 * bound, (
        f"{solver} reported convergence at residual {achieved:.3e} "
        f"> bound {bound:.3e}")


def _assert_exit_contract(matrix, rhs, result) -> None:
    """What every result carries out of ``SolveRun.finish``."""
    recomputed = (np.linalg.norm(rhs - matrix @ result.solution)
                  / np.linalg.norm(rhs))
    assert result.true_residual == pytest.approx(recomputed, rel=1e-12)
    assert result.termination in TERMINATIONS
    assert (result.termination == "converged") == result.converged


@pytest.fixture(scope="module")
def drawn_systems():
    """One seeded (matrix, rhs) draw per matrix kind."""
    systems = {}
    for index, kind in enumerate(MATRIX_KINDS):
        matrix = GENERATORS[kind](seed=100 + index)
        rng = np.random.default_rng(200 + index)
        systems[kind] = (matrix, rng.standard_normal(matrix.shape[0]))
    return systems


@pytest.mark.parametrize("family", KNOWN_FAMILIES)
@pytest.mark.parametrize("solver", sorted(KNOWN_SOLVERS))
@pytest.mark.parametrize("kind", MATRIX_KINDS)
class TestSolverPreconditionerMatrix:
    """The full solver x preconditioner x matrix-class property sweep."""

    def test_residual_property_on_convergence(self, drawn_systems, kind,
                                              solver, family):
        matrix, rhs = drawn_systems[kind]
        preconditioner = _build_preconditioner(family, matrix)
        result = solve(matrix, rhs, solver=solver,
                       preconditioner=preconditioner, rtol=RTOL)
        _assert_convergence_contract(matrix, rhs, result, preconditioner,
                                     solver)
        _assert_exit_contract(matrix, rhs, result)
        if (solver, kind) in GUARANTEED and family in ("none", "jacobi"):
            assert result.converged, (
                f"{solver} must converge on {kind} with family {family}")

    def test_property_loop_bit_identical_to_sequential_solve(
            self, drawn_systems, kind, solver, family):
        """The serving determinism contract, per solver and family."""
        matrix, rhs = drawn_systems[kind]
        preconditioner = _build_preconditioner(family, matrix)
        rng = np.random.default_rng(_case_seed(kind, solver, family))
        block = np.column_stack([rhs, rng.standard_normal(rhs.size), 2 * rhs])
        batched = solve_many(matrix, block, solver=solver,
                             preconditioner=preconditioner, rtol=RTOL,
                             mode="loop")
        for j, result in enumerate(batched):
            single = solve(matrix, block[:, j], solver=solver,
                           preconditioner=preconditioner, rtol=RTOL)
            assert result.iterations == single.iterations
            assert result.converged == single.converged
            assert np.array_equal(result.solution, single.solution), (
                f"loop mode diverged from sequential solve for "
                f"{solver}/{family} on {kind} column {j}")

    def test_loop_columns_keep_their_own_accounting(
            self, drawn_systems, kind, solver, family):
        """Every column of a batch reports its own outcome, field for field
        the sequential solve's — ``matvecs``, ``termination``,
        ``true_residual`` and the residual history included — also when the
        batch mixes a zero column with columns cut short by ``maxiter``."""
        matrix, rhs = drawn_systems[kind]
        preconditioner = _build_preconditioner(family, matrix)
        rng = np.random.default_rng(_case_seed(kind, solver, family, "own"))
        block = np.column_stack(
            [rhs, np.zeros(rhs.size), rng.standard_normal(rhs.size)])
        for maxiter in (None, 2):
            batched = solve_many(matrix, block, solver=solver,
                                 preconditioner=preconditioner, rtol=RTOL,
                                 maxiter=maxiter)
            assert len(batched) == block.shape[1]
            for j, result in enumerate(batched):
                single = solve(matrix, block[:, j], solver=solver,
                               preconditioner=preconditioner, rtol=RTOL,
                               maxiter=maxiter)
                assert type(result.matvecs) is int
                for field in dataclasses.fields(single):
                    ours = getattr(result, field.name)
                    theirs = getattr(single, field.name)
                    if isinstance(theirs, np.ndarray):
                        assert np.array_equal(ours, theirs), field.name
                    else:
                        assert ours == theirs, (
                            f"{field.name} of column {j} for "
                            f"{solver}/{family} on {kind}, maxiter={maxiter}")
                if j == 1:
                    assert (result.iterations, result.matvecs) == (0, 0)
                    assert result.converged and result.true_residual == 0.0
                    assert not np.any(result.solution)
                else:
                    _assert_exit_contract(matrix, block[:, j], result)


#: The declared tolerance: the worst ``true_residual / rtol`` a solve that
#: reports ``converged`` may carry, per solver.  CG and BiCGStab stop on a
#: recurrence of the true residual; GMRES stops on the *preconditioned*
#: residual, so its true one overshoots by what ``M`` distorts.  Measured by
#: the test below (1,419 converged solves): cg 0.998, bicgstab 0.999, gmres
#: 2.41 (Neumann, ``unsymmetric``, draw 1088).  Re-measured after GMRES
#: moved from modified Gram--Schmidt to CGS2: the same 1,419 solves, the
#: same worst cases, gmres 2.4112169833 against 2.4112169810.  A change that
#: is not bit-identical (mixed precision) is held to this table — widen an
#: entry only with the measured number here.
TRUE_RESIDUAL_OVER_RTOL = {"cg": 1.01, "bicgstab": 1.01, "gmres": 2.5}


def test_true_residual_of_converged_solves_stays_in_the_declared_table():
    worst = dict.fromkeys(TRUE_RESIDUAL_OVER_RTOL, 0.0)
    for draw in range(1000, 1090):
        kind = MATRIX_KINDS[draw % 3]
        matrix = GENERATORS[kind](seed=draw)
        rhs = np.random.default_rng(draw + 1000).standard_normal(N)
        for family in KNOWN_FAMILIES:
            params = {"parameters": MCMCParameters(
                alpha=2.0, eps=0.25, delta=0.25)} if family == "mcmc" else {}
            try:
                preconditioner = make_preconditioner(family, matrix, **params)
            except PreconditionerError:
                continue
            for solver in worst:
                result = solve(matrix, rhs, solver=solver,
                               preconditioner=preconditioner, rtol=RTOL)
                if result.converged:
                    worst[solver] = max(worst[solver],
                                        result.true_residual / RTOL)
    for solver, bound in TRUE_RESIDUAL_OVER_RTOL.items():
        assert 0.0 < worst[solver] <= bound, worst
