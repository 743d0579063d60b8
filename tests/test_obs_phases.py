"""Solver-phase timers: recorded when asked for, absent and free otherwise."""

import numpy as np
import pytest

from repro.krylov.bicgstab import bicgstab
from repro.krylov.block import block_cg
from repro.krylov.cg import cg
from repro.krylov.gmres import gmres
from repro.matrices import laplacian_2d
from repro.obs.phases import (
    PHASE_MATVEC,
    PHASE_ORTHO,
    PHASE_PRECOND,
    PhaseTimings,
    record_phases,
    solve_phase_timings,
    timed_operator,
)
from repro.precond.factory import make_preconditioner


def _system(n: int = 16, k: int = 1, seed: int = 0):
    matrix = laplacian_2d(n)
    rng = np.random.default_rng(seed)
    if k == 1:
        return matrix, rng.standard_normal(matrix.shape[0])
    return matrix, rng.standard_normal((matrix.shape[0], k))


# -- primitives ---------------------------------------------------------------
def test_phase_timings_accumulate_and_merge():
    timings = PhaseTimings()
    timings.add(PHASE_MATVEC, 0.25)
    timings.add(PHASE_MATVEC, 0.25)
    timings.add(PHASE_PRECOND, 0.1)
    assert timings.seconds[PHASE_MATVEC] == 0.5
    assert timings.calls[PHASE_MATVEC] == 2
    assert timings.total() == pytest.approx(0.6)

    other = PhaseTimings()
    other.add(PHASE_MATVEC, 1.0)
    other.merge(timings)
    assert other.seconds[PHASE_MATVEC] == 1.5
    assert other.calls[PHASE_PRECOND] == 1


def test_timed_operator_is_identity_when_recorder_off():
    def operator(v):
        return v

    assert timed_operator(operator, None, PHASE_MATVEC) is operator


def test_timed_operator_counts_calls():
    timings = PhaseTimings()
    timed = timed_operator(np.negative, timings, PHASE_MATVEC)
    result = timed(np.ones(4))
    assert np.array_equal(result, -np.ones(4))
    assert timings.calls[PHASE_MATVEC] == 1
    assert timings.seconds[PHASE_MATVEC] >= 0.0


def test_solve_phase_timings_requires_ambient_recorder():
    assert solve_phase_timings() is None
    with record_phases():
        assert isinstance(solve_phase_timings(), PhaseTimings)
    assert solve_phase_timings() is None


# -- per-solver recording -----------------------------------------------------
@pytest.mark.parametrize("solver", [cg, bicgstab, gmres])
def test_sequential_solvers_record_phases(solver):
    matrix, rhs = _system()
    preconditioner = make_preconditioner("jacobi", matrix)
    with record_phases() as recorder:
        result = solver(matrix, rhs, preconditioner=preconditioner,
                        rtol=1e-8, maxiter=2000)
    assert result.converged
    assert result.phase_timings is not None
    assert result.phase_timings[PHASE_MATVEC] > 0.0
    assert result.phase_timings[PHASE_PRECOND] > 0.0
    if solver is gmres:
        assert result.phase_timings[PHASE_ORTHO] > 0.0
    # the ambient recorder aggregated the same phases
    assert recorder.seconds[PHASE_MATVEC] > 0.0
    assert recorder.calls[PHASE_MATVEC] > 0


@pytest.mark.parametrize("solver", [block_cg])
def test_block_solvers_record_shared_phases(solver):
    matrix, rhs = _system(k=4)
    with record_phases() as recorder:
        results = solver(matrix, rhs, rtol=1e-8, maxiter=2000)
    assert all(r.converged for r in results)
    for result in results:
        assert result.phase_timings is not None
        assert result.phase_timings[PHASE_MATVEC] > 0.0
    # one block solve: every column reports the same shared timing dict
    assert len({id(r.phase_timings) for r in results}) == 1
    assert recorder.seconds[PHASE_MATVEC] > 0.0


@pytest.mark.parametrize("solver", [cg, bicgstab, gmres])
def test_phase_timings_absent_without_recorder(solver):
    matrix, rhs = _system()
    result = solver(matrix, rhs, rtol=1e-8, maxiter=2000)
    assert result.converged
    assert result.phase_timings is None


# -- bit neutrality -----------------------------------------------------------
@pytest.mark.parametrize("solver", [cg, bicgstab, gmres])
def test_phase_timers_are_bit_neutral_sequential(solver):
    matrix, rhs = _system(seed=3)
    plain = solver(matrix, rhs, rtol=1e-10, maxiter=2000)
    with record_phases():
        timed = solver(matrix, rhs, rtol=1e-10, maxiter=2000)
    assert plain.iterations == timed.iterations
    assert np.array_equal(plain.solution, timed.solution), \
        "phase timers changed the arithmetic"


@pytest.mark.parametrize("solver", [block_cg])
def test_phase_timers_are_bit_neutral_block(solver):
    matrix, rhs = _system(k=3, seed=4)
    plain = solver(matrix, rhs, rtol=1e-10, maxiter=2000)
    with record_phases():
        timed = solver(matrix, rhs, rtol=1e-10, maxiter=2000)
    for ours, theirs in zip(timed, plain):
        assert ours.iterations == theirs.iterations
        assert np.array_equal(ours.solution, theirs.solution), \
            "phase timers changed the block arithmetic"
