"""Solver-phase timers: recorded when asked for, absent and free otherwise."""

import math
import sys
import types

import numpy as np
import pytest

from repro.krylov.bicgstab import bicgstab
from repro.krylov.cg import cg
from repro.krylov.gmres import gmres
from repro.matrices import laplacian_2d
from repro.obs.phases import (
    PHASE_LSQ,
    PHASE_MATVEC,
    PHASE_ORTHO,
    PHASE_PRECOND,
    PhaseTimings,
    record_phases,
    solve_phase_timings,
    timed_operator,
)
from repro.precond.factory import make_preconditioner


def _system(n: int = 16, seed: int = 0):
    matrix = laplacian_2d(n)
    rng = np.random.default_rng(seed)
    return matrix, rng.standard_normal(matrix.shape[0])


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
        assert result.phase_timings[PHASE_LSQ] > 0.0
    else:
        assert PHASE_LSQ not in result.phase_timings
    # the ambient recorder aggregated the same phases
    assert recorder.seconds[PHASE_MATVEC] > 0.0
    assert recorder.calls[PHASE_MATVEC] > 0


@pytest.mark.parametrize("restart", [10, 50])
def test_gmres_times_every_least_squares_update(restart):
    """One ``lsq`` interval per Arnoldi step (the rotations) and one per
    restart cycle (the back-substitution and the iterate update)."""
    matrix, rhs = _system(seed=1)
    with record_phases() as recorder:
        result = gmres(matrix, rhs, rtol=1e-10, restart=restart, maxiter=2000)
    assert result.converged
    cycles = math.ceil(result.iterations / restart)
    assert cycles > 1
    assert recorder.calls[PHASE_LSQ] == result.iterations + cycles
    assert recorder.seconds[PHASE_LSQ] > 0.0


def test_untimed_gmres_reads_no_clock(monkeypatch):
    def no_clock():
        raise AssertionError("the untimed path read the clock")

    module = sys.modules["repro.krylov.gmres"]
    monkeypatch.setattr(module, "time",
                        types.SimpleNamespace(perf_counter=no_clock))
    matrix, rhs = _system()
    assert gmres(matrix, rhs, rtol=1e-10, restart=10, maxiter=2000).converged


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


@pytest.mark.parametrize("restart", [10, 256])
def test_gmres_lsq_timer_is_bit_neutral(restart):
    """Timing the least-squares side changes no bit of GMRES's solution or
    residual history, across restart cycles and at full GMRES."""
    matrix, rhs = _system(seed=5)
    preconditioner = make_preconditioner("jacobi", matrix)
    plain = gmres(matrix, rhs, preconditioner=preconditioner, rtol=1e-10,
                  restart=restart, maxiter=2000)
    with record_phases() as recorder:
        timed = gmres(matrix, rhs, preconditioner=preconditioner, rtol=1e-10,
                      restart=restart, maxiter=2000)
    assert recorder.calls[PHASE_LSQ] > 0
    assert (timed.iterations, timed.matvecs) == (plain.iterations, plain.matvecs)
    assert np.array_equal(timed.solution, plain.solution)
    assert np.array_equal(timed.residual_norms, plain.residual_norms)
