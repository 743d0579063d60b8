"""The lockstep L-BFGS-B driver against ``scipy.optimize.minimize``.

``LockstepLBFGSB`` drives scipy's private ``setulb`` routine itself, so each
start must reproduce the public ``minimize(method="L-BFGS-B")`` on that start
alone: the final point, the iteration count and every objective call.  These
tests also stand guard over the private entry point: a scipy release that
changes it fails here, not in a proposal.
"""

from __future__ import annotations

import numpy as np
import pytest
import scipy.optimize

from repro.core.acquisition import ExpectedImprovement
from repro.core.lbfgsb import LockstepLBFGSB
from repro.core.optimize import AcquisitionOptimizer
from repro.core.surrogate import ParameterHead
from repro.mcmc.parameters import DEFAULT_BOUNDS

_LOWER = np.array([-2.0, -1.0, -3.0])
_UPPER = np.array([0.8, 3.0, 3.0])


def _analytic(x: np.ndarray) -> tuple[float, np.ndarray]:
    """A Rosenbrock valley with a ripple; its minimum ``(1, 1, .)`` lies
    outside the box, so minimisers end on the ``x[0] = 0.8`` face."""
    ripple = 0.3 * np.sin(3.0 * x[2])
    value = ((1.0 - x[0]) ** 2 + 100.0 * (x[1] - x[0] ** 2) ** 2
             + ripple * x[0])
    gradient = np.array([
        -2.0 * (1.0 - x[0]) - 400.0 * x[0] * (x[1] - x[0] ** 2) + ripple,
        200.0 * (x[1] - x[0] ** 2),
        0.9 * np.cos(3.0 * x[2]) * x[0]])
    return value, gradient


def _one_by_one(objective, starts, lower, upper, maxiter):
    """``minimize`` on each start: final point, ``nit``, status and the
    points of every objective call."""
    results = []
    for start in starts:
        calls = []

        def recorded(x):
            calls.append(np.array(x))
            return objective(x)

        result = scipy.optimize.minimize(
            recorded, start, jac=True, method="L-BFGS-B",
            bounds=list(zip(lower, upper)), options={"maxiter": maxiter})
        results.append((result.x, result.nit, result.status, calls))
    return results


def _in_lockstep(batch_objective, starts, lower, upper, maxiter):
    """``LockstepLBFGSB`` on all starts: final points, ``nit``, every
    start's objective calls and the number of rounds."""
    lbfgsb = LockstepLBFGSB(starts, lower, upper, maxiter=maxiter)
    calls: list[list[np.ndarray]] = [[] for _ in starts]
    rounds = 0
    while (points := lbfgsb.ask()) is not None:
        rounds += 1
        for index, point in zip(lbfgsb.pending, points):
            calls[index].append(point.copy())
        lbfgsb.tell(*batch_objective(points))
    return lbfgsb.x, lbfgsb.nit, calls, rounds


def _assert_same_runs(reference, lockstep):
    x, nit, calls, _rounds = lockstep
    assert len(reference) == len(x)
    for index, (ref_x, ref_nit, _status, ref_calls) in enumerate(reference):
        np.testing.assert_array_equal(x[index], ref_x)
        assert nit[index] == ref_nit
        assert len(calls[index]) == len(ref_calls)
        for point, ref_point in zip(calls[index], ref_calls):
            np.testing.assert_array_equal(point, ref_point)


def _analytic_batch(points):
    values, gradients = zip(*(_analytic(point) for point in points))
    return np.array(values), np.array(gradients)


@pytest.mark.parametrize("maxiter", [60, 4])
def test_matches_minimize_on_an_analytic_function(maxiter):
    starts = np.random.default_rng(0).uniform(_LOWER - 1.0, _UPPER + 1.0,
                                              size=(24, 3))
    reference = _one_by_one(_analytic, starts, _LOWER, _UPPER, maxiter)
    lockstep = _in_lockstep(_analytic_batch, starts, _LOWER, _UPPER, maxiter)
    _assert_same_runs(reference, lockstep)
    x, nit, _calls, rounds = lockstep
    # Some runs end on a bound, and (at maxiter=4) some stop at maxiter.
    assert np.any(x[:, 0] == _UPPER[0])
    stopped = [status == 1 for _x, _nit, status, _calls in reference]
    assert any(stopped) == (maxiter == 4)
    assert all(nit[stopped] == maxiter)
    assert rounds == max(len(calls) for *_rest, calls in reference)


def test_matches_minimize_on_expected_improvement(trained_tiny_surrogate,
                                                  tiny_dataset, small_spd):
    optimizer = AcquisitionOptimizer(trained_tiny_surrogate, tiny_dataset,
                                     seed=0)
    trained_tiny_surrogate.eval()
    embedding, x_a = optimizer._prepare_target(small_spd, "laplace_tiny")
    y_min = optimizer.reference_y_min(embedding, x_a,
                                      matrix_name="laplace_tiny",
                                      solver="gmres")
    head = ParameterHead(trained_tiny_surrogate, embedding, x_a)
    acquisition = ExpectedImprovement(y_min=y_min, xi=0.05)

    def batch_objective(points):
        ei, gradient, _mu, _sigma = optimizer._ei_and_gradient_batch(
            points, head, acquisition, "gmres")
        return -ei, -gradient

    def objective(x):
        value, gradient = batch_objective(x[None, :])
        return value[0], gradient[0]

    lower, upper = DEFAULT_BOUNDS.as_arrays()
    starts = np.random.default_rng(1).uniform(lower, upper, size=(16, 3))
    starts[0] = upper + 0.5  # clipped onto a corner of the box
    for maxiter in (60, 2):
        reference = _one_by_one(objective, starts, lower, upper, maxiter)
        lockstep = _in_lockstep(batch_objective, starts, lower, upper, maxiter)
        _assert_same_runs(reference, lockstep)
    assert any(status == 1 for _x, _nit, status, _calls in reference)


def test_a_repeated_point_is_not_evaluated_again():
    """The start's own first point is evaluated once, as ``minimize``'s
    cache does, however many times ``setulb`` asks for it."""
    lbfgsb = LockstepLBFGSB([[0.5, 0.5]], [0.0, 0.0], [1.0, 1.0])
    seen = []
    while (points := lbfgsb.ask()) is not None:
        seen.extend(map(tuple, points))
        lbfgsb.tell(np.zeros(len(points)), np.zeros_like(points))
    assert seen == [(0.5, 0.5)]
    assert lbfgsb.nit.tolist() == [0]


def test_rejects_an_infinite_box():
    with pytest.raises(ValueError, match="finite"):
        LockstepLBFGSB([[0.0]], [-np.inf], [1.0])


def test_a_proposal_runs_one_head_forward_a_round(monkeypatch,
                                                  trained_tiny_surrogate,
                                                  tiny_dataset, small_spd):
    """One ``propose`` runs the surrogate head once per lockstep round, once
    for the restarts' optima and at most once for top-up points -- not once
    per objective call."""
    forwards = []
    rounds = []
    forward = ParameterHead.forward
    ask = LockstepLBFGSB.ask

    def counting_forward(self, x_m):
        forwards.append(len(x_m))
        return forward(self, x_m)

    def counting_ask(self):
        points = ask(self)
        rounds.append(points is not None)
        return points

    monkeypatch.setattr(ParameterHead, "forward", counting_forward)
    monkeypatch.setattr(LockstepLBFGSB, "ask", counting_ask)
    optimizer = AcquisitionOptimizer(trained_tiny_surrogate, tiny_dataset,
                                     n_restarts=4, seed=0)
    optimizer.propose(small_spd, "laplace_tiny", n_candidates=4)
    assert sum(rounds) + 1 <= len(forwards) <= sum(rounds) + 2
    assert forwards[0] == 16  # every start in the first round
    assert sum(forwards) > 2 * len(forwards)
