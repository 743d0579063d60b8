"""Tests for Expected Improvement and its gradient-based maximisation."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.stats import norm

from repro.core.acquisition import (
    ExpectedImprovement,
    expected_improvement,
    expected_improvement_gradients,
)
from repro.core.optimize import AcquisitionOptimizer
from repro.exceptions import AcquisitionError
from repro.mcmc.parameters import DEFAULT_BOUNDS


class TestExpectedImprovementValue:
    def test_zero_uncertainty_reduces_to_hinge(self):
        assert expected_improvement(0.5, 0.0, y_min=1.0, xi=0.0) == pytest.approx(0.5)
        assert expected_improvement(1.5, 0.0, y_min=1.0, xi=0.0) == 0.0

    def test_uncertainty_increases_ei_when_mean_is_poor(self):
        low = expected_improvement(1.2, 0.01, y_min=1.0, xi=0.0)
        high = expected_improvement(1.2, 0.5, y_min=1.0, xi=0.0)
        assert high > low

    def test_better_mean_increases_ei(self):
        worse = expected_improvement(0.9, 0.1, y_min=1.0, xi=0.0)
        better = expected_improvement(0.5, 0.1, y_min=1.0, xi=0.0)
        assert better > worse

    def test_xi_shifts_the_threshold(self):
        without = expected_improvement(0.9, 0.1, y_min=1.0, xi=0.0)
        with_xi = expected_improvement(0.9, 0.1, y_min=1.0, xi=0.5)
        assert with_xi < without

    def test_vectorised(self):
        values = expected_improvement(np.array([0.5, 1.5]), np.array([0.1, 0.1]),
                                      y_min=1.0)
        assert values.shape == (2,)
        assert values[0] > values[1]

    def test_non_negative(self):
        assert expected_improvement(5.0, 0.3, y_min=1.0) >= 0.0


class TestExpectedImprovementGradients:
    @pytest.mark.parametrize("mu,sigma", [(0.8, 0.2), (1.2, 0.4), (1.0, 0.05)])
    def test_gradients_match_finite_differences(self, mu, sigma):
        y_min, xi = 1.0, 0.05
        d_mu, d_sigma = expected_improvement_gradients(mu, sigma, y_min, xi)
        eps = 1e-6
        numeric_mu = (expected_improvement(mu + eps, sigma, y_min, xi)
                      - expected_improvement(mu - eps, sigma, y_min, xi)) / (2 * eps)
        numeric_sigma = (expected_improvement(mu, sigma + eps, y_min, xi)
                         - expected_improvement(mu, sigma - eps, y_min, xi)) / (2 * eps)
        assert d_mu == pytest.approx(numeric_mu, abs=1e-5)
        assert d_sigma == pytest.approx(numeric_sigma, abs=1e-5)

    def test_degenerate_sigma(self):
        d_mu, d_sigma = expected_improvement_gradients(0.5, 0.0, y_min=1.0, xi=0.0)
        assert d_mu == -1.0 and d_sigma == 0.0


def _scipy_stats_ei(mu, sigma, y_min, xi):
    """EI and its partials through ``scipy.stats.norm``: the oracle the
    ``ndtr`` / closed-form density path must match bit for bit."""
    improvement = y_min - mu - xi
    if sigma <= 1e-12:
        return max(improvement, 0.0), ((-1.0 if improvement > 0 else 0.0), 0.0)
    z = improvement / sigma
    value = improvement * norm.cdf(np.atleast_1d(z)) \
        + sigma * norm.pdf(np.atleast_1d(z))
    return max(float(value[0]), 0.0), (float(-norm.cdf(z)), float(norm.pdf(z)))


def test_expected_improvement_matches_scipy_stats_bit_for_bit():
    rng = np.random.default_rng(1)
    mu = rng.uniform(-1.0, 3.0, 4000)
    sigma = np.abs(rng.standard_normal(4000)) * rng.choice([0.0, 1e-3, 0.1, 1.0],
                                                           4000)
    oracle = [_scipy_stats_ei(m, s, 0.5, 0.05) for m, s in zip(mu, sigma)]
    for (m, s), (value, gradients) in zip(zip(mu, sigma), oracle):
        # numpy scalars and Python floats take different `**` paths.
        for m_, s_ in ((m, s), (float(m), float(s))):
            assert expected_improvement(m_, s_, 0.5, 0.05) == value
            assert expected_improvement_gradients(m_, s_, 0.5,
                                                  0.05) == gradients
    np.testing.assert_array_equal(expected_improvement(mu, sigma, 0.5, 0.05),
                                  [value for value, _ in oracle])


class TestExpectedImprovementObject:
    def test_describe_flavours(self):
        assert "balanced" in ExpectedImprovement(y_min=1.0, xi=0.05).describe()
        assert "exploration" in ExpectedImprovement(y_min=1.0, xi=1.0).describe()

    def test_invalid_arguments(self):
        with pytest.raises(AcquisitionError):
            ExpectedImprovement(y_min=np.inf)
        with pytest.raises(AcquisitionError):
            ExpectedImprovement(y_min=1.0, xi=-0.1)

    def test_value_and_gradients_delegate(self):
        acquisition = ExpectedImprovement(y_min=1.0, xi=0.0)
        assert acquisition.value(0.5, 0.0) == pytest.approx(0.5)
        assert acquisition.gradients(0.5, 0.1)[0] < 0.0


@settings(max_examples=50, deadline=None)
@given(mu=st.floats(min_value=0.0, max_value=3.0),
       sigma=st.floats(min_value=0.0, max_value=2.0),
       y_min=st.floats(min_value=0.1, max_value=2.0),
       xi=st.floats(min_value=0.0, max_value=1.0))
def test_expected_improvement_properties(mu, sigma, y_min, xi):
    """Property: EI is finite, non-negative, and monotone in sigma."""
    value = expected_improvement(mu, sigma, y_min, xi)
    assert np.isfinite(value)
    assert value >= 0.0
    assert expected_improvement(mu, sigma + 0.5, y_min, xi) >= value - 1e-12


class TestAcquisitionOptimizer:
    def test_proposals_respect_bounds_and_count(self, trained_tiny_surrogate,
                                                tiny_dataset, small_spd):
        optimizer = AcquisitionOptimizer(trained_tiny_surrogate, tiny_dataset,
                                         n_restarts=2, seed=0)
        candidates = optimizer.propose(small_spd, "laplace_tiny", n_candidates=4,
                                       xi=0.05)
        assert len(candidates) == 4
        for candidate in candidates:
            assert DEFAULT_BOUNDS.contains(candidate.parameters)
            assert candidate.predicted_sigma > 0.0
            assert np.isfinite(candidate.expected_improvement)

    def test_candidates_sorted_by_ei(self, trained_tiny_surrogate, tiny_dataset,
                                     small_spd):
        optimizer = AcquisitionOptimizer(trained_tiny_surrogate, tiny_dataset,
                                         n_restarts=2, seed=1)
        candidates = optimizer.propose(small_spd, "laplace_tiny", n_candidates=3)
        eis = [c.expected_improvement for c in candidates]
        assert eis == sorted(eis, reverse=True)

    def test_unseen_matrix_accepted(self, trained_tiny_surrogate, tiny_dataset,
                                    ill_conditioned_test_matrix):
        optimizer = AcquisitionOptimizer(trained_tiny_surrogate, tiny_dataset,
                                         n_restarts=1, seed=0)
        candidates = optimizer.propose(ill_conditioned_test_matrix, "unseen",
                                       n_candidates=2)
        assert len(candidates) == 2

    def test_predict_parameters_shapes(self, trained_tiny_surrogate, tiny_dataset,
                                       small_spd, default_parameters):
        optimizer = AcquisitionOptimizer(trained_tiny_surrogate, tiny_dataset, seed=0)
        mu, sigma = optimizer.predict_parameters(small_spd, "laplace_tiny",
                                                 [default_parameters] * 3)
        assert mu.shape == (3,) and sigma.shape == (3,)
        np.testing.assert_allclose(mu, mu[0])  # identical inputs, identical outputs

    def test_invalid_arguments(self, trained_tiny_surrogate, tiny_dataset, small_spd):
        with pytest.raises(AcquisitionError):
            AcquisitionOptimizer(trained_tiny_surrogate, tiny_dataset, n_restarts=0)
        optimizer = AcquisitionOptimizer(trained_tiny_surrogate, tiny_dataset, seed=0)
        with pytest.raises(AcquisitionError):
            optimizer.propose(small_spd, "laplace_tiny", n_candidates=0)

    @pytest.mark.parametrize("count", [2.5, 2.0, float("nan"), True, "2",
                                       -1])
    def test_non_integer_counts_rejected_up_front(
            self, trained_tiny_surrogate, tiny_dataset, small_spd, count,
            monkeypatch):
        with pytest.raises(AcquisitionError, match="n_restarts"):
            AcquisitionOptimizer(trained_tiny_surrogate, tiny_dataset,
                                 n_restarts=count)
        optimizer = AcquisitionOptimizer(trained_tiny_surrogate, tiny_dataset,
                                         seed=0)

        def embedded(*args):
            raise AssertionError("the target was embedded before the check")

        monkeypatch.setattr(optimizer, "_prepare_target", embedded)
        with pytest.raises(AcquisitionError, match="n_candidates"):
            optimizer.propose(small_spd, "laplace_tiny", n_candidates=count)

    def test_numpy_integer_counts_accepted(self, trained_tiny_surrogate,
                                           tiny_dataset, small_spd):
        optimizer = AcquisitionOptimizer(trained_tiny_surrogate, tiny_dataset,
                                         n_restarts=np.int64(1), seed=0)
        candidates = optimizer.propose(small_spd, "laplace_tiny",
                                       n_candidates=np.int32(2))
        assert len(candidates) == 2

    def test_reference_y_min_uses_observations_when_available(
            self, trained_tiny_surrogate, tiny_dataset, small_spd):
        optimizer = AcquisitionOptimizer(trained_tiny_surrogate, tiny_dataset, seed=0)
        embedding, x_a = optimizer._prepare_target(small_spd, "laplace_tiny")
        incumbent = optimizer.reference_y_min(embedding, x_a,
                                              matrix_name="laplace_tiny",
                                              solver="gmres")
        observed_best = min(s.y_mean for s in tiny_dataset.samples
                            if s.matrix_name == "laplace_tiny")
        assert incumbent <= observed_best + 1e-12
