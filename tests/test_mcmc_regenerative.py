"""Tests for the regenerative Ulam--von Neumann variant."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import ParameterError
from repro.mcmc import RegenerativePreconditioner, regenerative_inverse
from oracles.reference import inversion_error


class TestRegenerativeInverse:
    def test_reasonable_inverse(self, small_spd):
        approx = regenerative_inverse(small_spd, alpha=2.0, transition_budget=400,
                                      seed=0, fill_multiple=0.0, drop_tolerance=0.0)
        assert inversion_error(small_spd, approx, alpha=2.0) < 0.5

    def test_larger_budget_improves_accuracy(self, small_spd):
        errors = []
        for budget in (20, 800):
            approx = regenerative_inverse(small_spd, alpha=2.0,
                                          transition_budget=budget, seed=1,
                                          fill_multiple=0.0, drop_tolerance=0.0)
            errors.append(inversion_error(small_spd, approx, alpha=2.0))
        assert errors[1] < errors[0]

    def test_determinism(self, small_spd):
        a = regenerative_inverse(small_spd, alpha=1.0, transition_budget=100, seed=5)
        b = regenerative_inverse(small_spd, alpha=1.0, transition_budget=100, seed=5)
        assert (a != b).nnz == 0

    def test_finite_output(self, small_nonsym):
        approx = regenerative_inverse(small_nonsym, alpha=1.0, transition_budget=100,
                                      seed=0)
        assert np.all(np.isfinite(approx.data))

    def test_invalid_budget(self, small_spd):
        with pytest.raises(ParameterError):
            regenerative_inverse(small_spd, transition_budget=0)
        with pytest.raises(ParameterError):
            regenerative_inverse(small_spd, max_walk_length=0)


class TestRegenerativePreconditioner:
    def test_interface(self, small_spd):
        preconditioner = RegenerativePreconditioner(small_spd, alpha=1.0,
                                                    transition_budget=150, seed=0)
        vector = np.ones(small_spd.shape[0])
        assert preconditioner.apply(vector).shape == vector.shape
        assert preconditioner.alpha == 1.0
        assert preconditioner.transition_budget == 150
        assert preconditioner.nnz > 0
