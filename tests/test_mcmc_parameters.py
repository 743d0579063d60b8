"""Tests for repro.mcmc.parameters."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.exceptions import ParameterError
from repro.mcmc.parameters import (
    DEFAULT_BOUNDS,
    DIVERGENT_WALK_CAP,
    MCMCParameters,
    ParameterBounds,
    num_chains_for_eps,
    paper_parameter_grid,
    sample_parameters,
    walk_length_for_delta,
)


class TestMCMCParameters:
    def test_valid_construction(self):
        params = MCMCParameters(alpha=1.0, eps=0.5, delta=0.25, solver="bicgstab")
        assert params.solver == "bicgstab"

    @pytest.mark.parametrize("kwargs", [
        {"alpha": -1.0, "eps": 0.5, "delta": 0.5},
        {"alpha": 1.0, "eps": 0.0, "delta": 0.5},
        {"alpha": 1.0, "eps": 1.5, "delta": 0.5},
        {"alpha": 1.0, "eps": 0.5, "delta": 0.0},
        {"alpha": np.nan, "eps": 0.5, "delta": 0.5},
    ])
    def test_invalid_values(self, kwargs):
        with pytest.raises(ParameterError):
            MCMCParameters(**kwargs)

    def test_unknown_solver(self):
        with pytest.raises(ParameterError):
            MCMCParameters(alpha=1.0, eps=0.5, delta=0.5, solver="minres")

    def test_array_round_trip(self):
        params = MCMCParameters(alpha=2.5, eps=0.3, delta=0.7)
        recovered = MCMCParameters.from_array(params.to_array())
        assert recovered == params

    def test_from_array_wrong_length(self):
        with pytest.raises(ParameterError):
            MCMCParameters.from_array([1.0, 0.5])

    def test_with_solver(self):
        params = MCMCParameters(alpha=1.0, eps=0.5, delta=0.5)
        assert params.with_solver("cg").solver == "cg"
        assert params.solver == "gmres"

    def test_clipped(self):
        params = MCMCParameters(alpha=10.0, eps=1.0, delta=1.0)
        clipped = params.clipped(DEFAULT_BOUNDS)
        assert clipped.alpha == DEFAULT_BOUNDS.alpha[1]

    def test_describe_mentions_all_fields(self):
        text = MCMCParameters(alpha=1.0, eps=0.5, delta=0.25).describe()
        assert "alpha=1" in text and "eps=0.5" in text and "delta=0.25" in text


class TestDerivedQuantities:
    def test_num_chains_monotone_in_eps(self):
        assert num_chains_for_eps(0.0625) > num_chains_for_eps(0.5)

    def test_num_chains_known_value(self):
        # (0.6745 / 0.5)^2 = 1.82 -> 2 chains
        assert num_chains_for_eps(0.5) == 2

    def test_num_chains_cap(self):
        assert num_chains_for_eps(1e-3, cap=100) == 100

    def test_num_chains_invalid(self):
        with pytest.raises(ParameterError):
            num_chains_for_eps(0.0)

    def test_walk_length_contraction(self):
        # ||B|| = 0.5, delta = 1/16 -> length 4
        assert walk_length_for_delta(0.0625, 0.5) == 4

    def test_walk_length_divergent_regime_is_capped(self):
        assert walk_length_for_delta(0.25, 1.5) == DIVERGENT_WALK_CAP

    def test_walk_length_zero_norm(self):
        assert walk_length_for_delta(0.5, 0.0) == 1

    def test_walk_length_invalid_delta(self):
        with pytest.raises(ParameterError):
            walk_length_for_delta(0.0, 0.5)

    def test_parameter_methods_agree_with_functions(self):
        params = MCMCParameters(alpha=1.0, eps=0.125, delta=0.25)
        assert params.num_chains() == num_chains_for_eps(0.125)
        assert params.max_walk_length(0.6) == walk_length_for_delta(0.25, 0.6)


class TestBounds:
    def test_default_bounds_contain_paper_grid(self):
        for params in paper_parameter_grid(solvers=("gmres",)):
            assert DEFAULT_BOUNDS.contains(params)

    def test_contains_rejects_outside(self):
        params = MCMCParameters(alpha=100.0, eps=0.5, delta=0.5)
        assert not DEFAULT_BOUNDS.contains(params)

    def test_as_scipy_bounds_shape(self):
        assert len(DEFAULT_BOUNDS.as_scipy_bounds()) == 3

    def test_invalid_bounds(self):
        with pytest.raises(ParameterError):
            ParameterBounds(alpha=(2.0, 1.0))
        with pytest.raises(ParameterError):
            ParameterBounds(eps=(0.0, 1.0))

    def test_sample_within_box(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            assert DEFAULT_BOUNDS.contains(DEFAULT_BOUNDS.sample(rng))


class TestGridAndSampling:
    def test_paper_grid_size(self):
        grid = paper_parameter_grid()
        assert len(grid) == 2 * 4 * 4 * 4  # two solvers x 64 configurations

    def test_paper_grid_single_solver(self):
        assert len(paper_parameter_grid(solvers=("gmres",))) == 64

    def test_sample_parameters_count_and_solver(self):
        samples = sample_parameters(5, solver="bicgstab", seed=1)
        assert len(samples) == 5
        assert all(p.solver == "bicgstab" for p in samples)

    def test_sample_parameters_negative(self):
        with pytest.raises(ParameterError):
            sample_parameters(-1)

    def test_sample_parameters_within_bounds(self):
        samples = sample_parameters(10, seed=0)
        assert len(samples) == 10
        assert all(DEFAULT_BOUNDS.contains(p) for p in samples)

    def test_sample_parameters_same_seed_same_draws(self):
        assert sample_parameters(5, seed=3) == sample_parameters(5, seed=3)

    def test_sample_parameters_zero_is_empty(self):
        assert sample_parameters(0) == []


@settings(max_examples=40, deadline=None)
@given(eps=st.floats(min_value=0.01, max_value=1.0),
       delta=st.floats(min_value=0.01, max_value=1.0),
       norm_b=st.floats(min_value=0.05, max_value=0.99))
def test_chain_budget_properties(eps, delta, norm_b):
    """Property: chain counts and walk lengths are positive and monotone."""
    chains = num_chains_for_eps(eps)
    length = walk_length_for_delta(delta, norm_b)
    assert chains >= 1
    assert length >= 1
    # Halving eps (more accuracy demanded) never decreases the chain count.
    assert num_chains_for_eps(eps / 2) >= chains
    # Tightening delta never shortens the walk.
    assert walk_length_for_delta(delta / 2, norm_b) >= length
