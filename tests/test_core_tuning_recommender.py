"""Tests for the grid baseline and the MCMCTuner facade (one BO round)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.baselines import grid_search_candidates
from repro.core.evaluation import SolverSettings
from repro.core.recommender import MCMCTuner
from repro.core.training import TrainingConfig
from repro.exceptions import AcquisitionError, SurrogateError
from repro.mcmc.parameters import MCMCParameters


class TestBaselines:
    def test_grid_search_candidates_default_size(self):
        assert len(grid_search_candidates()) == 64

    def test_grid_search_reduced(self):
        grid = grid_search_candidates(alphas=(1.0,), epss=(0.5, 0.25), deltas=(0.5,))
        assert len(grid) == 2


class TestMCMCTuner:
    def test_from_observations_and_fit_and_recommend(self, tiny_observations,
                                                     tiny_matrices, small_spd,
                                                     tiny_surrogate_config):
        tuner = MCMCTuner.from_observations(
            list(tiny_observations), dict(tiny_matrices),
            surrogate_config=tiny_surrogate_config,
            training_config=TrainingConfig(epochs=4, batch_size=8, patience=5,
                                           learning_rate=5e-3, seed=0),
            solver_settings=SolverSettings(maxiter=200))
        history = tuner.fit()
        assert history.epochs_run >= 1
        candidates = tuner.recommend(small_spd, "laplace_tiny", n_candidates=2)
        assert len(candidates) == 2

        mu, sigma = tuner.predict(small_spd, "laplace_tiny",
                                  [candidates[0].parameters])
        assert mu.shape == (1,) and sigma.shape == (1,)

        records = tuner.evaluate_candidates(small_spd, "laplace_tiny", candidates,
                                            n_replications=1)
        assert len(records) == 2
        best = tuner.best_parameters(records)
        assert isinstance(best, MCMCParameters)

    def test_evaluate_with_update_is_one_round_on_an_unseen_matrix(
            self, tiny_observations, tiny_matrices, tiny_surrogate_config,
            ill_conditioned_test_matrix):
        """Measured candidates join the dataset with the new matrix's graph,
        and the surrogate is refit on the extended dataset."""
        tuner = MCMCTuner.from_observations(
            list(tiny_observations), dict(tiny_matrices),
            surrogate_config=tiny_surrogate_config,
            training_config=TrainingConfig(epochs=3, batch_size=8, patience=5,
                                           learning_rate=5e-3, seed=0),
            solver_settings=SolverSettings(maxiter=200))
        pre_bo = tuner.fit()
        candidates = tuner.recommend(ill_conditioned_test_matrix, "unseen",
                                     n_candidates=2, xi=1.0)
        before = len(tuner.dataset)
        assert "unseen" not in tuner.dataset.graphs
        records = tuner.evaluate_candidates(
            ill_conditioned_test_matrix, "unseen", candidates,
            n_replications=1, update_model=True)
        assert len(records) == len(candidates)
        assert len(tuner.dataset) == before + len(records)
        assert "unseen" in tuner.dataset.graphs
        assert tuner.matrices["unseen"] is ill_conditioned_test_matrix
        assert tuner.history is not pre_bo
        assert tuner.history.epochs_run >= 1

    def test_recommend_leaves_the_model_untouched(self, tiny_observations,
                                                 tiny_matrices, small_spd,
                                                 tiny_surrogate_config):
        """The acquisition objective differentiates with respect to the
        parameters only: no weight gains or loses a gradient."""
        tuner = MCMCTuner.from_observations(
            list(tiny_observations), dict(tiny_matrices),
            surrogate_config=tiny_surrogate_config,
            training_config=TrainingConfig(epochs=2, batch_size=8, patience=5,
                                           learning_rate=5e-3, seed=0))
        tuner.fit()
        parameters = tuner.model.parameters()
        before = [None if p.grad is None else p.grad.copy() for p in parameters]
        weights = tuner.model.state_dict()
        tuner.recommend(small_spd, "unseen", n_candidates=1)
        for parameter, grad in zip(parameters, before):
            if grad is None:
                assert parameter.grad is None
            else:
                np.testing.assert_array_equal(parameter.grad, grad)
        for name, values in tuner.model.state_dict().items():
            np.testing.assert_array_equal(values, weights[name])

    def test_recommend_invalid_candidate_count(self, tiny_observations,
                                               tiny_matrices, small_spd,
                                               tiny_surrogate_config):
        tuner = MCMCTuner.from_observations(
            list(tiny_observations), dict(tiny_matrices),
            surrogate_config=tiny_surrogate_config,
            training_config=TrainingConfig(epochs=1, batch_size=8, patience=5,
                                           learning_rate=5e-3, seed=0))
        tuner.fit()
        with pytest.raises(AcquisitionError):
            tuner.recommend(small_spd, "laplace_tiny", n_candidates=0)

    def test_evaluate_without_update_leaves_dataset_and_model(
            self, tiny_observations, tiny_matrices, small_spd,
            tiny_surrogate_config):
        """``update_model=False`` only measures: the dataset, the matrix map
        and the trained surrogate are left as they were."""
        tuner = MCMCTuner.from_observations(
            list(tiny_observations), dict(tiny_matrices),
            surrogate_config=tiny_surrogate_config,
            training_config=TrainingConfig(epochs=2, batch_size=8, patience=5,
                                           learning_rate=5e-3, seed=0),
            solver_settings=SolverSettings(maxiter=200))
        history = tuner.fit()
        weights = tuner.model.state_dict()
        before = len(tuner.dataset)
        parameters = [MCMCParameters(alpha=1.0, eps=0.5, delta=0.5)]
        records = tuner.evaluate_candidates(small_spd, "laplace_fresh",
                                            parameters, n_replications=1)
        assert len(records) == 1
        assert records[0].parameters == parameters[0]
        assert len(tuner.dataset) == before
        assert "laplace_fresh" not in tuner.dataset.graphs
        assert "laplace_fresh" not in tuner.matrices
        assert tuner.history is history
        for name, values in tuner.model.state_dict().items():
            np.testing.assert_array_equal(values, weights[name])

    def test_recommend_before_fit_raises(self, tiny_observations, tiny_matrices,
                                         small_spd):
        tuner = MCMCTuner.from_observations(list(tiny_observations),
                                            dict(tiny_matrices))
        with pytest.raises(SurrogateError):
            tuner.recommend(small_spd, "laplace_tiny")

    def test_best_parameters_empty(self, tiny_observations, tiny_matrices):
        tuner = MCMCTuner.from_observations(list(tiny_observations),
                                            dict(tiny_matrices))
        with pytest.raises(SurrogateError):
            tuner.best_parameters([])
