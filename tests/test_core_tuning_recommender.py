"""Tests for the Bayesian tuning loop (Algorithm 1) and the MCMCTuner facade."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.baselines import grid_search_candidates, random_search_candidates
from repro.core.dataset import SurrogateDataset
from repro.core.evaluation import MatrixEvaluator, SolverSettings
from repro.core.recommender import MCMCTuner
from repro.core.surrogate import GraphNeuralSurrogate
from repro.core.training import Trainer, TrainingConfig
from repro.core.tuning_loop import BayesianTuningLoop, bo_round
from repro.exceptions import ParameterError, SurrogateError
from repro.mcmc.parameters import DEFAULT_BOUNDS, MCMCParameters


class TestBaselines:
    def test_grid_search_candidates_default_size(self):
        assert len(grid_search_candidates()) == 64

    def test_grid_search_reduced(self):
        grid = grid_search_candidates(alphas=(1.0,), epss=(0.5, 0.25), deltas=(0.5,))
        assert len(grid) == 2

    def test_random_search_within_bounds(self):
        candidates = random_search_candidates(10, seed=0)
        assert len(candidates) == 10
        assert all(DEFAULT_BOUNDS.contains(c) for c in candidates)

    def test_random_search_reproducible(self):
        a = random_search_candidates(5, seed=3)
        b = random_search_candidates(5, seed=3)
        assert a == b

    def test_random_search_invalid(self):
        with pytest.raises(ParameterError):
            random_search_candidates(0)


@pytest.fixture()
def fresh_dataset(tiny_observations, tiny_matrices):
    """A mutable copy of the tiny dataset (BO rounds extend it in place)."""
    return SurrogateDataset(list(tiny_observations), dict(tiny_matrices))


@pytest.fixture()
def fast_trainer():
    return Trainer(TrainingConfig(epochs=3, batch_size=8, learning_rate=5e-3,
                                  patience=5, seed=0))


class TestBORound:
    def test_round_extends_dataset_and_measures(self, trained_tiny_surrogate,
                                                fresh_dataset, tiny_settings,
                                                small_spd, tiny_surrogate_config,
                                                fast_trainer):
        model = GraphNeuralSurrogate(tiny_surrogate_config)
        model.load_state_dict(trained_tiny_surrogate.state_dict())
        evaluator = MatrixEvaluator(small_spd, "laplace_tiny", settings=tiny_settings,
                                    seed=0)
        before = len(fresh_dataset)
        result = bo_round(model, fresh_dataset, evaluator, small_spd, "laplace_tiny",
                          batch_size=3, xi=0.05, n_replications=1, seed=0,
                          retrain=True, trainer=fast_trainer)
        assert len(result.candidates) == 3
        assert len(result.observations) == 3
        assert len(fresh_dataset) == before + 3
        assert result.history is not None
        assert result.best_observed.y_mean == min(o.y_mean for o in result.observations)
        assert result.observed_means().shape == (3,)

    def test_round_on_unseen_matrix(self, trained_tiny_surrogate, fresh_dataset,
                                    tiny_settings, ill_conditioned_test_matrix,
                                    tiny_surrogate_config, fast_trainer):
        model = GraphNeuralSurrogate(tiny_surrogate_config)
        model.load_state_dict(trained_tiny_surrogate.state_dict())
        evaluator = MatrixEvaluator(ill_conditioned_test_matrix, "unseen",
                                    settings=tiny_settings, seed=1)
        result = bo_round(model, fresh_dataset, evaluator,
                          ill_conditioned_test_matrix, "unseen",
                          batch_size=2, xi=1.0, n_replications=1, seed=0,
                          retrain=False)
        assert result.history is None
        assert "unseen" in fresh_dataset.graphs

    def test_invalid_batch_size(self, trained_tiny_surrogate, fresh_dataset,
                                tiny_settings, small_spd):
        evaluator = MatrixEvaluator(small_spd, "laplace_tiny", settings=tiny_settings)
        with pytest.raises(ParameterError):
            bo_round(trained_tiny_surrogate, fresh_dataset, evaluator, small_spd,
                     "laplace_tiny", batch_size=0)


class TestBayesianTuningLoop:
    def test_budget_is_respected(self, fresh_dataset, tiny_surrogate_config,
                                 tiny_settings, small_spd, fast_trainer):
        model = GraphNeuralSurrogate(tiny_surrogate_config)
        loop = BayesianTuningLoop(model=model, dataset=fresh_dataset,
                                  trainer=fast_trainer, batch_size=2, xi=0.05,
                                  n_replications=1, seed=0)
        evaluator = MatrixEvaluator(small_spd, "laplace_tiny", settings=tiny_settings,
                                    seed=0)
        results = loop.run({"laplace_tiny": (small_spd, evaluator)}, total_budget=4)
        total_evaluations = sum(len(r.observations) for r in results)
        assert total_evaluations == 4

    def test_invalid_budget(self, fresh_dataset, tiny_surrogate_config, fast_trainer):
        loop = BayesianTuningLoop(model=GraphNeuralSurrogate(tiny_surrogate_config),
                                  dataset=fresh_dataset, trainer=fast_trainer)
        with pytest.raises(ParameterError):
            loop.run({}, total_budget=0)


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
