"""Tests for the performance metric measurement layer."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.evaluation import (
    LabelledObservation,
    MatrixEvaluator,
    PerformanceRecord,
    SolverSettings,
    collect_grid_observations,
    measurement_regime,
)
from repro.exceptions import ParameterError
from repro.mcmc.parameters import MCMCParameters
from repro.service.store import ObservationStore


class TestSolverSettings:
    def test_gmres_kwargs_include_restart(self):
        settings = SolverSettings(maxiter=100)
        kwargs = settings.solver_kwargs("gmres", 30)
        assert kwargs["restart"] == 30
        assert kwargs["maxiter"] == 100

    def test_explicit_restart(self):
        settings = SolverSettings(gmres_restart=20)
        assert settings.solver_kwargs("gmres", 500)["restart"] == 20

    def test_non_gmres_has_no_restart(self):
        assert "restart" not in SolverSettings().solver_kwargs("bicgstab", 10)


class TestPerformanceRecord:
    def test_statistics(self, default_parameters):
        record = PerformanceRecord(parameters=default_parameters, matrix_name="m",
                                   baseline_iterations=10,
                                   preconditioned_iterations=[5, 7, 6],
                                   y_values=[0.5, 0.7, 0.6])
        assert record.y_mean == pytest.approx(0.6)
        assert record.y_median == pytest.approx(0.6)
        assert record.y_std == pytest.approx(np.std([0.5, 0.7, 0.6], ddof=1))

    def test_single_replication_std_zero(self, default_parameters):
        record = PerformanceRecord(default_parameters, "m", 10, [5], [0.5])
        assert record.y_std == 0.0

    def test_to_observation(self, default_parameters):
        record = PerformanceRecord(default_parameters, "m", 10, [5, 6], [0.5, 0.6])
        observation = record.to_observation()
        assert isinstance(observation, LabelledObservation)
        assert observation.matrix_name == "m"
        assert observation.y_mean == pytest.approx(record.y_mean)


class TestMatrixEvaluator:
    def test_baseline_cached_and_positive(self, small_spd, tiny_settings):
        evaluator = MatrixEvaluator(small_spd, "lap", settings=tiny_settings)
        first = evaluator.baseline_iterations("gmres")
        second = evaluator.baseline_iterations("gmres")
        assert first == second > 0

    def test_evaluate_produces_requested_replications(self, small_spd, tiny_settings,
                                                      default_parameters):
        evaluator = MatrixEvaluator(small_spd, "lap", settings=tiny_settings, seed=1)
        record = evaluator.evaluate(default_parameters, n_replications=3)
        assert len(record.y_values) == 3
        assert all(value > 0 for value in record.y_values)

    def test_replications_use_different_seeds(self, small_spd, tiny_settings):
        evaluator = MatrixEvaluator(small_spd, "lap", settings=tiny_settings, seed=1)
        params = MCMCParameters(alpha=1.0, eps=0.5, delta=0.5)
        record = evaluator.evaluate(params, n_replications=4)
        # With only two chains per row the stochastic preconditioners differ,
        # so at least two replications should give different iteration counts
        # or at minimum not all be forced equal by construction.
        assert len(set(record.preconditioned_iterations)) >= 1

    def test_deterministic_given_seed(self, small_spd, tiny_settings,
                                      default_parameters):
        a = MatrixEvaluator(small_spd, "lap", settings=tiny_settings, seed=2)
        b = MatrixEvaluator(small_spd, "lap", settings=tiny_settings, seed=2)
        record_a = a.evaluate(default_parameters, n_replications=2)
        record_b = b.evaluate(default_parameters, n_replications=2)
        assert record_a.y_values == record_b.y_values

    def test_good_parameters_beat_divergent_ones(self, ill_conditioned_test_matrix,
                                                 tiny_settings):
        evaluator = MatrixEvaluator(ill_conditioned_test_matrix, "adv",
                                    settings=tiny_settings, seed=0)
        good = evaluator.evaluate(MCMCParameters(alpha=5.0, eps=0.25, delta=0.25),
                                  n_replications=2)
        bad = evaluator.evaluate(MCMCParameters(alpha=0.05, eps=0.5, delta=0.5),
                                 n_replications=2)
        assert good.y_mean < bad.y_mean

    def test_invalid_inputs(self, small_spd, tiny_settings, default_parameters):
        with pytest.raises(ParameterError):
            MatrixEvaluator(small_spd, "lap", settings=tiny_settings,
                            rhs=np.ones(3))
        evaluator = MatrixEvaluator(small_spd, "lap", settings=tiny_settings)
        with pytest.raises(ParameterError):
            evaluator.evaluate(default_parameters, n_replications=0)

    def test_evaluate_many_order(self, small_spd, tiny_settings):
        evaluator = MatrixEvaluator(small_spd, "lap", settings=tiny_settings)
        grid = [MCMCParameters(alpha=a, eps=0.5, delta=0.5) for a in (0.5, 1.0)]
        records = evaluator.evaluate_many(grid, n_replications=1)
        assert [r.parameters.alpha for r in records] == [0.5, 1.0]


class TestCollectGridObservations:
    def test_counts_and_names(self, tiny_matrices, tiny_grid, tiny_settings):
        observations = collect_grid_observations(tiny_matrices, tiny_grid,
                                                 n_replications=1,
                                                 settings=tiny_settings, seed=0)
        assert len(observations) == len(tiny_matrices) * len(tiny_grid)
        assert {obs.matrix_name for obs in observations} == set(tiny_matrices)

    def test_cg_skipped_for_nonsymmetric(self, tiny_matrices, tiny_settings):
        grid = [MCMCParameters(alpha=1.0, eps=0.5, delta=0.5, solver="cg")]
        observations = collect_grid_observations(tiny_matrices, grid,
                                                 n_replications=1,
                                                 settings=tiny_settings, seed=0)
        names = {obs.matrix_name for obs in observations}
        assert "pdd_tiny" not in names       # nonsymmetric -> CG skipped
        assert "laplace_tiny" in names       # SPD -> CG allowed


class TestStoreAwareEvaluatorReplay:
    @pytest.fixture()
    def settings(self):
        return SolverSettings(maxiter=200)

    def test_stored_record_equals_fresh_measurement(self, tmp_path, settings,
                                                    small_spd):
        """Serving from the store is bit-identical to re-measuring."""
        parameters = MCMCParameters(alpha=1.0, eps=0.5, delta=0.5)
        store = ObservationStore(tmp_path / "store")
        with_store = MatrixEvaluator(small_spd, "lap", settings=settings,
                                     seed=3, store=store)
        first = with_store.evaluate(parameters, n_replications=2)
        served = with_store.evaluate(parameters, n_replications=2)
        fresh = MatrixEvaluator(small_spd, "lap", settings=settings,
                                seed=3).evaluate(parameters, n_replications=2)
        assert served.y_values == first.y_values == fresh.y_values
        assert len(store) == 1  # the replay added nothing
        assert (served.preconditioned_iterations
                == fresh.preconditioned_iterations)

    def test_registered_matrix_is_not_featurised_again(self, tmp_path,
                                                       settings, small_spd,
                                                       monkeypatch):
        """The store is the one source of "is this matrix registered": the
        first evaluator registers it, a later one skips the feature pass,
        and the index holds one matrix line."""
        import repro.matrices.features as features

        store = ObservationStore(tmp_path / "store")
        first = MatrixEvaluator(small_spd, "lap", settings=settings,
                                store=store)
        assert store.has_matrix(first.fingerprint)

        def refuse(matrix):
            raise AssertionError("feature_vector recomputed")

        monkeypatch.setattr(features, "feature_vector", refuse)
        MatrixEvaluator(small_spd, "lap", settings=settings, store=store)
        assert list(ObservationStore(tmp_path / "store").matrix_entries()) \
            == [first.fingerprint]

    def test_same_content_under_another_name_is_replayed(self, tmp_path,
                                                         settings, small_spd):
        """The store key is the matrix content, not the name it came in."""
        parameters = MCMCParameters(alpha=1.0, eps=0.5, delta=0.5)
        store = ObservationStore(tmp_path / "store")
        first = MatrixEvaluator(small_spd, "lap", settings=settings,
                                store=store).evaluate(parameters,
                                                      n_replications=1)
        renamed = MatrixEvaluator(small_spd.copy(), "renamed",
                                  settings=settings, store=store)
        assert renamed.evaluate(parameters, n_replications=1).y_values \
            == first.y_values
        assert len(store) == 1

    def test_another_regime_is_measured_anew(self, tmp_path, settings,
                                             small_spd):
        """A record from other solver settings is not a measurement of
        this regime: the evaluator measures and stores a second record."""
        parameters = MCMCParameters(alpha=1.0, eps=0.5, delta=0.5)
        store = ObservationStore(tmp_path / "store")
        MatrixEvaluator(small_spd, "lap", settings=settings,
                        store=store).evaluate(parameters, n_replications=1)
        MatrixEvaluator(small_spd, "lap", settings=SolverSettings(maxiter=150),
                        store=store).evaluate(parameters, n_replications=1)
        assert len(store) == 2
        assert len({record.context.split(":")[0] for record in store}) == 2

    def test_record_context_leads_with_the_regime(self, settings, small_spd):
        """Evaluators of one regime share the context prefix whatever their
        seed; the rest of the context tells their measurements apart."""
        evaluators = [MatrixEvaluator(small_spd, "lap", settings=settings,
                                      seed=seed) for seed in (0, 7)]
        regime = measurement_regime(settings, np.ones(small_spd.shape[0]))
        contexts = [e.record_context(2, 1) for e in evaluators]
        assert all(c.startswith(regime + ":") for c in contexts)
        assert contexts[0] != contexts[1]


class TestMeasurementRegime:
    def test_same_settings_and_rhs_give_the_same_regime(self):
        rhs = np.linspace(0.0, 1.0, 5)
        assert measurement_regime(SolverSettings(maxiter=50), rhs) \
            == measurement_regime(SolverSettings(maxiter=50), rhs.copy())

    @pytest.mark.parametrize("other", [
        SolverSettings(rtol=1e-6, maxiter=50),
        SolverSettings(maxiter=51),
        SolverSettings(maxiter=50, gmres_restart=10),
    ], ids=["rtol", "maxiter", "restart"])
    def test_each_solver_setting_changes_the_regime(self, other):
        rhs = np.ones(5)
        assert measurement_regime(other, rhs) \
            != measurement_regime(SolverSettings(maxiter=50), rhs)

    def test_rhs_changes_the_regime(self):
        settings = SolverSettings(maxiter=50)
        rhs = np.ones(5)
        shifted = rhs.copy()
        shifted[2] += 1e-12
        assert measurement_regime(settings, rhs) \
            != measurement_regime(settings, shifted)
