"""Tests for the matrix registry and the cheap feature extraction."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import MatrixFormatError
from repro.matrices import (
    MATRIX_REGISTRY,
    feature_names,
    feature_vector,
    get_matrix,
    get_spec,
    laplacian_2d,
    list_matrix_names,
    matrix_features,
    table1_specs,
    training_specs,
)
from repro.matrices import test_specs as registry_test_specs
from repro.matrices.features import nearest_feature_neighbour


class TestRegistry:
    def test_twelve_entries_like_table1(self):
        assert len(MATRIX_REGISTRY) == 12

    def test_exactly_one_test_matrix(self):
        specs = registry_test_specs()
        assert len(specs) == 1
        assert specs[0].name == "unsteady_adv_diff_order2_0001"

    def test_training_specs_exclude_test_matrix(self):
        names = {spec.name for spec in training_specs()}
        assert "unsteady_adv_diff_order2_0001" not in names

    def test_training_specs_dimension_filter(self):
        small = training_specs(max_dimension=300)
        assert all(spec.dimension <= 300 for spec in small)
        assert small  # the filter never empties the pool at this threshold

    def test_get_spec_unknown_name(self):
        with pytest.raises(MatrixFormatError):
            get_spec("no_such_matrix")

    def test_list_matrix_names_order(self):
        assert list_matrix_names()[0] == "2DFDLaplace_16"

    @pytest.mark.parametrize("name", [
        "2DFDLaplace_16", "PDD_RealSparse_N64", "PDD_RealSparse_N128",
        "PDD_RealSparse_N256", "a00512", "unsteady_adv_diff_order1_0001",
        "unsteady_adv_diff_order2_0001",
    ])
    def test_small_generators_match_registry_metadata(self, name):
        spec = get_spec(name)
        matrix = get_matrix(name)
        assert matrix.shape == (spec.dimension, spec.dimension)

    def test_table1_specs_cover_registry(self):
        assert len(table1_specs()) == len(MATRIX_REGISTRY)

    def test_symmetry_flags_consistent(self):
        from repro.sparse import is_symmetric

        for spec in table1_specs():
            if spec.dimension <= 512:
                assert is_symmetric(spec.build()) == spec.symmetric, spec.name


class TestFeatures:
    def test_feature_vector_order_and_length(self, small_spd):
        vector = feature_vector(small_spd)
        names = feature_names()
        assert vector.shape == (len(names),)
        mapping = matrix_features(small_spd)
        np.testing.assert_allclose(vector, [mapping[name] for name in names])

    def test_features_are_finite(self, small_nonsym):
        assert np.all(np.isfinite(feature_vector(small_nonsym)))

    def test_symmetricity_feature(self, small_spd, small_nonsym):
        assert matrix_features(small_spd)["symmetricity"] == pytest.approx(1.0)
        assert matrix_features(small_nonsym)["symmetricity"] < 1.0

    def test_log_dimension_feature(self):
        features = matrix_features(laplacian_2d(11))
        assert features["log_dimension"] == pytest.approx(np.log10(100))

    def test_degree_features(self, small_spd):
        features = matrix_features(small_spd)
        assert features["max_degree"] == 5.0  # interior 5-point stencil rows
        assert 0.0 < features["mean_degree"] <= 5.0

    def test_rejects_rectangular(self):
        with pytest.raises(MatrixFormatError):
            matrix_features(np.ones((2, 3)))


class TestStructuralFlags:
    """Predicates behind the solve-server preconditioner rule table."""

    def test_spd_laplacian(self):
        from repro.matrices import structural_flags

        flags = structural_flags(laplacian_2d(8))
        assert flags["symmetric"] and flags["positive_diagonal"]
        assert flags["spd_like"] and flags["nonzero_diagonal"]

    def test_zero_diagonal(self):
        import scipy.sparse as sp
        from repro.matrices import structural_flags

        flags = structural_flags(
            sp.csr_matrix(np.array([[0.0, 1.0], [1.0, 0.0]])))
        assert not flags["nonzero_diagonal"]
        assert not flags["spd_like"]
        assert not flags["diag_dominant"]

    def test_diagonal_matrix_is_maximally_dominant(self):
        import scipy.sparse as sp
        from repro.matrices import structural_flags

        flags = structural_flags(sp.diags([1.0, 2.0, 3.0], format="csr"))
        assert flags["diag_dominant"]
        assert flags["dominance"] == 1e3  # clipped "infinite" dominance


class TestDegenerateFeatureInputs:
    """feature_vector must stay finite on the policy's pathological inputs."""

    def test_diagonal_only_matrix(self):
        import scipy.sparse as sp

        vector = feature_vector(sp.diags([2.0, 3.0, 4.0], format="csr"))
        assert np.all(np.isfinite(vector))

    def test_single_entry_matrix(self):
        import scipy.sparse as sp

        vector = feature_vector(sp.csr_matrix(np.array([[5.0]])))
        assert np.all(np.isfinite(vector))

    def test_highly_nonsymmetric_matrix(self):
        import scipy.sparse as sp

        dense = np.triu(np.ones((10, 10))) + 0.5 * np.eye(10)
        features = matrix_features(sp.csr_matrix(dense))
        assert all(np.isfinite(v) for v in features.values())
        assert features["symmetricity"] < 0.5

    def test_near_singular_matrix(self):
        import scipy.sparse as sp

        dense = np.diag([1.0, 1e-300, 1.0]) + 1e-301 * np.ones((3, 3))
        vector = feature_vector(sp.csr_matrix(dense))
        assert np.all(np.isfinite(vector))

    def test_tiny_values_do_not_break_log_norms(self):
        import scipy.sparse as sp

        vector = feature_vector(sp.csr_matrix(1e-308 * np.eye(4)))
        assert np.all(np.isfinite(vector))


class TestDegenerateStoreWarmStart:
    """Feature standardisation must survive degenerate stores (regression).

    A store whose registered feature vectors share constant columns, contain
    near-zero-variance columns, or carry non-finite entries used to emit NaN
    (or overflowed) distances from the shared standardise-then-distance
    kernel, silently breaking the ladder's ``warm_start`` stage.  The stage
    is driven here over stores seeded directly with one record per matrix.
    """

    def test_constant_feature_columns_yield_finite_distances(self):
        # Every candidate and the target agree on the second column.
        candidates = [np.array([1.0, 7.0, 3.0]), np.array([4.0, 7.0, 3.5])]
        found = nearest_feature_neighbour(candidates, np.array([1.2, 7.0, 3.1]))
        assert found is not None
        best, distance = found
        assert best == 0
        assert np.isfinite(distance)

    def test_near_zero_variance_column_does_not_overflow(self):
        # Denormal-scale jitter in one column: dividing by its std would
        # amplify rounding noise by ~1e300 and swamp every real feature.
        candidates = [np.array([1.0, 1e-300]), np.array([5.0, 3e-300])]
        found = nearest_feature_neighbour(candidates, np.array([1.1, 2e-300]))
        assert found is not None
        best, distance = found
        assert best == 0
        assert np.isfinite(distance)

    def test_non_finite_feature_entries_do_not_poison_distances(self):
        # One corrupt candidate with an inf feature: inf - mean(inf) = NaN
        # used to propagate into *every* distance via the shared column std.
        candidates = [np.array([1.0, np.inf]), np.array([2.0, np.inf])]
        found = nearest_feature_neighbour(candidates, np.array([1.4, np.inf]))
        assert found is not None
        best, distance = found
        assert best == 0
        assert np.isfinite(distance)

    @staticmethod
    def _remember(store, matrix, name, features=None):
        """Register ``matrix`` and give it one record, so it can donate."""
        from repro.core.evaluation import PerformanceRecord
        from repro.mcmc.parameters import MCMCParameters
        from repro.sparse.fingerprint import matrix_fingerprint

        fingerprint = matrix_fingerprint(matrix)
        store.register_matrix(fingerprint, name, feature_vector(matrix)
                              if features is None else features)
        store.put_record(fingerprint, PerformanceRecord(
            parameters=MCMCParameters(alpha=2.0, eps=0.5, delta=0.5),
            matrix_name=name, baseline_iterations=10,
            preconditioned_iterations=[5], y_values=[0.5]), context="t")

    @staticmethod
    def _donated(store, matrix):
        from repro.service.ladder import StoreSnapshot, warm_start
        from repro.sparse.fingerprint import matrix_fingerprint

        return next(warm_start(StoreSnapshot(store), matrix,
                               matrix_fingerprint(matrix)), None)

    def test_nearest_neighbour_prefers_similar_structure(self, tmp_path):
        from repro.matrices import pdd_real_sparse
        from repro.service.store import ObservationStore

        store = ObservationStore(tmp_path / "store")
        self._remember(store, laplacian_2d(8), "lap8")
        self._remember(store, pdd_real_sparse(40, density=0.2, dominance=2.0,
                                              seed=1), "pdd")
        donated = self._donated(store, laplacian_2d(9))
        assert donated is not None
        assert donated.neighbour_name == "lap8"

    def test_service_warm_start_with_degenerate_registered_features(
            self, tmp_path):
        from repro.matrices import pdd_real_sparse
        from repro.service.store import ObservationStore

        # A store seeded with one healthy matrix plus one whose persisted
        # feature vector is corrupt (NaN) must still warm-start from the
        # healthy neighbour with a finite distance.
        store = ObservationStore(tmp_path / "store")
        self._remember(store, laplacian_2d(8), "lap8")
        self._remember(store, pdd_real_sparse(30, density=0.2, dominance=2.0,
                                              seed=3), "corrupt",
                       features=np.full(14, np.nan))
        donated = self._donated(store, laplacian_2d(9))
        assert donated is not None
        assert np.isfinite(donated.neighbour_distance)
        assert donated.neighbour_name == "lap8"
