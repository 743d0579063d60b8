"""Unit tests of the ``stored`` and ``warm_start`` ladder stages.

``tests/test_ladder_golden.py`` pins what the stages decide inside the
solve server's policy; these tests pin each stage on its own, over stores
seeded directly with records.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.evaluation import PerformanceRecord
from repro.matrices import feature_vector, laplacian_2d, pdd_real_sparse
from repro.mcmc.parameters import MCMCParameters, ParameterBounds
from repro.service import ladder
from repro.service.ladder import (
    ORIGIN_STORED,
    ORIGIN_WARM_START,
    StoreSnapshot,
    stored,
    warm_start,
)
from repro.service.store import ObservationStore
from repro.sparse.fingerprint import matrix_fingerprint


def _put(store, matrix, name, parameters, y_values, *, features=True):
    """Register ``matrix`` (with its features unless told not to) and
    store one record of ``parameters``; returns the fingerprint."""
    fingerprint = matrix_fingerprint(matrix)
    store.register_matrix(fingerprint, name,
                          feature_vector(matrix) if features else None)
    store.put_record(fingerprint, PerformanceRecord(
        parameters=parameters, matrix_name=name, baseline_iterations=10,
        preconditioned_iterations=[round(10 * y) for y in y_values],
        y_values=list(y_values)), context="t")
    return fingerprint


FAST = MCMCParameters(alpha=1.0, eps=0.25, delta=0.25)
SLOW = MCMCParameters(alpha=3.0, eps=0.5, delta=0.5)
CG = MCMCParameters(alpha=2.0, eps=0.5, delta=0.5, solver="cg")


@pytest.fixture()
def store(tmp_path):
    return ObservationStore(tmp_path / "store")


class TestStored:
    def test_best_first_with_measured_statistics(self, store):
        matrix = laplacian_2d(8)
        fingerprint = _put(store, matrix, "lap8", SLOW, [0.8, 0.6])
        _put(store, matrix, "lap8", FAST, [0.3, 0.5])
        proposals = list(stored(StoreSnapshot(store), fingerprint))
        assert [p.parameters for p in proposals] == [FAST, SLOW]
        assert {p.origin for p in proposals} == {ORIGIN_STORED}
        assert proposals[0].y_mean == pytest.approx(0.4)
        assert proposals[0].y_std == pytest.approx(np.std([0.3, 0.5],
                                                          ddof=1))
        assert proposals[0].neighbour_name is None

    def test_identity_is_content_not_name(self, store):
        # The same content under another name is the same matrix; a
        # different matrix under the same name is not.
        fingerprint = _put(store, laplacian_2d(8), "lap8", FAST, [0.4])
        snapshot = StoreSnapshot(store)
        renamed = matrix_fingerprint(laplacian_2d(8).tocoo().tocsr())
        assert [p.parameters for p in stored(snapshot, renamed)] == [FAST]
        assert renamed == fingerprint
        assert list(stored(snapshot, matrix_fingerprint(laplacian_2d(9)))) \
            == []

    def test_named_solver_filters_records(self, store):
        matrix = laplacian_2d(8)
        fingerprint = _put(store, matrix, "lap8", CG, [0.2])
        _put(store, matrix, "lap8", FAST, [0.4])
        snapshot = StoreSnapshot(store)
        assert [p.parameters for p in stored(snapshot, fingerprint)] \
            == [CG, FAST]
        assert [p.parameters for p in stored(snapshot, fingerprint,
                                             solver="gmres")] == [FAST]
        assert list(stored(snapshot, fingerprint, solver="bicgstab")) == []

    def test_snapshot_does_not_see_later_records(self, store):
        matrix = laplacian_2d(8)
        fingerprint = _put(store, matrix, "lap8", SLOW, [0.8])
        snapshot = StoreSnapshot(store)
        _put(store, matrix, "lap8", FAST, [0.1])
        assert [p.parameters for p in stored(snapshot, fingerprint)] == [SLOW]
        assert [p.parameters for p in stored(StoreSnapshot(store),
                                             fingerprint)] == [FAST, SLOW]


class TestStoreSnapshot:
    def test_no_store_knows_nothing(self):
        snapshot = StoreSnapshot()
        assert snapshot.names == {} and snapshot.pool == []
        assert snapshot.best_first("0" * 64) == ()

    def test_pool_needs_features_and_records(self, store):
        donor = _put(store, laplacian_2d(8), "lap8", FAST, [0.4])
        _put(store, laplacian_2d(9), "lap9", FAST, [0.4], features=False)
        unmeasured = matrix_fingerprint(laplacian_2d(10))
        store.register_matrix(unmeasured, "lap10",
                              feature_vector(laplacian_2d(10)))
        snapshot = StoreSnapshot(store)
        assert [fingerprint for fingerprint, _, _ in snapshot.pool] == [donor]
        assert set(snapshot.names.values()) == {"lap8", "lap9", "lap10"}


class TestWarmStart:
    def test_neighbour_donates_its_records_best_first(self, store):
        _put(store, laplacian_2d(8), "lap8", SLOW, [0.9])
        _put(store, laplacian_2d(8), "lap8", FAST, [0.2])
        target = laplacian_2d(9)
        proposals = list(warm_start(StoreSnapshot(store), target,
                                    matrix_fingerprint(target)))
        assert [p.parameters for p in proposals] == [FAST, SLOW]
        assert {p.origin for p in proposals} == {ORIGIN_WARM_START}
        assert {p.neighbour_name for p in proposals} == {"lap8"}
        assert all(np.isfinite(p.neighbour_distance) for p in proposals)
        assert all(p.y_mean is None for p in proposals)

    def test_nearest_neighbour_is_chosen(self, store):
        _put(store, laplacian_2d(8), "lap8", FAST, [0.3])
        _put(store, pdd_real_sparse(40, density=0.2, dominance=2.0, seed=1),
             "pdd", SLOW, [0.2])
        target = laplacian_2d(9)
        first = next(warm_start(StoreSnapshot(store), target,
                                matrix_fingerprint(target)))
        assert first.neighbour_name == "lap8"
        assert first.parameters == FAST

    def test_matrix_never_donates_to_itself(self, store):
        matrix = laplacian_2d(8)
        fingerprint = _put(store, matrix, "lap8", FAST, [0.3])
        assert list(warm_start(StoreSnapshot(store), matrix,
                               fingerprint)) == []

    def test_empty_pool_declines_without_a_feature_pass(self, store,
                                                        monkeypatch):
        def refuse(matrix):
            raise AssertionError("feature_vector computed")

        monkeypatch.setattr(ladder, "feature_vector", refuse)
        target = laplacian_2d(9)
        assert list(warm_start(StoreSnapshot(), target,
                               matrix_fingerprint(target))) == []
        assert list(warm_start(StoreSnapshot(store), target,
                               matrix_fingerprint(target))) == []

    def test_donated_parameters_are_clipped_into_bounds(self, store):
        _put(store, laplacian_2d(8), "lap8", SLOW, [0.3])
        target = laplacian_2d(9)
        bounds = ParameterBounds(alpha=(0.5, 2.0), eps=(0.0625, 0.4),
                                 delta=(0.0625, 1.0))
        (proposal,) = warm_start(StoreSnapshot(store), target,
                                 matrix_fingerprint(target), bounds=bounds)
        assert proposal.parameters == MCMCParameters(alpha=2.0, eps=0.4,
                                                     delta=0.5)

    def test_named_solver_filters_donated_records(self, store):
        _put(store, laplacian_2d(8), "lap8", CG, [0.1])
        _put(store, laplacian_2d(8), "lap8", FAST, [0.3])
        target = laplacian_2d(9)
        fingerprint = matrix_fingerprint(target)
        snapshot = StoreSnapshot(store)
        assert [p.parameters for p in warm_start(snapshot, target,
                                                 fingerprint)] == [CG, FAST]
        assert [p.parameters for p in warm_start(
            snapshot, target, fingerprint, solver="cg")] == [CG]
        assert list(warm_start(snapshot, target, fingerprint,
                               solver="bicgstab")) == []
