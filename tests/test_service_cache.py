"""Tests for the shared artifact cache (repro.service.cache)."""

from __future__ import annotations

import threading

import numpy as np
import pytest
import scipy.sparse as sp

from repro.core.evaluation import MatrixEvaluator, SolverSettings
from repro.exceptions import ParameterError
from repro.mcmc.parameters import MCMCParameters
from repro.mcmc.walks import TransitionTable
from repro.service.cache import (
    ArtifactCache,
    cached_transition_table,
    configure_global_cache,
    global_cache,
    transition_table_key,
)
from repro.sparse.splitting import jacobi_splitting


class TestLRUSemantics:
    def test_put_get(self):
        cache = ArtifactCache(max_entries=4)
        cache.put(("k", 1), "value")
        assert cache.get(("k", 1)) == "value"
        assert cache.get(("k", 2)) is None
        assert cache.stats.hits == 1 and cache.stats.misses == 1

    def test_eviction_order(self):
        cache = ArtifactCache(max_entries=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")          # refresh a -> b is now LRU
        cache.put("c", 3)
        assert "b" not in cache
        assert "a" in cache and "c" in cache
        assert cache.stats.evictions == 1

    def test_clear_releases_entries(self):
        cache = ArtifactCache(max_entries=4)
        cache.put("a", np.zeros(10))
        cache.clear()
        assert len(cache) == 0
        assert cache.get("a") is None

    def test_invalid_capacity(self):
        with pytest.raises(ParameterError):
            ArtifactCache(max_entries=0)

    def test_get_or_build_builds_once(self):
        cache = ArtifactCache(max_entries=4)
        calls = []

        def builder():
            calls.append(1)
            return "built"

        assert cache.get_or_build("key", builder) == "built"
        assert cache.get_or_build("key", builder) == "built"
        assert len(calls) == 1
        assert cache.stats.builds == 1

    def test_get_or_build_thread_safe_single_build(self):
        cache = ArtifactCache(max_entries=4)
        build_count = []
        barrier = threading.Barrier(4)

        def builder():
            build_count.append(1)
            return "artifact"

        def worker():
            barrier.wait()
            assert cache.get_or_build("shared", builder) == "artifact"

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(build_count) == 1


def _csr(n: int) -> sp.csr_matrix:
    return sp.identity(n, format="csr")


def _weight(matrix: sp.csr_matrix) -> int:
    return matrix.data.nbytes + matrix.indices.nbytes + matrix.indptr.nbytes


class TestByteBound:
    def test_evicts_least_recently_used_first(self):
        a, b, c = _csr(10), _csr(10), _csr(10)
        cache = ArtifactCache(max_entries=8, max_bytes=2 * _weight(a))
        cache.put("a", a)
        cache.put("b", b)
        cache.get("a")          # refresh a -> b is now LRU
        assert cache.put("c", c) == ["b"]
        assert cache.keys() == ["a", "c"]
        assert cache.nbytes == 2 * _weight(a)
        assert cache.stats.evictions == 1

    def test_evicts_as_many_as_needed(self):
        small, big = _csr(5), _csr(20)
        cache = ArtifactCache(max_entries=8, max_bytes=_weight(big))
        cache.put("a", small)
        cache.put("b", small)
        assert cache.put("big", big) == ["a", "b"]
        assert cache.keys() == ["big"] and cache.nbytes == _weight(big)
        assert cache.stats.evictions == 2

    def test_oversize_value_is_not_kept_and_evicts_nothing(self):
        small = _csr(10)
        cache = ArtifactCache(max_entries=8, max_bytes=2 * _weight(small))
        cache.put("a", small)
        assert cache.put("big", _csr(100)) == []
        assert "big" not in cache
        assert cache.keys() == ["a"] and cache.nbytes == _weight(small)
        assert cache.stats.evictions == 0
        # An oversize replacement drops the old value: no stale hit.
        assert cache.put("a", _csr(100)) == []
        assert len(cache) == 0 and cache.nbytes == 0

    def test_replacing_a_key_reweighs_it(self):
        small, big = _csr(10), _csr(30)
        cache = ArtifactCache(max_entries=8, max_bytes=10 * _weight(big))
        cache.put("a", small)
        cache.put("b", small)
        cache.put("a", big)
        assert cache.nbytes == _weight(small) + _weight(big)
        cache.put("a", small)
        assert cache.nbytes == 2 * _weight(small)
        assert cache.keys() == ["b", "a"]

    def test_pop_removes_a_key_and_frees_its_bytes(self):
        a, b = _csr(10), _csr(20)
        cache = ArtifactCache(max_entries=8, max_bytes=1 << 20)
        cache.put("a", a)
        cache.put("b", b)
        assert cache.pop("a") is a
        assert "a" not in cache and cache.nbytes == _weight(b)
        assert cache.pop("a") is None and cache.pop("a", "gone") == "gone"
        assert cache.stats.requests == 0 and cache.stats.evictions == 0

    def test_only_csr_matrices_weigh(self):
        cache = ArtifactCache(max_entries=8, max_bytes=0)
        cache.put("text", "value")
        cache.put("dense", np.zeros(16))
        assert cache.keys() == ["text", "dense"] and cache.nbytes == 0

    def test_no_byte_bound_evicts_by_entries_only(self):
        cache = ArtifactCache(max_entries=2)
        assert cache.max_bytes is None
        big = _csr(10_000)
        assert cache.put("a", big) == [] and cache.put("b", big) == []
        assert cache.put("c", big) == ["a"]
        assert cache.nbytes == 2 * _weight(big)
        cache.clear()
        assert cache.nbytes == 0

    def test_invalid_byte_bound(self):
        with pytest.raises(ParameterError):
            ArtifactCache(max_bytes=-1)


class TestGlobalCache:
    def test_singleton(self):
        assert global_cache() is global_cache()

    def test_configure_replaces(self):
        original = global_cache()
        try:
            replaced = configure_global_cache(max_entries=3)
            assert global_cache() is replaced
            assert replaced is not original
            assert replaced.max_entries == 3
        finally:
            configure_global_cache()


class TestSharedTransitionTables:
    def test_two_evaluators_share_one_build(self, small_spd):
        """The acceptance scenario: one build, second evaluator hits."""
        cache = ArtifactCache(max_entries=8)
        settings = SolverSettings(maxiter=200)
        first = MatrixEvaluator(small_spd, "lap-a", settings=settings,
                                seed=0, cache=cache)
        second = MatrixEvaluator(small_spd, "lap-b", settings=settings,
                                 seed=1, cache=cache)
        table_first = first._transition_table(1.0)
        table_second = second._transition_table(1.0)
        assert table_first is table_second
        assert cache.stats.builds == 1
        assert cache.stats.hits == 1

    def test_cache_key_is_content_based(self, small_spd):
        cache = ArtifactCache(max_entries=8)
        settings = SolverSettings(maxiter=200)
        evaluator = MatrixEvaluator(small_spd, "lap", settings=settings,
                                    cache=cache)
        evaluator._transition_table(1.0)
        key = transition_table_key(evaluator.fingerprint, 1.0)
        assert key in cache

    def test_evaluator_and_server_share_one_table(self, small_spd):
        """The evaluator and the scheduler both go through
        ``cached_transition_table``: one key, one build, whatever number
        type ``alpha`` arrives as."""
        cache = ArtifactCache(max_entries=8)
        evaluator = MatrixEvaluator(small_spd, "lap",
                                    settings=SolverSettings(maxiter=200),
                                    cache=cache)
        table = evaluator._transition_table(1.0)
        assert cached_transition_table(cache, evaluator.fingerprint,
                                       small_spd, 1) is table
        assert cached_transition_table(cache, evaluator.fingerprint,
                                       small_spd, np.float64(1.0)) is table
        assert cache.stats.builds == 1

    def test_cached_table_is_the_jacobi_table(self, small_spd):
        table = cached_transition_table(ArtifactCache(max_entries=2), "lap",
                                        small_spd, 0.5)
        fresh = TransitionTable(jacobi_splitting(small_spd, 0.5).iteration_matrix)
        np.testing.assert_array_equal(table.row_nnz, fresh.row_nnz)
        assert table.norm_inf_b == fresh.norm_inf_b

    def test_different_alpha_different_entry(self, small_spd):
        cache = ArtifactCache(max_entries=8)
        evaluator = MatrixEvaluator(small_spd, "lap",
                                    settings=SolverSettings(maxiter=200),
                                    cache=cache)
        a = evaluator._transition_table(1.0)
        b = evaluator._transition_table(2.0)
        assert a is not b
        assert cache.stats.builds == 2

    def test_default_is_global_cache(self, small_spd):
        evaluator = MatrixEvaluator(small_spd, "lap",
                                    settings=SolverSettings(maxiter=200))
        assert evaluator.cache is global_cache()

    def test_evaluation_results_unchanged_by_sharing(self, small_spd):
        """Shared tables must not alter measured values (determinism)."""
        settings = SolverSettings(maxiter=200)
        parameters = MCMCParameters(alpha=1.0, eps=0.5, delta=0.5)
        isolated = MatrixEvaluator(small_spd, "lap", settings=settings,
                                   seed=2, cache=ArtifactCache(max_entries=2))
        shared_a = MatrixEvaluator(small_spd, "lap", settings=settings,
                                   seed=2, cache=ArtifactCache(max_entries=2))
        shared_b = MatrixEvaluator(small_spd, "lap", settings=settings,
                                   seed=2, cache=shared_a.cache)
        record_isolated = isolated.evaluate(parameters, n_replications=2)
        shared_a.evaluate(parameters, n_replications=2)  # warms the cache
        record_shared = shared_b.evaluate(parameters, n_replications=2)
        assert record_isolated.y_values == record_shared.y_values


class TestBuilderFailure:
    def test_failed_build_releases_key_lock(self):
        cache = ArtifactCache(max_entries=4)

        def broken():
            raise RuntimeError("build failed")

        with pytest.raises(RuntimeError):
            cache.get_or_build("key", broken)
        assert cache._key_locks == {}          # no leaked per-key lock
        # The key is retryable and a working builder succeeds afterwards.
        assert cache.get_or_build("key", lambda: "ok") == "ok"
