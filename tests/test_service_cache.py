"""Tests for the shared artifact cache (repro.service.cache)."""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.core.evaluation import MatrixEvaluator, SolverSettings
from repro.exceptions import ParameterError
from repro.mcmc.parameters import MCMCParameters
from repro.service.cache import (
    ArtifactCache,
    configure_global_cache,
    global_cache,
    transition_table_key,
)


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


def _local_function():
    def local():
        return None

    return local


class TestDiskSpill:
    def test_disk_backing_survives_new_cache(self, tmp_path):
        cache = ArtifactCache(max_entries=2, disk_dir=tmp_path)
        cache.put(("table", "fp", 1.0), np.arange(5.0))
        fresh = ArtifactCache(max_entries=2, disk_dir=tmp_path)
        loaded = fresh.get(("table", "fp", 1.0))
        np.testing.assert_array_equal(loaded, np.arange(5.0))
        assert fresh.stats.disk_hits == 1

    @pytest.mark.parametrize(
        "unpicklable", [threading.Lock(), _local_function()],
        ids=["c_object", "local_function"])
    def test_unpicklable_value_stays_in_memory(self, tmp_path, caplog,
                                               unpicklable):
        cache = ArtifactCache(max_entries=2, disk_dir=tmp_path)
        with caplog.at_level("WARNING", logger="repro.service.cache"):
            cache.put("key", unpicklable)
        assert "could not spill cache entry" in caplog.text
        assert list(tmp_path.iterdir()) == []  # no .tmp, no .pkl
        assert cache.get("key") is unpicklable

    def test_triangular_preconditioners_round_trip_through_disk(self,
                                                                tmp_path):
        """IC(0) and ILU(0) spill, are evicted, reload, and apply exactly as
        the originals do."""
        from repro.matrices import laplacian_2d, pdd_real_sparse
        from repro.precond import (ILU0Preconditioner,
                                   IncompleteCholeskyPreconditioner)

        originals = {"ic0": IncompleteCholeskyPreconditioner(laplacian_2d(10)),
                     "ilu0": ILU0Preconditioner(pdd_real_sparse(81, seed=1))}
        cache = ArtifactCache(max_entries=1, disk_dir=tmp_path)
        for key, preconditioner in originals.items():
            cache.put(key, preconditioner)
        assert cache.stats.evictions == 1 and "ic0" not in cache
        vector = np.random.default_rng(0).standard_normal(81)
        for hits, (key, preconditioner) in enumerate(originals.items(), 1):
            # each get evicts the other entry, so both reload from disk
            reloaded = cache.get(key)
            assert cache.stats.disk_hits == hits
            assert reloaded is not preconditioner
            assert np.array_equal(reloaded.apply(vector),
                                  preconditioner.apply(vector))

    def test_memory_only_cache_has_no_disk(self):
        cache = ArtifactCache(max_entries=2)
        cache.put("a", 1)
        assert cache.get("a") == 1  # nothing to assert on disk; no crash


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
