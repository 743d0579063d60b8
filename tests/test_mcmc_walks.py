"""Tests for the random-walk engine (repro.mcmc.walks)."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

from repro.exceptions import ParameterError
from repro.mcmc.walks import TransitionTable, WalkEngine, WalkStatistics
from repro.sparse.splitting import jacobi_splitting


def _engine_for(matrix, alpha, *, weight_cutoff=1e-3, max_steps=50):
    split = jacobi_splitting(matrix, alpha)
    table = TransitionTable(split.iteration_matrix)
    return split, table, WalkEngine(table, weight_cutoff=weight_cutoff,
                                    max_steps=max_steps)


class TestTransitionTable:
    def test_rejects_rectangular(self):
        with pytest.raises(ParameterError):
            TransitionTable(sp.csr_matrix(np.ones((2, 3))))

    def test_absorbing_rows(self):
        matrix = sp.csr_matrix(np.array([[0.0, 0.0], [1.0, 0.0]]))
        table = TransitionTable(matrix)
        assert table.is_absorbing(np.array([0]))[0]
        assert not table.is_absorbing(np.array([1]))[0]

    def test_step_respects_sparsity_pattern(self):
        matrix = sp.csr_matrix(np.array([[0.0, 2.0, 0.0],
                                         [0.0, 0.0, -1.0],
                                         [0.5, 0.0, 0.0]]))
        table = TransitionTable(matrix)
        rng = np.random.default_rng(0)
        states = np.array([0, 1, 2])
        next_states, multipliers = table.step(states, rng)
        np.testing.assert_array_equal(next_states, [1, 2, 0])
        np.testing.assert_allclose(multipliers, [2.0, -1.0, 0.5])

    def test_step_empty_input(self):
        table = TransitionTable(sp.identity(3, format="csr") * 0.5)
        next_states, multipliers = table.step(np.empty(0, dtype=np.int64),
                                              np.random.default_rng(0))
        assert next_states.size == 0 and multipliers.size == 0

    def test_transition_probabilities_proportional_to_magnitude(self):
        matrix = sp.csr_matrix(np.array([[0.0, 3.0, 1.0]] + [[0.0] * 3] * 2))
        table = TransitionTable(matrix)
        rng = np.random.default_rng(1)
        states = np.zeros(4000, dtype=np.int64)
        next_states, _ = table.step(states, rng)
        fraction_to_col1 = np.mean(next_states == 1)
        assert fraction_to_col1 == pytest.approx(0.75, abs=0.03)

    def test_row_abs_sums(self):
        matrix = sp.csr_matrix(np.array([[0.0, 2.0], [-3.0, 0.0]]))
        np.testing.assert_allclose(TransitionTable(matrix).row_abs_sums, [2.0, 3.0])


def _assert_category_totals(stats: WalkStatistics) -> None:
    """The mutually exclusive termination categories must partition the walks."""
    assert (stats.truncated_by_weight + stats.truncated_by_length
            + stats.exploded + stats.absorbed + stats.still_active
            ) == stats.n_walks


class TestWalkStatistics:
    def test_merge(self):
        a = WalkStatistics(2, 10, 5.0, 7, 1, 0, 1)
        b = WalkStatistics(3, 5, 5.0 / 3, 3, 0, 2, 0)
        merged = a.merge(b)
        assert merged.n_walks == 5
        assert merged.total_steps == 15
        assert merged.mean_length == pytest.approx(3.0)
        assert merged.max_length == 7
        assert merged.truncated_by_weight == 1
        assert merged.truncated_by_length == 2

    def test_merge_exploded_and_still_active(self):
        a = WalkStatistics(3, 9, 3.0, 5, 0, 0, 1, exploded=2, still_active=0)
        b = WalkStatistics(2, 4, 2.0, 3, 0, 0, 0, exploded=1, still_active=1)
        merged = a.merge(b)
        assert merged.exploded == 3
        assert merged.still_active == 1
        _assert_category_totals(merged)

    def test_empty_is_neutral(self):
        stats = WalkStatistics(4, 8, 2.0, 3, 1, 1, 1, exploded=1, still_active=0)
        assert WalkStatistics.empty().merge(stats) == stats


class TestWalkEngine:
    def test_invalid_construction(self):
        table = TransitionTable(sp.identity(2, format="csr") * 0.1)
        with pytest.raises(ParameterError):
            WalkEngine(table, weight_cutoff=-1.0, max_steps=5)
        with pytest.raises(ParameterError):
            WalkEngine(table, weight_cutoff=0.1, max_steps=0)

    def test_estimates_neumann_sum_diagonal_case(self):
        """For B = c*I the Neumann sum is 1/(1-c) on the diagonal, exactly."""
        c = 0.5
        b_matrix = sp.identity(6, format="csr") * c
        engine = WalkEngine(TransitionTable(b_matrix), weight_cutoff=1e-8,
                            max_steps=60)
        estimates, stats = engine.estimate_rows(np.arange(6), 1,
                                                np.random.default_rng(0))
        # A walk on c*I always stays on the diagonal with weight c^k: the
        # estimate is deterministic regardless of the chain count.
        np.testing.assert_allclose(estimates.diagonal(), 1.0 / (1.0 - c), rtol=1e-5)
        assert stats.n_walks == 6

    def test_estimates_converge_with_more_chains(self, small_spd):
        split, _table, _ = _engine_for(small_spd, 2.0)
        truth = np.linalg.inv(np.eye(split.dimension)
                              - split.iteration_matrix.toarray())
        errors = []
        for chains in (4, 64):
            _, table, engine = _engine_for(small_spd, 2.0, weight_cutoff=1e-6,
                                           max_steps=200)
            estimates, _ = engine.estimate_rows(np.arange(split.dimension), chains,
                                                np.random.default_rng(1))
            errors.append(np.linalg.norm(estimates - truth) / np.linalg.norm(truth))
        assert errors[1] < errors[0]

    def test_unbiasedness_of_mean_estimate(self, small_spd):
        """Averaging many independent runs approaches the true Neumann sum."""
        split, table, engine = _engine_for(small_spd, 3.0, weight_cutoff=1e-7,
                                           max_steps=200)
        truth = np.linalg.inv(np.eye(split.dimension)
                              - split.iteration_matrix.toarray())
        rows = np.arange(10)
        accumulator = np.zeros((10, split.dimension))
        n_runs = 30
        for run in range(n_runs):
            estimates, _ = engine.estimate_rows(rows, 8, np.random.default_rng(run))
            accumulator += estimates
        accumulator /= n_runs
        relative_error = (np.linalg.norm(accumulator - truth[rows])
                          / np.linalg.norm(truth[rows]))
        assert relative_error < 0.08

    def test_statistics_fields_consistent(self, small_spd):
        _, _, engine = _engine_for(small_spd, 1.0, max_steps=20)
        _, stats = engine.estimate_rows(np.arange(10), 3, np.random.default_rng(2))
        assert stats.n_walks == 30
        assert 0 <= stats.mean_length <= stats.max_length <= 20

    def test_weight_explosion_guard(self):
        """A strongly divergent iteration matrix must not produce NaN estimates."""
        b_matrix = sp.csr_matrix(np.array([[0.0, 3.0], [3.0, 0.0]]))
        engine = WalkEngine(TransitionTable(b_matrix), weight_cutoff=1e-8,
                            max_steps=500)
        estimates, _ = engine.estimate_rows(np.arange(2), 4, np.random.default_rng(0))
        assert np.all(np.isfinite(estimates.toarray()))

    def test_invalid_chain_count(self, small_spd):
        _, _, engine = _engine_for(small_spd, 1.0)
        with pytest.raises(ParameterError):
            engine.estimate_rows(np.arange(3), 0, np.random.default_rng(0))

    @pytest.mark.parametrize("start_rows", [[-1], [0, 49], [3, 50]])
    def test_start_rows_outside_the_matrix_are_rejected(self, small_spd,
                                                        start_rows):
        """Row -1 used to return row n-1's estimate, and row >= n an
        ``IndexError``; with flat ``row * n + state`` keys a stray row would
        corrupt a neighbour's entries."""
        _, _, engine = _engine_for(small_spd, 1.0)
        with pytest.raises(ParameterError):
            engine.estimate_rows(np.array(start_rows), 2,
                                 np.random.default_rng(0))

    @pytest.mark.parametrize("chains", [2.5, 2.0, True])
    def test_non_integer_chain_count_is_rejected(self, small_spd, chains):
        """2.5 used to run two walks a row and divide their sums by 2.5."""
        _, _, engine = _engine_for(small_spd, 1.0)
        with pytest.raises(ParameterError):
            engine.estimate_rows(np.arange(3), chains, np.random.default_rng(0))

    def test_numpy_integer_chain_count_is_accepted(self, small_spd):
        _, _, engine = _engine_for(small_spd, 1.0)
        plain, _ = engine.estimate_rows(np.arange(3), 2,
                                        np.random.default_rng(0))
        numpy, _ = engine.estimate_rows(np.arange(3), np.int64(2),
                                        np.random.default_rng(0))
        assert (plain != numpy).nnz == 0

    def test_estimate_is_canonical_csr(self, small_spd):
        """Sorted, duplicate-free columns per row: the sums need no later
        ``sum_duplicates`` / ``sort_indices`` pass."""
        _, _, engine = _engine_for(small_spd, 1.0)
        estimates, _ = engine.estimate_rows(np.array([5, 0, 5]), 3,
                                            np.random.default_rng(4))
        assert isinstance(estimates, sp.csr_matrix)
        assert estimates.shape == (3, small_spd.shape[0])
        assert estimates.has_canonical_format

    def test_empty_row_selection(self, small_spd):
        _, _, engine = _engine_for(small_spd, 1.0)
        estimates, stats = engine.estimate_rows(np.empty(0, dtype=np.int64), 2,
                                                np.random.default_rng(0))
        assert estimates.shape == (0, small_spd.shape[0])
        assert stats.n_walks == 0


class TestTerminationCategories:
    """Mutual exclusivity and totals of the WalkStatistics categories."""

    def test_absorbing_beats_weight_cutoff(self):
        # The single transition lands on an absorbing row with weight 0.5,
        # simultaneously below the 0.6 cutoff: absorption has priority.
        b_matrix = sp.csr_matrix(np.array([[0.0, 0.5], [0.0, 0.0]]))
        engine = WalkEngine(TransitionTable(b_matrix), weight_cutoff=0.6,
                            max_steps=10)
        _, stats = engine.estimate_rows(np.array([0]), 4,
                                        np.random.default_rng(0))
        assert stats.absorbed == stats.n_walks == 4
        assert stats.truncated_by_weight == 0
        _assert_category_totals(stats)

    def test_explosion_counted_separately(self):
        # Divergent weights (3^k) explode long before the step cap; they must
        # land in `exploded`, not in `truncated_by_length`.
        b_matrix = sp.csr_matrix(np.array([[0.0, 3.0], [3.0, 0.0]]))
        engine = WalkEngine(TransitionTable(b_matrix), weight_cutoff=1e-8,
                            max_steps=500)
        _, stats = engine.estimate_rows(np.arange(2), 3,
                                        np.random.default_rng(0))
        assert stats.exploded == stats.n_walks == 6
        assert stats.truncated_by_length == 0
        _assert_category_totals(stats)

    def test_step_cap_counts_as_length_truncation(self):
        # weight_cutoff=0 never fires (strict comparison), the chain never
        # absorbs: every walk must run to the cap and count as length-truncated.
        b_matrix = sp.identity(4, format="csr") * 0.5
        engine = WalkEngine(TransitionTable(b_matrix), weight_cutoff=0.0,
                            max_steps=5)
        _, stats = engine.estimate_rows(np.arange(4), 2,
                                        np.random.default_rng(0))
        assert stats.truncated_by_length == stats.n_walks == 8
        assert stats.max_length == 5
        _assert_category_totals(stats)

    def test_start_on_absorbing_row(self):
        b_matrix = sp.csr_matrix(np.array([[0.0, 0.0], [1.0, 0.0]]))
        engine = WalkEngine(TransitionTable(b_matrix), weight_cutoff=1e-3,
                            max_steps=10)
        _, stats = engine.estimate_rows(np.array([0]), 3,
                                        np.random.default_rng(0))
        assert stats.absorbed == stats.n_walks == 3
        _assert_category_totals(stats)

    @pytest.mark.parametrize("alpha,cutoff,max_steps", [
        (1.0, 1e-3, 20), (2.0, 1e-6, 200), (0.5, 0.25, 3)])
    def test_totals_partition_on_spd(self, small_spd, alpha, cutoff, max_steps):
        _, _, engine = _engine_for(small_spd, alpha, weight_cutoff=cutoff,
                                   max_steps=max_steps)
        _, stats = engine.estimate_rows(np.arange(small_spd.shape[0]), 3,
                                        np.random.default_rng(7))
        assert stats.still_active == 0
        _assert_category_totals(stats)


class TestVectorisedTableEquivalence:
    """The vectorised TransitionTable must match the seed loop construction."""

    @pytest.mark.parametrize("seed,n,density", [(0, 30, 0.2), (1, 57, 0.1),
                                                (2, 17, 0.9)])
    def test_matches_loop_on_random_matrices(self, seed, n, density):
        from repro.sparse.csr import random_sparse

        matrix = random_sparse(n, density, seed=seed)
        self._assert_equivalent(matrix)

    def test_matches_loop_with_empty_rows(self):
        dense = np.array([[0.0, 2.0, -1.0],
                          [0.0, 0.0, 0.0],
                          [0.5, 0.0, 0.0]])
        self._assert_equivalent(sp.csr_matrix(dense))

    def test_matches_loop_on_structured_matrix(self, small_spd):
        split = jacobi_splitting(small_spd, 1.0)
        self._assert_equivalent(split.iteration_matrix)

    @staticmethod
    def _assert_equivalent(matrix):
        from oracles.reference import LoopTransitionTable

        table = TransitionTable(matrix)
        reference = LoopTransitionTable(matrix)
        np.testing.assert_allclose(table.row_abs_sums, reference._row_abs_sum,
                                   rtol=1e-12, atol=0.0)
        np.testing.assert_array_equal(table._row_nnz, reference._row_nnz)
        np.testing.assert_array_equal(table._columns, reference._columns)
        np.testing.assert_allclose(table._multiplier, reference._multiplier,
                                   rtol=1e-12, atol=0.0)
        # The inverse-CDF table is compared on the valid (non-padding) region:
        # padding conventions differ and padding is never sampled.
        width = table._cumprob.shape[1]
        valid = np.arange(width)[None, :] < reference._row_nnz[:, None]
        np.testing.assert_allclose(table._cumprob[valid],
                                   reference._cumprob[valid],
                                   rtol=0.0, atol=1e-12)


def _linear_step(table, states, uniforms):
    """``TransitionTable.step`` as first written: count the cumulative
    probabilities ``< u`` along the whole padded row, then clamp the count to
    the row's last real entry.  Also returns where the clamp fired."""
    count = np.sum(table._cumprob[states] < uniforms[:, None], axis=1)
    last = np.maximum(table.row_nnz[states] - 1, 0)
    choice = np.minimum(count, last)
    return (table._columns[states, choice], table._multiplier[states, choice],
            count > last)


def _random_table(seed: int, n: int = 60) -> TransitionTable:
    """Rows of every length from 1 to ``n`` (one dense), a few empty ones,
    and rows whose tiny entries next to huge ones have probability 0.0."""
    rng = np.random.default_rng(seed)
    dense = np.zeros((n, n))
    for row in range(n):
        length = n if row == 0 else int(rng.integers(0, n + 1))
        columns = rng.choice(n, size=length, replace=False)
        dense[row, columns] = rng.standard_normal(length)
        if row % 4 == 1 and length >= 3:
            dense[row, columns[:length // 2]] = 1e-300
            dense[row, columns[-1]] = 1e20
    return TransitionTable(sp.csr_matrix(dense))


class TestStepBinarySearch:
    """``step``'s binary search picks the entry the linear count picks."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_the_linear_count(self, seed):
        table = _random_table(seed)
        live = np.flatnonzero(table.row_nnz > 0)
        # Every uniform that lands exactly on a real cumulative entry, the
        # extremes of [0, 1), an out-of-range 1.5 and random draws, each from
        # every live row.
        ties = [(row, table._cumprob[row, k]) for row in live
                for k in range(table.row_nnz[row]) if table._cumprob[row, k] < 1]
        rng = np.random.default_rng(100 + seed)
        states = np.concatenate([[row for row, _ in ties], live, live, live,
                                 np.repeat(live, 50)])
        uniforms = np.concatenate([[value for _, value in ties],
                                   np.zeros(live.size),
                                   np.full(live.size, 1.0 - 2.0 ** -53),
                                   np.full(live.size, 1.5),
                                   rng.random(50 * live.size)])
        next_states, multipliers = table.step(states, uniforms=uniforms)
        expected_states, expected_multipliers, clamped = _linear_step(
            table, states, uniforms)
        np.testing.assert_array_equal(next_states, expected_states)
        np.testing.assert_array_equal(multipliers, expected_multipliers)
        # The cases that make the search's argument: stored entries of
        # probability zero, and a row total below some u, which the linear
        # count only gets right through its clamp.
        assert np.any(np.diff(table._cumprob[live], axis=1)[
            np.arange(table.max_row_nnz - 1)[None, :]
            < table.row_nnz[live, None] - 1] == 0.0)
        assert clamped.any()

    def test_one_wide_step_allocates_less_than_the_padded_rows(self):
        """8,000 walks on a 225-wide table: the linear count gathered a
        ``(walks, width)`` block of 14.4 MB; the search keeps ``(walks,)``
        arrays only."""
        from repro.matrices import unsteady_advection_diffusion

        matrix = unsteady_advection_diffusion(15, order=2)
        table = TransitionTable(jacobi_splitting(matrix, 1.92).iteration_matrix)
        assert table.max_row_nnz == 225
        walks, width = 8000, table._cumprob.shape[1]
        rng = np.random.default_rng(0)
        states = rng.integers(0, table.dimension, walks)
        uniforms = rng.random(walks)
        tracemalloc.start()
        try:
            table.step(states, uniforms=uniforms)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < walks * width


class TestBatchedUniformDraws:
    """The pre-generated uniform blocks must pin the per-step stream exactly."""

    def test_block_source_matches_stream(self):
        from repro.mcmc.walks import UniformBlockSource

        source = UniformBlockSource(np.random.default_rng(3), block_size=4)
        served = np.concatenate([source.take(3), source.take(6),
                                 source.take(0), source.take(2)])
        np.testing.assert_array_equal(served,
                                      np.random.default_rng(3).random(11))

    def test_block_source_invalid(self):
        from repro.mcmc.walks import UniformBlockSource

        with pytest.raises(ParameterError):
            UniformBlockSource(np.random.default_rng(0), block_size=0)
        source = UniformBlockSource(np.random.default_rng(0))
        with pytest.raises(ParameterError):
            source.take(-1)

    @pytest.mark.parametrize("block_size", [1, 7, 512, 65536])
    def test_estimates_independent_of_block_size(self, small_spd, block_size):
        split = jacobi_splitting(small_spd, 1.0)
        table = TransitionTable(split.iteration_matrix)
        reference_engine = WalkEngine(table, weight_cutoff=1e-3, max_steps=40,
                                      rng_block_size=1)
        reference, ref_stats = reference_engine.estimate_rows(
            np.arange(table.dimension), 4, np.random.default_rng(11))
        engine = WalkEngine(table, weight_cutoff=1e-3, max_steps=40,
                            rng_block_size=block_size)
        estimates, stats = engine.estimate_rows(
            np.arange(table.dimension), 4, np.random.default_rng(11))
        np.testing.assert_array_equal(estimates.toarray(), reference.toarray())
        assert stats == ref_stats

    def test_matches_manual_per_step_stream(self, small_spd):
        """Bitwise equivalence with per-step ``rng.random`` draws (old scheme)."""
        split = jacobi_splitting(small_spd, 2.0)
        table = TransitionTable(split.iteration_matrix)
        start_rows = np.array([0, 3, 5])
        chains = 3
        max_steps = 25
        cutoff = 1e-2

        engine = WalkEngine(table, weight_cutoff=cutoff, max_steps=max_steps)
        estimates, _ = engine.estimate_rows(start_rows, chains,
                                            np.random.default_rng(7))

        rng = np.random.default_rng(7)
        states = np.repeat(start_rows, chains)
        walk_row = np.repeat(np.arange(start_rows.size), chains)
        weights = np.ones(states.size)
        manual = np.zeros((start_rows.size, table.dimension))
        np.add.at(manual, (walk_row, states), weights)
        active = np.flatnonzero(~table.is_absorbing(states))
        step = 0
        while active.size and step < max_steps:
            step += 1
            next_states, multipliers = table.step(states[active], rng)
            new_weights = weights[active] * multipliers
            states[active] = next_states
            weights[active] = new_weights
            np.add.at(manual, (walk_row[active], next_states), new_weights)
            keep = ~((np.abs(new_weights) < cutoff)
                     | table.is_absorbing(next_states)
                     | (np.abs(new_weights) > WalkEngine.WEIGHT_EXPLOSION_CAP))
            active = active[keep]
        manual /= float(chains)
        np.testing.assert_array_equal(estimates.toarray(), manual)

    def test_step_uniform_validation(self):
        table = TransitionTable(sp.identity(3, format="csr") * 0.5)
        states = np.array([0, 1])
        with pytest.raises(ParameterError):
            table.step(states)  # neither rng nor uniforms
        with pytest.raises(ParameterError):
            table.step(states, uniforms=np.array([0.5]))  # wrong count
