"""Tests for the row blocks and per-block random streams of the MCMC inverse."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.parallel
from repro.exceptions import ParameterError
from repro.parallel import (
    Partition,
    TaskRNGFactory,
    partition_by_weight,
    partition_rows,
)


class TestPartition:
    def test_basic_properties(self):
        partition = Partition(0, 2, 6)
        assert partition.size == 4
        assert list(partition) == [2, 3, 4, 5]
        np.testing.assert_array_equal(partition.indices(), [2, 3, 4, 5])

    def test_invalid_bounds(self):
        with pytest.raises(ParameterError):
            Partition(0, 5, 3)

    def test_partition_rows_covers_everything(self):
        blocks = partition_rows(10, 3)
        covered = [i for block in blocks for i in block]
        assert covered == list(range(10))

    def test_partition_rows_no_empty_blocks(self):
        blocks = partition_rows(2, 5)
        assert len(blocks) == 2
        assert all(block.size > 0 for block in blocks)

    def test_partition_rows_zero(self):
        assert partition_rows(0, 3) == []

    def test_partition_rows_invalid(self):
        with pytest.raises(ParameterError):
            partition_rows(5, 0)
        with pytest.raises(ParameterError):
            partition_rows(-1, 2)

    def test_partition_by_weight_balances(self):
        weights = np.array([1.0] * 8 + [20.0, 20.0])
        blocks = partition_by_weight(weights, 2)
        totals = [weights[block.start:block.stop].sum() for block in blocks]
        assert abs(totals[0] - totals[1]) <= 20.0  # one heavy row of slack

    def test_partition_by_weight_covers_all_rows(self):
        weights = np.arange(1, 12, dtype=float)
        blocks = partition_by_weight(weights, 4)
        covered = [i for block in blocks for i in block]
        assert covered == list(range(11))

    def test_partition_by_weight_zero_weights(self):
        blocks = partition_by_weight(np.zeros(6), 3)
        assert sum(block.size for block in blocks) == 6

    def test_partition_by_weight_invalid(self):
        with pytest.raises(ParameterError):
            partition_by_weight([-1.0, 2.0], 2)
        with pytest.raises(ParameterError):
            partition_by_weight(np.ones((2, 2)), 2)
        with pytest.raises(ParameterError):
            partition_by_weight(np.ones(4), 0)

    def test_partition_by_weight_empty(self):
        assert partition_by_weight(np.zeros(0), 3) == []

    def test_partition_by_weight_more_blocks_than_rows(self):
        blocks = partition_by_weight(np.ones(3), 8)
        assert [(block.start, block.stop) for block in blocks] == \
            [(0, 1), (1, 2), (2, 3)]

    def test_partition_by_weight_task_ids_are_block_indices(self):
        blocks = partition_by_weight(np.arange(1, 21, dtype=float), 5)
        assert [block.task_id for block in blocks] == list(range(5))

    def test_partition_rows_sizes_differ_by_at_most_one(self):
        sizes = [block.size for block in partition_rows(23, 5)]
        assert sizes == [5, 5, 5, 4, 4]


@settings(max_examples=30, deadline=None)
@given(n_rows=st.integers(min_value=0, max_value=60),
       n_blocks=st.integers(min_value=1, max_value=10))
def test_partition_rows_property(n_rows, n_blocks):
    """Property: blocks are contiguous, ordered and cover [0, n_rows)."""
    blocks = partition_rows(n_rows, n_blocks)
    covered = [i for block in blocks for i in block]
    assert covered == list(range(n_rows))


@settings(max_examples=30, deadline=None)
@given(weights=st.lists(st.floats(min_value=0.0, max_value=50.0),
                        max_size=60),
       n_blocks=st.integers(min_value=1, max_value=10))
def test_partition_by_weight_property(weights, n_blocks):
    """Property: ``min(n_blocks, n_rows)`` non-empty contiguous blocks, in
    order, indexed ``0 ..``, covering ``[0, n_rows)``."""
    blocks = partition_by_weight(np.asarray(weights, dtype=float), n_blocks)
    assert len(blocks) == min(n_blocks, len(weights))
    assert all(block.size > 0 for block in blocks)
    assert [block.task_id for block in blocks] == list(range(len(blocks)))
    assert [i for block in blocks for i in block] == list(range(len(weights)))


class TestTaskRNG:
    def test_same_task_same_stream(self):
        factory = TaskRNGFactory(0)
        a = factory.for_task(3).random(5)
        b = TaskRNGFactory(0).for_task(3).random(5)
        np.testing.assert_allclose(a, b)

    def test_different_tasks_differ(self):
        factory = TaskRNGFactory(0)
        assert not np.allclose(factory.for_task(0).random(5),
                               factory.for_task(1).random(5))

    def test_invalid_task_index(self):
        with pytest.raises(ParameterError):
            TaskRNGFactory(0).for_task(-1)

    def test_stream_independent_of_creation_order(self):
        """A block's stream is keyed on its index alone, so visiting the
        blocks in any order draws the same numbers for each."""
        forward = TaskRNGFactory(4)
        drawn = [forward.for_task(index).random(3) for index in range(6)]
        backward = TaskRNGFactory(4)
        for index in reversed(range(6)):
            np.testing.assert_array_equal(
                backward.for_task(index).random(3), drawn[index])

    def test_repeated_requests_restart_the_stream(self):
        factory = TaskRNGFactory(2)
        np.testing.assert_array_equal(factory.for_task(1).random(4),
                                      factory.for_task(1).random(4))

    def test_different_seeds_differ(self):
        assert not np.allclose(TaskRNGFactory(0).for_task(0).random(5),
                               TaskRNGFactory(1).for_task(0).random(5))

    def test_seed_property(self):
        assert TaskRNGFactory(9).seed == 9
        assert TaskRNGFactory(None).seed is None

    def test_unseeded_factory_is_consistent_with_itself(self):
        factory = TaskRNGFactory(None)
        np.testing.assert_array_equal(factory.for_task(2).random(4),
                                      factory.for_task(2).random(4))


def test_package_exports_only_blocks_and_streams():
    """What fixes the numbers of the inverse, and nothing that schedules it."""
    assert sorted(repro.parallel.__all__) == [
        "Partition", "TaskRNGFactory", "partition_by_weight", "partition_rows"]

