"""Row-range partitioning for MCMC walk generation.

A matrix-inversion run estimates every row of the inverse independently, so the
natural unit of work is a contiguous block of rows.  Two strategies are
provided: equal row counts (what a naive MPI decomposition does) and
weight-balanced blocks where the weight of a row is its non-zero count -- a
good proxy for the cost of the random walks originating from it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from repro.exceptions import ParameterError

__all__ = ["Partition", "partition_rows", "partition_by_weight"]


@dataclass(frozen=True)
class Partition:
    """A contiguous block of row indices ``[start, stop)``; ``task_id`` is the
    block's index, which keys its random stream."""

    task_id: int
    start: int
    stop: int

    def __post_init__(self) -> None:
        if self.start < 0 or self.stop < self.start:
            raise ParameterError(
                f"invalid partition bounds: start={self.start}, stop={self.stop}")

    @property
    def size(self) -> int:
        """Number of rows in the block."""
        return self.stop - self.start

    def indices(self) -> np.ndarray:
        """Row indices of the block as an integer array."""
        return np.arange(self.start, self.stop, dtype=np.int64)

    def __iter__(self) -> Iterator[int]:
        return iter(range(self.start, self.stop))


def partition_rows(n_rows: int, n_blocks: int) -> list[Partition]:
    """Split ``n_rows`` into at most ``n_blocks`` nearly equal contiguous blocks.

    Empty blocks are never produced: when ``n_blocks > n_rows`` only ``n_rows``
    partitions are returned.
    """
    if n_rows < 0:
        raise ParameterError(f"n_rows must be non-negative, got {n_rows}")
    if n_blocks < 1:
        raise ParameterError(f"n_blocks must be >= 1, got {n_blocks}")
    if n_rows == 0:
        return []
    n_blocks = min(n_blocks, n_rows)
    base, remainder = divmod(n_rows, n_blocks)
    partitions: list[Partition] = []
    start = 0
    for task_id in range(n_blocks):
        size = base + (1 if task_id < remainder else 0)
        partitions.append(Partition(task_id, start, start + size))
        start += size
    return partitions


def partition_by_weight(weights: Sequence[float] | np.ndarray,
                        n_blocks: int) -> list[Partition]:
    """Split rows into contiguous blocks of approximately equal total weight.

    A greedy sweep assigns rows to the current block until its weight reaches
    the ideal share, which keeps blocks contiguous (cache- and
    communication-friendly) while balancing cost within ~1 row weight.
    """
    weight_array = np.asarray(weights, dtype=np.float64)
    if weight_array.ndim != 1:
        raise ParameterError("weights must be a 1-D sequence")
    if np.any(weight_array < 0):
        raise ParameterError("weights must be non-negative")
    n_rows = weight_array.size
    if n_blocks < 1:
        raise ParameterError(f"n_blocks must be >= 1, got {n_blocks}")
    if n_rows == 0:
        return []
    n_blocks = min(n_blocks, n_rows)
    total = float(weight_array.sum())
    if total == 0.0:
        return partition_rows(n_rows, n_blocks)

    partitions: list[Partition] = []
    start = 0
    consumed = 0.0
    for task_id in range(n_blocks):
        remaining_blocks = n_blocks - task_id
        target = (total - consumed) / remaining_blocks
        stop = start
        block_weight = 0.0
        # Always take at least one row; stop early so later blocks are not starved.
        max_stop = n_rows - (remaining_blocks - 1)
        while stop < max_stop and (block_weight < target or stop == start):
            block_weight += weight_array[stop]
            stop += 1
        partitions.append(Partition(task_id, start, stop))
        consumed += block_weight
        start = stop
    # Any leftover rows (possible due to the max_stop guard) go to the last block.
    if start < n_rows:
        last = partitions[-1]
        partitions[-1] = Partition(last.task_id, last.start, n_rows)
    return partitions
