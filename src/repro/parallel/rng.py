"""Reproducible per-task random streams.

Monte Carlo matrix inversion draws an enormous number of random transitions;
when the rows are split into blocks each block must use a statistically
independent stream, and -- crucially for reproducibility -- a block's stream
must depend only on which block it is.  ``numpy``'s ``SeedSequence`` spawning
provides exactly that: every stream is keyed on the (master seed, block index)
pair, whatever order the blocks are estimated in.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ParameterError

__all__ = ["TaskRNGFactory"]


class TaskRNGFactory:
    """Factory handing out one :class:`numpy.random.Generator` per task index.

    Parameters
    ----------
    seed:
        Master seed (``None`` uses fresh OS entropy, which of course forfeits
        reproducibility).
    """

    def __init__(self, seed: int | None = 0) -> None:
        self._seed = seed
        self._root = np.random.SeedSequence(seed)

    @property
    def seed(self) -> int | None:
        """The master seed this factory was created with."""
        return self._seed

    def for_task(self, task_index: int) -> np.random.Generator:
        """Return the generator for ``task_index`` (deterministic per index)."""
        if task_index < 0:
            raise ParameterError(f"task_index must be non-negative, got {task_index}")
        child = np.random.SeedSequence(
            entropy=self._root.entropy, spawn_key=(task_index,))
        return np.random.default_rng(child)
