"""Assembly of the MCMC approximate inverse ``P ≈ A_hat^{-1}``.

The estimator decomposes as ``A_hat^{-1} = S D^{-1}`` with ``S = sum_k B^k``
estimated row-by-row by the walk engine.  This module orchestrates:

1. Jacobi splitting with the ``alpha`` diagonal perturbation,
2. partitioning of the rows into contiguous blocks balanced by nnz,
3. walk generation, one block after another, each block's deposits summed
   straight into a sparse row block (memory follows the walk steps, not
   ``n**2``),
4. column scaling by ``D^{-1}``,
5. post-processing: drop entries below the truncation threshold and truncate
   to the target fill factor (the paper fixes these to ``1e-9`` and
   ``2 * phi(A)`` respectively).

The block count depends on ``n`` alone, and block ``i`` draws its randomness
from child ``i`` of ``SeedSequence(seed).spawn(n_blocks)``, a stream keyed by
the block index alone, so the assembled preconditioner is a function of
``(A, parameters, seed)``.  The paper's reference code runs the blocks as
hybrid MPI+OpenMP tasks; here they only fix which rows share a stream, and
the loop visits them in row order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from repro.exceptions import ParameterError
from repro.logging_utils import get_logger
from repro.mcmc.parameters import MCMCParameters
from repro.mcmc.walks import TransitionTable, WalkEngine, WalkStatistics
from repro.sparse.csr import (
    ensure_csr,
    fill_factor,
    truncate_to_fill_factor,
    validate_square,
)
from repro.sparse.splitting import (
    SplittingResult,
    jacobi_splitting,
    perturbed_diagonal,
)

__all__ = ["InversionReport", "estimate_inverse"]

_LOG = get_logger("mcmc")

#: Default truncation threshold of the paper (Sec. 4.1): effectively no truncation.
DEFAULT_DROP_TOLERANCE = 1e-9

#: Default fill-factor multiple of the paper: ``2 * phi(A)``.
DEFAULT_FILL_MULTIPLE = 2.0


@dataclass(frozen=True)
class InversionReport:
    """Metadata describing one MCMC inversion run."""

    parameters: MCMCParameters
    dimension: int
    chains_per_row: int
    max_walk_length: int
    norm_inf_b: float
    contraction: bool
    nnz_before_truncation: int
    nnz_after_truncation: int
    fill_factor: float
    statistics: WalkStatistics

    def describe(self) -> str:
        """One-line summary for logs and benchmark output."""
        return (f"n={self.dimension}, chains/row={self.chains_per_row}, "
                f"max_len={self.max_walk_length}, ||B||_inf={self.norm_inf_b:.3f}, "
                f"contraction={self.contraction}, nnz={self.nnz_after_truncation}, "
                f"phi(P)={self.fill_factor:.4f}")


#: The inverse is built from ``max(ceil(n**2 / _ROW_BLOCK_ENTRIES), 1)`` row
#: blocks.  This is not a memory cap (no block holds ``n``-wide rows): each
#: block draws from the ``SeedSequence`` stream of its index, so the count
#: fixes the inverse, and changing it changes the paper's numbers.
_ROW_BLOCK_ENTRIES = 5_000_000


def _row_blocks(row_nnz: np.ndarray, n_blocks: int) -> list[range]:
    """Split the rows into ``min(n_blocks, n)`` contiguous, non-empty blocks
    of about equal total weight, a row weighing ``max(row_nnz, 1)`` (the
    cost of the walks that start there).

    A greedy sweep adds rows to the current block until it reaches its share
    of the weight still unassigned, always taking at least one row and
    leaving one for each later block, so a block overshoots its share by at
    most one row.  The weights are integers, so the last block's share is
    exactly the weight of the rows left and it ends at row ``n``.
    """
    weights = np.maximum(row_nnz, 1).tolist()
    n_rows = len(weights)
    n_blocks = min(n_blocks, n_rows)
    total = sum(weights)
    blocks: list[range] = []
    start = 0
    consumed = 0
    for index in range(n_blocks):
        remaining_blocks = n_blocks - index
        target = (total - consumed) / remaining_blocks
        stop = start
        block_weight = 0
        max_stop = n_rows - (remaining_blocks - 1)
        while stop < max_stop and (block_weight < target or stop == start):
            block_weight += weights[stop]
            stop += 1
        blocks.append(range(start, stop))
        consumed += block_weight
        start = stop
    return blocks


def _estimate_block(rows: range, stream: np.random.SeedSequence,
                    engine: WalkEngine, chains_per_row: int,
                    inverse_diagonal: np.ndarray,
                    drop_tolerance: float) -> tuple[sp.csr_matrix, WalkStatistics]:
    """Estimate the inverse ``rows`` as CSR, drawing from ``stream``.

    The walk engine returns the block's row sums already sparse; the column
    scaling by ``D^{-1}`` and the drop tolerance act on the stored entries
    alone, and ``eliminate_zeros`` then removes the dropped entries and any
    sum that cancelled to zero, so only non-zeros are stored.  A fresh
    generator is seeded from ``stream`` on every call, so the same arguments
    give the same block.
    """
    estimate, statistics = engine.estimate_rows(
        np.arange(rows.start, rows.stop, dtype=np.int64), chains_per_row,
        np.random.default_rng(stream))
    estimate.data *= inverse_diagonal[estimate.indices]
    if drop_tolerance:
        estimate.data[np.abs(estimate.data) < drop_tolerance] = 0.0
    estimate.eliminate_zeros()
    return estimate, statistics


def estimate_inverse(matrix: sp.spmatrix, parameters: MCMCParameters, *,
                     seed: int | None = 0,
                     fill_multiple: float = DEFAULT_FILL_MULTIPLE,
                     drop_tolerance: float = DEFAULT_DROP_TOLERANCE,
                     transition_table: TransitionTable | None = None,
                     return_report: bool = False,
                     ) -> sp.csr_matrix | tuple[sp.csr_matrix, InversionReport]:
    """Estimate ``P ≈ (A + alpha * diag(A))^{-1}`` by MCMC.

    Parameters
    ----------
    matrix:
        Square sparse matrix ``A``.
    parameters:
        Algorithmic parameters ``(alpha, eps, delta)``; the solver field is
        ignored here (it only matters to the evaluation layer).
    seed:
        Master seed for the per-block random streams.
    fill_multiple:
        The preconditioner keeps at most ``fill_multiple * phi(A)`` fill
        (paper default 2.0).  ``None`` or ``0`` disables the constraint.
    drop_tolerance:
        Entries below this magnitude are dropped (paper default ``1e-9``);
        ``None`` or ``0`` keeps every non-zero.  A negative or NaN value of
        either option raises :class:`ParameterError`.
    transition_table:
        Optional pre-built :class:`TransitionTable` for this ``(A, alpha)``
        pair.  The table only depends on the Jacobi splitting — not on
        ``eps`` / ``delta`` — so callers sweeping those parameters (the
        ablation grids, replicated evaluations) can build it once and stop
        re-deriving it on every call.  The caller is responsible for the
        table matching ``TransitionTable(jacobi_splitting(A, alpha)
        .iteration_matrix)``; only the dimension is validated here.
    return_report:
        When true, also return an :class:`InversionReport`.
    """
    csr = validate_square(matrix)
    for name, value in (("fill_multiple", fill_multiple),
                        ("drop_tolerance", drop_tolerance)):
        if value is not None and not value >= 0:
            raise ParameterError(f"{name} must be >= 0, got {value}")

    if transition_table is None:
        split: SplittingResult = jacobi_splitting(csr, parameters.alpha)
        table = TransitionTable(split.iteration_matrix)
        diagonal = split.diagonal
        norm_inf_b = split.norm_inf_b
    else:
        if transition_table.dimension != csr.shape[0]:
            raise ParameterError(
                f"transition_table dimension {transition_table.dimension} "
                f"incompatible with matrix dimension {csr.shape[0]}")
        # The table already encodes B; only the (cheap) perturbed diagonal is
        # needed for the D^{-1} column scaling, and ||B||_inf is the largest
        # per-row weight multiplier the table stores.
        table = transition_table
        diagonal = perturbed_diagonal(csr, parameters.alpha)
        if np.any(diagonal == 0.0):
            raise ParameterError(
                "Jacobi splitting requires a non-zero diagonal; "
                "increase alpha or re-order the matrix")
        norm_inf_b = table.norm_inf_b
    chains_per_row = parameters.num_chains()
    max_walk_length = parameters.max_walk_length(norm_inf_b)
    engine = WalkEngine(table, weight_cutoff=parameters.delta,
                        max_steps=max_walk_length)

    n = csr.shape[0]
    n_blocks = max(int(np.ceil(n * n / _ROW_BLOCK_ENTRIES)), 1)
    blocks = _row_blocks(table.row_nnz, n_blocks)
    streams = np.random.SeedSequence(seed).spawn(len(blocks))
    inverse_diagonal = 1.0 / diagonal

    statistics = WalkStatistics.empty()
    sparse_blocks: list[sp.csr_matrix] = []
    for rows, stream in zip(blocks, streams):
        rows_estimate, block_stats = _estimate_block(
            rows, stream, engine, chains_per_row, inverse_diagonal,
            drop_tolerance)
        sparse_blocks.append(rows_estimate)
        statistics = statistics.merge(block_stats)

    approx_inverse = ensure_csr(sp.vstack(sparse_blocks, format="csr"))
    nnz_before = approx_inverse.nnz
    if fill_multiple and fill_multiple > 0.0:
        target = min(max(fill_multiple * fill_factor(csr), 1.0 / n), 1.0)
        approx_inverse = truncate_to_fill_factor(approx_inverse, target)

    report = InversionReport(
        parameters=parameters,
        dimension=n,
        chains_per_row=chains_per_row,
        max_walk_length=max_walk_length,
        norm_inf_b=norm_inf_b,
        contraction=norm_inf_b < 1.0,
        nnz_before_truncation=nnz_before,
        nnz_after_truncation=approx_inverse.nnz,
        fill_factor=fill_factor(approx_inverse),
        statistics=statistics,
    )
    _LOG.debug("MCMC inversion: %s", report.describe())
    if return_report:
        return approx_inverse, report
    return approx_inverse
