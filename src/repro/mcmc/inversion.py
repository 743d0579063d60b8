"""Assembly of the MCMC approximate inverse ``P ≈ A_hat^{-1}``.

The estimator decomposes as ``A_hat^{-1} = S D^{-1}`` with ``S = sum_k B^k``
estimated row-by-row by the walk engine.  This module orchestrates:

1. Jacobi splitting with the ``alpha`` diagonal perturbation,
2. partitioning of the rows into contiguous blocks balanced by nnz,
3. walk generation, one block after another,
4. column scaling by ``D^{-1}``,
5. post-processing: drop entries below the truncation threshold and truncate
   to the target fill factor (the paper fixes these to ``1e-9`` and
   ``2 * phi(A)`` respectively).

The block count is fixed by the dense-buffer memory cap alone, and every block
draws its randomness from a ``SeedSequence`` stream keyed by the block index,
so the assembled preconditioner is a function of ``(A, parameters, seed)``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from repro.exceptions import ParameterError
from repro.logging_utils import get_logger
from repro.mcmc.parameters import MCMCParameters
from repro.mcmc.walks import TransitionTable, WalkEngine, WalkStatistics
from repro.parallel.partition import Partition, partition_by_weight
from repro.parallel.rng import TaskRNGFactory
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


#: Upper bound on the number of dense entries a single block may materialise.
_MAX_DENSE_BLOCK_ENTRIES = 5_000_000


def _estimate_block(block: Partition, engine: WalkEngine, chains_per_row: int,
                    rng_factory: TaskRNGFactory, inverse_diagonal: np.ndarray,
                    drop_tolerance: float) -> tuple[sp.csr_matrix, WalkStatistics]:
    """Estimate and sparsify the inverse rows of one partition block.

    The dense accumulation buffer only ever covers ``block.size`` rows, which
    bounds peak memory even for large matrices; the column scaling by
    ``D^{-1}`` and the drop tolerance are applied before sparsification so
    only a compact CSR block outlives the call.
    """
    rng = rng_factory.for_task(block.task_id)
    estimate, statistics = engine.estimate_rows(block.indices(), chains_per_row, rng)
    estimate *= inverse_diagonal[None, :]
    if drop_tolerance and drop_tolerance > 0.0:
        estimate[np.abs(estimate) < drop_tolerance] = 0.0
    return sp.csr_matrix(estimate), statistics


def estimate_inverse(matrix: sp.spmatrix, parameters: MCMCParameters, *,
                     seed: int | None = 0,
                     fill_multiple: float = DEFAULT_FILL_MULTIPLE,
                     drop_tolerance: float = DEFAULT_DROP_TOLERANCE,
                     chain_cap: int = 10_000,
                     walk_length_cap: int = 512,
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
        (paper default 2.0).  ``None`` or ``<= 0`` disables the constraint.
    drop_tolerance:
        Entries below this magnitude are dropped (paper default ``1e-9``).
    chain_cap, walk_length_cap:
        Safety caps for pathological parameter values during BO exploration.
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
    if fill_multiple is not None and fill_multiple < 0:
        raise ParameterError(f"fill_multiple must be >= 0, got {fill_multiple}")

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
    chains_per_row = parameters.num_chains(cap=chain_cap)
    max_walk_length = parameters.max_walk_length(norm_inf_b, cap=walk_length_cap)
    engine = WalkEngine(table, weight_cutoff=parameters.delta,
                        max_steps=max_walk_length)

    n = csr.shape[0]
    # Enough blocks that one block's dense accumulation buffer stays below
    # the memory cap.
    n_blocks = max(int(np.ceil(n * n / _MAX_DENSE_BLOCK_ENTRIES)), 1)
    blocks = partition_by_weight(np.maximum(table.row_nnz, 1), n_blocks)
    rng_factory = TaskRNGFactory(seed)
    inverse_diagonal = 1.0 / diagonal

    statistics = WalkStatistics.empty()
    sparse_blocks: list[sp.csr_matrix] = []
    for block in blocks:
        rows_estimate, block_stats = _estimate_block(
            block, engine, chains_per_row, rng_factory, inverse_diagonal,
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
