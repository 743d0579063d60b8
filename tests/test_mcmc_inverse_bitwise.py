"""The MCMC inverse frozen bit for bit beyond the default Laplacians.

``tests/data/mcmc_inverse_bitwise_golden.json`` holds, per case, the sha256
of the inverse's ``data`` / ``indices`` / ``indptr`` (cast as
``mcmc_inverse_golden.json`` casts them), the number of row blocks, the
stored entries before fill truncation and every :class:`WalkStatistics`
field.  The cases reach what the default Laplacians do not: a non-symmetric
operator built from two blocks, walks that explode, walks whose weights
overflow to ``±inf`` and sum to NaN (the ``nan_to_num`` scrub), the raw
estimate with no drop and no fill cap (sums that cancel included), five
blocks forced on a small matrix, and transition tables 64 and 80 entries
wide (a dense advection--diffusion matrix at a contracting and a divergent
``alpha``, and an 81-unknown Laplacian with one dense row, so that rows of
very different length share one padded table).  A rewrite of how walk deposits
are summed or how a step is sampled that is meant to change no number must
reproduce every entry.  Regenerate only by running this file as a script at
the commit CHANGES.md names.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp

from repro.matrices import (advection_diffusion, laplacian_2d,
                            unsteady_advection_diffusion)
from repro.mcmc import MCMCParameters, TransitionTable, estimate_inverse, inversion
from repro.server.policy import DEFAULT_MCMC_PARAMETERS
from repro.sparse import random_sparse

BITWISE_GOLDEN_PATH = (Path(__file__).parent / "data"
                       / "mcmc_inverse_bitwise_golden.json")

SEEDS = (0, 7)


def _overflowing_row(n: int = 8) -> sp.csr_matrix:
    """Row 0's ``sum_u |B_0u|`` overflows to ``inf``: every walk through it
    gets an infinite weight, and from row 1 both signs reach one column."""
    dense = np.eye(n)
    dense[0, 1:] = 1e308 * (-1.0) ** np.arange(n - 1)
    for row in range(1, n):
        dense[row, 0] = (-1.0) ** row
        dense[row, row % (n - 1) + 1] = -1.0
    return sp.csr_matrix(dense)


def _dense_row_laplacian(grid: int = 10) -> sp.csr_matrix:
    """A 5-point Laplacian whose unknown 0 couples to every other one, so
    the transition table pads the 5-point rows out to the dense row's width
    and walks from any row can step into the dense one."""
    dense = laplacian_2d(grid).toarray()
    dense[0, 1:] = -0.01 * (1.0 + np.arange(dense.shape[0] - 1) % 3)
    dense[1:, 0] = -0.02
    return sp.csr_matrix(dense)


def _cases() -> dict[str, dict]:
    """The build each golden entry freezes: matrix, options, block cap."""
    return {
        # n = 2304 > sqrt(5e6): two row blocks.
        "advection_diffusion(48,0.05)": dict(
            matrix=advection_diffusion(48, diffusion=0.05)),
        # Not diagonally dominant enough: the walks explode.
        "random_sparse(300,0.02,3,boost=1)": dict(
            matrix=random_sparse(300, 0.02, seed=3, diag_boost=1.0)),
        # Infinite weights: the sums hold NaN and +-inf before the scrub.
        "overflowing_row(8)": dict(matrix=_overflowing_row()),
        "laplacian_2d(20),raw": dict(
            matrix=laplacian_2d(20), drop_tolerance=0.0, fill_multiple=0.0),
        # The ``small_spd`` fixture (n = 49) in five blocks.
        "laplacian_2d(8),cap=500": dict(matrix=laplacian_2d(8), block_cap=500),
        # Every row stored in full: 64-wide tables, contracting
        # (||B||_inf 0.77) and divergent (||B||_inf 2.56).
        "unsteady_advection_diffusion(8,2),alpha=4": dict(
            matrix=unsteady_advection_diffusion(8, order=2),
            parameters=MCMCParameters(alpha=4.0, eps=0.25, delta=0.25)),
        "unsteady_advection_diffusion(8,2),alpha=0.5": dict(
            matrix=unsteady_advection_diffusion(8, order=2),
            parameters=MCMCParameters(alpha=0.5, eps=0.25, delta=0.25)),
        "dense_row_laplacian(10)": dict(
            matrix=_dense_row_laplacian(),
            parameters=MCMCParameters(alpha=1.0, eps=0.1, delta=0.05)),
    }


def _frozen(case: dict, seed: int) -> dict:
    case = dict(case)
    matrix = case.pop("matrix")
    parameters = case.pop("parameters", DEFAULT_MCMC_PARAMETERS)
    cap = case.pop("block_cap", inversion._ROW_BLOCK_ENTRIES)
    with mock.patch.object(inversion, "_ROW_BLOCK_ENTRIES", cap), \
            mock.patch.object(inversion, "_estimate_block",
                              wraps=inversion._estimate_block) as block, \
            np.errstate(over="ignore", invalid="ignore"):
        approx, report = estimate_inverse(matrix, parameters,
                                          seed=seed, return_report=True,
                                          **case)
    digest = hashlib.sha256()
    for array in (approx.data.astype(np.float64),
                  approx.indices.astype(np.int64),
                  approx.indptr.astype(np.int64)):
        digest.update(np.ascontiguousarray(array).tobytes())
    return {"blocks": block.call_count,
            "sha256": digest.hexdigest(),
            "nnz_before_truncation": report.nnz_before_truncation,
            "statistics": dataclasses.asdict(report.statistics)}


CASES = _cases()
KEYS = [f"{label},seed={seed}" for label in CASES for seed in SEEDS]


def test_golden_covers_every_case():
    assert sorted(json.loads(BITWISE_GOLDEN_PATH.read_text())) == sorted(KEYS)


@pytest.mark.parametrize("label", sorted(CASES))
@pytest.mark.parametrize("seed", SEEDS)
def test_inverse_reproduces_the_golden_bit_for_bit(label, seed):
    expected = json.loads(BITWISE_GOLDEN_PATH.read_text())[f"{label},seed={seed}"]
    assert _frozen(CASES[label], seed) == expected


def test_golden_reaches_each_path():
    golden = json.loads(BITWISE_GOLDEN_PATH.read_text())
    for seed in SEEDS:
        assert golden[f"advection_diffusion(48,0.05),seed={seed}"]["blocks"] == 2
        assert golden[f"laplacian_2d(8),cap=500,seed={seed}"]["blocks"] == 5
        exploding = golden[f"random_sparse(300,0.02,3,boost=1),seed={seed}"]
        assert exploding["statistics"]["exploded"] > 0
        overflowing = golden[f"overflowing_row(8),seed={seed}"]
        assert overflowing["statistics"]["exploded"] > 0
        wide = "unsteady_advection_diffusion(8,2),alpha="
        assert golden[f"{wide}4,seed={seed}"]["statistics"]["exploded"] == 0
        assert golden[f"{wide}0.5,seed={seed}"]["statistics"]["exploded"] > 0


def test_wide_cases_sample_from_wide_tables():
    """The wide cases walk tables 64 and 80 entries wide, the latter with
    3- to 5-entry rows padded behind its dense row."""
    widths = {}
    for label in ("unsteady_advection_diffusion(8,2),alpha=4",
                  "dense_row_laplacian(10)"):
        case = CASES[label]
        alpha = case.get("parameters", DEFAULT_MCMC_PARAMETERS).alpha
        splitting = inversion.jacobi_splitting(case["matrix"], alpha)
        table = TransitionTable(splitting.iteration_matrix)
        widths[label] = (table.max_row_nnz, int(table.row_nnz.min()))
    assert widths["unsteady_advection_diffusion(8,2),alpha=4"][0] == 64
    assert widths["dense_row_laplacian(10)"] == (80, 3)


if __name__ == "__main__":
    BITWISE_GOLDEN_PATH.write_text(json.dumps(
        {f"{label},seed={seed}": _frozen(case, seed)
         for label, case in CASES.items() for seed in SEEDS},
        indent=1) + "\n")
    print(f"wrote {BITWISE_GOLDEN_PATH}")
