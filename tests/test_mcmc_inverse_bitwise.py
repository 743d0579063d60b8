"""The MCMC inverse frozen bit for bit beyond the default Laplacians.

``tests/data/mcmc_inverse_bitwise_golden.json`` holds, per case, the sha256
of the inverse's ``data`` / ``indices`` / ``indptr`` (cast as
``mcmc_inverse_golden.json`` casts them), the number of row blocks, the
stored entries before fill truncation and every :class:`WalkStatistics`
field.  The cases reach what the default Laplacians do not: a non-symmetric
operator built from two blocks, walks that explode, walks whose weights
overflow to ``±inf`` and sum to NaN (the ``nan_to_num`` scrub), the raw
estimate with no drop and no fill cap (sums that cancel included) and five
blocks forced on a small matrix.  A rewrite of how walk deposits are summed
that is meant to change no number must reproduce every entry.  Regenerate only by running this file as a script at the commit
CHANGES.md names.
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

from repro.matrices import advection_diffusion, laplacian_2d
from repro.mcmc import estimate_inverse, inversion
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
    }


def _frozen(case: dict, seed: int) -> dict:
    case = dict(case)
    matrix = case.pop("matrix")
    cap = case.pop("block_cap", inversion._ROW_BLOCK_ENTRIES)
    with mock.patch.object(inversion, "_ROW_BLOCK_ENTRIES", cap), \
            mock.patch.object(inversion, "_estimate_block",
                              wraps=inversion._estimate_block) as block, \
            np.errstate(over="ignore", invalid="ignore"):
        approx, report = estimate_inverse(matrix, DEFAULT_MCMC_PARAMETERS,
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


if __name__ == "__main__":
    BITWISE_GOLDEN_PATH.write_text(json.dumps(
        {f"{label},seed={seed}": _frozen(case, seed)
         for label, case in CASES.items() for seed in SEEDS},
        indent=1) + "\n")
    print(f"wrote {BITWISE_GOLDEN_PATH}")
