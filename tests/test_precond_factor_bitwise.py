"""The IC(0) and ILU(0) factors frozen bit for bit.

``tests/data/precond_factor_bitwise_golden.json`` holds, per case, the
sha256 of the factor's ``data`` / ``indices`` / ``indptr`` (cast to
float64 / int64), its stored entries and, for IC(0), the diagonal shifts
used; for a case that raises, the exact message of the error and of its
cause.  The cases reach the paths of both factorisations: the Laplacians
the server sends (perturbed as ``cold_build`` perturbs them), Gram
matrices whose rows hold 8 or more strictly-lower entries (the IC(0) pivot
sum then leaves the in-order path), IC(0) cases that need diagonal shifts
or run out of them, advection--diffusion at three diffusions, an ILU(0)
pivot that is replaced under two ``pivot_shift`` values, and the
structural-zero-diagonal and zero-pivot errors.  A rewrite of either
factorisation that is meant to change no number must reproduce every
entry.  Regenerate only by running this file as a script at the commit
CHANGES.md names.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from repro.exceptions import PreconditionerError
from repro.matrices import advection_diffusion, laplacian_2d
from repro.precond import ILU0Preconditioner, IncompleteCholeskyPreconditioner
from repro.sparse import random_sparse

FACTOR_GOLDEN_PATH = (Path(__file__).parent / "data"
                      / "precond_factor_bitwise_golden.json")


def _perturbed(matrix: sp.csr_matrix, seed: int = 0) -> sp.csr_matrix:
    """Every stored value moved by at most 1e-6 of itself, symmetry kept:
    the matrices the ``cold_build`` benchmark workload sends."""
    noise = matrix.copy()
    noise.data = np.random.default_rng(seed).uniform(-1.0, 1.0, matrix.nnz)
    if (matrix != matrix.T).nnz == 0:
        noise = ((noise + noise.T) * 0.5).tocsr()
    return (matrix + 1e-6 * matrix.multiply(noise)).tocsr()


def _gram(n: int, density: float, seed: int, margin: float) -> sp.csr_matrix:
    """``M^T M + margin I``: SPD, not an M-matrix, rows with up to ~40
    strictly-lower entries; IC(0) breaks down on some of them."""
    factor = random_sparse(n, density, seed=seed)
    return (factor.T @ factor + margin * sp.identity(n)).tocsr()


def _tridiagonal(diagonal, off: float = 1.0) -> sp.csr_matrix:
    n = len(diagonal)
    return sp.diags([off * np.ones(n - 1), np.asarray(diagonal, float),
                     off * np.ones(n - 1)], offsets=[-1, 0, 1], format="csr")


def _cases() -> dict[str, tuple]:
    """``label -> (preconditioner class, matrix, options)``."""
    ic0, ilu0 = IncompleteCholeskyPreconditioner, ILU0Preconditioner
    # Row 1's pivot is 2**-50 < 1e-14: ILU(0) replaces it.
    near_zero_pivot = _tridiagonal([1.0, 1.0 + 2.0 ** -50, 2.0, 2.0, 2.0])
    # Row 3 has no stored diagonal.
    no_diagonal = _tridiagonal([2.0, 2.0, 2.0, 0.0, 2.0], off=-1.0)
    cases = {
        "ic0:laplacian_2d(8)": (ic0, laplacian_2d(8), {}),
        "ic0:laplacian_2d(40)": (ic0, laplacian_2d(40), {}),
        "ic0:laplacian_2d(64)": (ic0, laplacian_2d(64), {}),
        "ic0:perturbed(laplacian_2d(40))": (
            ic0, _perturbed(laplacian_2d(40)), {}),
        # Rows with up to 31 strictly-lower entries, no shift needed.
        "ic0:gram(150,0.03,2,0.1)": (ic0, _gram(150, 0.03, 2, 0.1), {}),
        "ic0:gram(150,0.03,0,0.1)": (ic0, _gram(150, 0.03, 0, 0.1), {}),
        # Succeeds on the last of the default eight shifts.
        "ic0:gram(150,0.02,1,1e-3)": (ic0, _gram(150, 0.02, 1, 1e-3), {}),
        "ic0:gram(150,0.03,0,1e-3),max_shifts=2": (
            ic0, _gram(150, 0.03, 0, 1e-3), {"max_shifts": 2}),
        "ic0:zero_pivot,max_shifts=0": (
            ic0, sp.csr_matrix(np.ones((2, 2))), {"max_shifts": 0}),
        "ic0:no_diagonal,max_shifts=0": (
            ic0, no_diagonal, {"max_shifts": 0}),
        # The shifts store the missing diagonal, too small to help.
        "ic0:no_diagonal": (ic0, no_diagonal, {}),
        "ilu0:laplacian_2d(8)": (ilu0, laplacian_2d(8), {}),
        "ilu0:perturbed(advection_diffusion(40,0.05))": (
            ilu0, _perturbed(advection_diffusion(40, diffusion=0.05)), {}),
        "ilu0:no_diagonal": (ilu0, no_diagonal, {}),
    }
    for diffusion in (0.05, 0.01, 1e-3):
        cases[f"ilu0:advection_diffusion(40,{diffusion})"] = (
            ilu0, advection_diffusion(40, diffusion=diffusion), {})
    for shift in (0.0, 1e-3):
        cases[f"ilu0:near_zero_pivot,pivot_shift={shift}"] = (
            ilu0, near_zero_pivot, {"pivot_shift": shift})
        cases[f"ilu0:random_sparse(300,0.02,3,boost=1),pivot_shift={shift}"] = (
            ilu0, random_sparse(300, 0.02, seed=3, diag_boost=1.0),
            {"pivot_shift": shift})
    return cases


def _factor(preconditioner) -> sp.csr_matrix:
    if isinstance(preconditioner, IncompleteCholeskyPreconditioner):
        return preconditioner.lower_factor
    return preconditioner.factor


def _frozen(kind, matrix: sp.csr_matrix, options: dict) -> dict:
    try:
        preconditioner = kind(matrix, **options)
    except PreconditionerError as error:
        cause = error.__cause__
        return {"error": str(error),
                "cause": None if cause is None else str(cause)}
    factor = _factor(preconditioner)
    digest = hashlib.sha256()
    for array in (factor.data.astype(np.float64),
                  factor.indices.astype(np.int64),
                  factor.indptr.astype(np.int64)):
        digest.update(np.ascontiguousarray(array).tobytes())
    frozen = {"sha256": digest.hexdigest(), "nnz": int(factor.nnz)}
    if kind is IncompleteCholeskyPreconditioner:
        frozen["shifts_used"] = preconditioner.shifts_used
    return frozen


CASES = _cases()


def test_golden_covers_every_case():
    assert sorted(json.loads(FACTOR_GOLDEN_PATH.read_text())) == sorted(CASES)


@pytest.mark.parametrize("label", sorted(CASES))
def test_factor_reproduces_the_golden_bit_for_bit(label):
    expected = json.loads(FACTOR_GOLDEN_PATH.read_text())[label]
    assert _frozen(*CASES[label]) == expected


def test_golden_reaches_each_path():
    golden = json.loads(FACTOR_GOLDEN_PATH.read_text())
    _, gram, _ = CASES["ic0:gram(150,0.03,2,0.1)"]
    assert np.diff(sp.tril(gram, k=-1).tocsr().indptr).max() >= 8
    assert golden["ic0:gram(150,0.03,2,0.1)"]["shifts_used"] == 0
    assert golden["ic0:gram(150,0.03,0,0.1)"]["shifts_used"] >= 1
    assert golden["ic0:gram(150,0.02,1,1e-3)"]["shifts_used"] == 8
    assert "non-positive pivot" in golden["ic0:no_diagonal"]["cause"]
    assert "non-positive pivot 0.000e+00" in (
        golden["ic0:zero_pivot,max_shifts=0"]["cause"])
    for label in ("ic0:no_diagonal,max_shifts=0", "ilu0:no_diagonal"):
        assert "structurally non-zero diagonal (row 3)" in (
            golden[label].get("cause") or golden[label]["error"])
    # The replaced pivot is stored: 1e-14 when ``pivot_shift`` is 0.
    for shift, stored in ((0.0, 1e-14), (1e-3, 1e-3)):
        kind, matrix, options = CASES[
            f"ilu0:near_zero_pivot,pivot_shift={shift}"]
        assert kind(matrix, **options).factor[1, 1] == stored


if __name__ == "__main__":
    FACTOR_GOLDEN_PATH.write_text(json.dumps(
        {label: _frozen(*case) for label, case in CASES.items()},
        indent=1) + "\n")
    print(f"wrote {FACTOR_GOLDEN_PATH}")
