"""GMRES frozen bit for bit.

``tests/data/gmres_bitwise_golden.json`` holds GMRES's solution and residual
history as ``float.hex`` strings, with its step count, matvec count and
termination, for two matrices at full GMRES, ``restart=50`` and
``restart=10``, one budget that runs out in the middle of a restart cycle and
one lucky breakdown.  A rewrite of the Arnoldi step that is meant to change
no number (how the Givens rotations are stored, where the column is read
from) must reproduce every bit.  Regenerate only by running this file as a
script at the commit CHANGES.md names.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from repro.krylov import gmres
from repro.matrices import advection_diffusion, laplacian_2d
from repro.precond import JacobiPreconditioner

BITWISE_GOLDEN_PATH = Path(__file__).parent / "data" / "gmres_bitwise_golden.json"


def _cases() -> dict[str, dict]:
    """The solve each golden entry freezes, as keyword arguments."""
    laplacian = laplacian_2d(20)
    advection = advection_diffusion(16, diffusion=0.01)
    # Six distinct eigenvalues: the Krylov space is exhausted at step 6.
    six_eigenvalues = sp.diags(np.repeat(np.arange(1.0, 7.0), 10)).tocsr()
    cases = {}
    for label, matrix in (("laplacian", laplacian), ("advection", advection)):
        for cycle, restart in (("full", matrix.shape[0]), ("restart_50", 50),
                               ("restart_10", 10)):
            cases[f"{label}_{cycle}"] = dict(matrix=matrix, restart=restart,
                                             rtol=1e-10, maxiter=4000)
    cases["maxiter_mid_cycle"] = dict(
        matrix=advection, restart=50, rtol=1e-12, maxiter=73,
        preconditioner=JacobiPreconditioner(advection))
    cases["lucky_breakdown"] = dict(matrix=six_eigenvalues, restart=60,
                                    rtol=1e-12, maxiter=100)
    return cases


def _solve(case: dict):
    case = dict(case)
    matrix = case.pop("matrix")
    rhs = np.random.default_rng(0).standard_normal(matrix.shape[0])
    return gmres(matrix, rhs, **case)


def _frozen(result) -> dict:
    return {"iterations": result.iterations,
            "matvecs": result.matvecs,
            "termination": result.termination,
            "solution": [float(value).hex() for value in result.solution],
            "residual_norms": [float(value).hex()
                               for value in result.residual_norms]}


CASES = _cases()


def test_golden_covers_every_case():
    assert set(json.loads(BITWISE_GOLDEN_PATH.read_text())) == set(CASES)


@pytest.mark.parametrize("label", sorted(CASES))
def test_gmres_reproduces_the_golden_bit_for_bit(label):
    expected = json.loads(BITWISE_GOLDEN_PATH.read_text())[label]
    assert _frozen(_solve(CASES[label])) == expected


def test_golden_exercises_each_exit():
    terminations = {label: entry["termination"] for label, entry
                    in json.loads(BITWISE_GOLDEN_PATH.read_text()).items()}
    assert terminations["maxiter_mid_cycle"] == "maxiter"
    assert terminations["lucky_breakdown"] == "converged"
    assert all(terminations[f"{label}_{cycle}"] == "converged"
               for label in ("laplacian", "advection")
               for cycle in ("full", "restart_50", "restart_10"))


if __name__ == "__main__":
    BITWISE_GOLDEN_PATH.write_text(json.dumps(
        {label: _frozen(_solve(case)) for label, case in CASES.items()}) + "\n")
    print(f"wrote {BITWISE_GOLDEN_PATH}")
