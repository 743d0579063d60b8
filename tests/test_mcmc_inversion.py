"""Tests for MCMC inverse estimation and the preconditioner object."""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp

from repro.exceptions import ParameterError
from repro.matrices import laplacian_2d
from repro.mcmc import (
    MCMCParameters,
    MCMCPreconditioner,
    estimate_inverse,
    inversion_error,
    preconditioned_condition_estimate,
    chain_length_profile,
)
from repro.mcmc import inversion
from repro.mcmc.walks import WalkStatistics
from repro.server.policy import DEFAULT_MCMC_PARAMETERS
from repro.sparse import condition_number, fill_factor, perturb_diagonal

INVERSE_GOLDEN_PATH = Path(__file__).parent / "data" / "mcmc_inverse_golden.json"


INVERSE_CASES = [(grid, seed) for grid in (10, 49) for seed in (0, 7)]


def _inverse_case(grid: int, seed: int) -> dict:
    """Row-block count and content hash of the served default MCMC inverse.

    ``laplacian_2d(10)`` (n = 81) fits one dense block; ``laplacian_2d(49)``
    (n = 2304, past the ``n**2`` dense-entry cap) is built from two.  Uses
    only what ``estimate_inverse`` offered before its block loop was inlined,
    so it runs unchanged there.
    """
    with mock.patch.object(inversion, "_estimate_block",
                           wraps=inversion._estimate_block) as block:
        approx = estimate_inverse(laplacian_2d(grid), DEFAULT_MCMC_PARAMETERS,
                                  seed=seed)
    digest = hashlib.sha256()
    for array in (approx.data.astype(np.float64),
                  approx.indices.astype(np.int64),
                  approx.indptr.astype(np.int64)):
        digest.update(np.ascontiguousarray(array).tobytes())
    return {"blocks": block.call_count, "sha256": digest.hexdigest()}


def _case_key(grid: int, seed: int) -> str:
    return f"laplacian_2d({grid}),seed={seed}"


def _recorded_blocks(monkeypatch) -> list[tuple[tuple, tuple]]:
    """Record the arguments and result of every ``_estimate_block`` call."""
    original = inversion._estimate_block
    calls: list[tuple[tuple, tuple]] = []

    def record(*args):
        result = original(*args)
        calls.append((args, result))
        return result

    monkeypatch.setattr(inversion, "_estimate_block", record)
    return calls


class TestEstimateInverse:
    def test_approximates_perturbed_inverse(self, small_spd):
        params = MCMCParameters(alpha=2.0, eps=0.125, delta=0.0625)
        approx = estimate_inverse(small_spd, params, seed=0, fill_multiple=0.0,
                                  drop_tolerance=0.0)
        error = inversion_error(small_spd, approx, alpha=2.0)
        assert error < 0.25

    def test_report_contents(self, small_spd):
        params = MCMCParameters(alpha=1.0, eps=0.25, delta=0.25)
        approx, report = estimate_inverse(small_spd, params, seed=0,
                                          return_report=True)
        assert report.dimension == small_spd.shape[0]
        assert report.chains_per_row == params.num_chains()
        assert report.contraction
        assert report.nnz_after_truncation == approx.nnz
        assert "chains/row" in report.describe()

    def test_fill_factor_constraint(self, small_spd):
        params = MCMCParameters(alpha=1.0, eps=0.25, delta=0.25)
        approx = estimate_inverse(small_spd, params, seed=0, fill_multiple=2.0)
        assert fill_factor(approx) <= 2.05 * fill_factor(small_spd)

    def test_seed_reproducibility(self, small_spd):
        params = MCMCParameters(alpha=1.0, eps=0.5, delta=0.5)
        a = estimate_inverse(small_spd, params, seed=7)
        b = estimate_inverse(small_spd, params, seed=7)
        assert (a != b).nnz == 0

    def test_different_seeds_differ(self, small_spd):
        params = MCMCParameters(alpha=1.0, eps=0.5, delta=0.5)
        a = estimate_inverse(small_spd, params, seed=1)
        b = estimate_inverse(small_spd, params, seed=2)
        assert (a != b).nnz > 0

    @pytest.mark.parametrize("grid, seed", INVERSE_CASES,
                             ids=[_case_key(*case) for case in INVERSE_CASES])
    def test_default_inverse_is_bit_identical_to_the_frozen_build(self, grid,
                                                                  seed):
        """Frozen at 126f6f0, the last commit that ran the row blocks through
        an executor (regenerate by running this file as a script *there*):
        the same blocks, and the same inverse to the bit."""
        golden = json.loads(INVERSE_GOLDEN_PATH.read_text())
        assert sorted(golden) == sorted(_case_key(*case)
                                        for case in INVERSE_CASES)
        assert _inverse_case(grid, seed) == golden[_case_key(grid, seed)]

    def test_divergent_alpha_still_returns_finite_matrix(self, small_nonsym):
        params = MCMCParameters(alpha=0.05, eps=0.5, delta=0.5)
        approx = estimate_inverse(small_nonsym, params, seed=0)
        assert np.all(np.isfinite(approx.data))

    def test_invalid_fill_multiple(self, small_spd):
        params = MCMCParameters(alpha=1.0, eps=0.5, delta=0.5)
        with pytest.raises(ParameterError):
            estimate_inverse(small_spd, params, fill_multiple=-1.0)

    def test_prebuilt_transition_table_gives_identical_result(self, small_spd):
        """A prebuilt table (eps/delta sweep reuse) must not change the result."""
        from repro.mcmc import TransitionTable
        from repro.sparse import jacobi_splitting

        params = MCMCParameters(alpha=1.0, eps=0.5, delta=0.25)
        table = TransitionTable(jacobi_splitting(small_spd, 1.0).iteration_matrix)
        fresh = estimate_inverse(small_spd, params, seed=5)
        reused = estimate_inverse(small_spd, params, seed=5,
                                  transition_table=table)
        assert (fresh != reused).nnz == 0
        # The same table serves any eps/delta at this alpha.
        other = MCMCParameters(alpha=1.0, eps=0.25, delta=0.5)
        reused_other = estimate_inverse(small_spd, other, seed=5,
                                        transition_table=table)
        assert (reused_other != estimate_inverse(small_spd, other, seed=5)).nnz == 0

    def test_prebuilt_table_dimension_mismatch(self, small_spd):
        from repro.mcmc import TransitionTable
        import scipy.sparse as sp

        params = MCMCParameters(alpha=1.0, eps=0.5, delta=0.5)
        wrong = TransitionTable(sp.identity(3, format="csr") * 0.5)
        with pytest.raises(ParameterError):
            estimate_inverse(small_spd, params, transition_table=wrong)


class TestRowBlocks:
    """The inverse is one loop over nnz-balanced row blocks.  Lowering the
    dense-entry cap forces several blocks on a small matrix (n = 49)."""

    PARAMS = MCMCParameters(alpha=1.0, eps=0.5, delta=0.25)

    @pytest.mark.parametrize("cap, expected", [
        (2401, 1), (2400, 2), (1200, 3), (500, 5), (1, 49)])
    def test_block_count_follows_the_memory_cap_alone(self, small_spd,
                                                      monkeypatch, cap,
                                                      expected):
        """``max(ceil(n**2 / cap), 1)`` blocks, never more than one per row."""
        monkeypatch.setattr(inversion, "_MAX_DENSE_BLOCK_ENTRIES", cap)
        calls = _recorded_blocks(monkeypatch)
        estimate_inverse(small_spd, self.PARAMS, seed=0)
        assert len(calls) == expected

    def test_blocks_run_in_row_order_and_cover_every_row(self, small_spd,
                                                         monkeypatch):
        monkeypatch.setattr(inversion, "_MAX_DENSE_BLOCK_ENTRIES", 500)
        calls = _recorded_blocks(monkeypatch)
        estimate_inverse(small_spd, self.PARAMS, seed=0)
        blocks = [args[0] for args, _ in calls]
        assert [block.task_id for block in blocks] == list(range(len(blocks)))
        assert [row for block in blocks for row in block] == \
            list(range(small_spd.shape[0]))

    def test_each_block_depends_only_on_its_own_stream(self, small_spd,
                                                       monkeypatch):
        """Re-estimating the blocks alone, last first, reproduces every one:
        the order the loop visits them in cannot change the inverse."""
        monkeypatch.setattr(inversion, "_MAX_DENSE_BLOCK_ENTRIES", 500)
        original = inversion._estimate_block
        calls = _recorded_blocks(monkeypatch)
        estimate_inverse(small_spd, self.PARAMS, seed=3)
        for args, (rows, statistics) in reversed(calls):
            again, again_statistics = original(*args)
            assert (rows != again).nnz == 0
            assert again_statistics == statistics

    def test_blocks_are_stacked_in_row_order(self, small_spd, monkeypatch):
        monkeypatch.setattr(inversion, "_MAX_DENSE_BLOCK_ENTRIES", 500)
        calls = _recorded_blocks(monkeypatch)
        approx = estimate_inverse(small_spd, self.PARAMS, seed=0,
                                  fill_multiple=0.0)
        stacked = sp.vstack([rows for _, (rows, _) in calls], format="csr")
        assert (approx != stacked).nnz == 0

    def test_report_merges_the_walks_of_every_block(self, small_spd,
                                                    monkeypatch):
        monkeypatch.setattr(inversion, "_MAX_DENSE_BLOCK_ENTRIES", 1200)
        calls = _recorded_blocks(monkeypatch)
        _, report = estimate_inverse(small_spd, self.PARAMS, seed=0,
                                     return_report=True)
        merged = WalkStatistics.empty()
        for _, (_, statistics) in calls:
            merged = merged.merge(statistics)
        assert report.statistics == merged
        assert merged.n_walks == small_spd.shape[0] * report.chains_per_row

    def test_several_blocks_are_reproducible(self, small_spd, monkeypatch):
        monkeypatch.setattr(inversion, "_MAX_DENSE_BLOCK_ENTRIES", 500)
        a = estimate_inverse(small_spd, self.PARAMS, seed=11)
        b = estimate_inverse(small_spd, self.PARAMS, seed=11)
        assert (a != b).nnz == 0

    def test_block_count_is_the_same_for_every_seed(self, small_spd,
                                                    monkeypatch):
        monkeypatch.setattr(inversion, "_MAX_DENSE_BLOCK_ENTRIES", 1200)
        calls = _recorded_blocks(monkeypatch)
        counts = []
        for seed in (0, 1, None):
            before = len(calls)
            estimate_inverse(small_spd, self.PARAMS, seed=seed)
            counts.append(len(calls) - before)
        assert counts == [3, 3, 3]


class TestMCMCPreconditioner:
    def test_interface(self, small_spd, default_parameters):
        preconditioner = MCMCPreconditioner(small_spd, default_parameters, seed=0)
        vector = np.ones(small_spd.shape[0])
        assert preconditioner.apply(vector).shape == vector.shape
        assert preconditioner.shape == small_spd.shape
        assert preconditioner.nnz > 0
        assert preconditioner.parameters == default_parameters
        assert "MCMCPreconditioner" in preconditioner.describe()

    def test_improves_conditioning(self):
        matrix = laplacian_2d(10)
        params = MCMCParameters(alpha=0.5, eps=0.125, delta=0.0625)
        preconditioner = MCMCPreconditioner(matrix, params, seed=0)
        kappa_before = condition_number(matrix)
        kappa_after = preconditioned_condition_estimate(matrix, preconditioner.matrix)
        assert kappa_after < kappa_before

    def test_report_attached(self, small_spd, default_parameters):
        preconditioner = MCMCPreconditioner(small_spd, default_parameters, seed=0)
        assert preconditioner.report.parameters == default_parameters


class TestDiagnostics:
    def test_inversion_error_identity(self):
        identity = np.eye(6)
        assert inversion_error(identity, identity) == pytest.approx(0.0, abs=1e-12)

    def test_inversion_error_shape_mismatch(self, small_spd):
        with pytest.raises(ParameterError):
            inversion_error(small_spd, np.eye(3))

    def test_inversion_error_inf_norm(self, small_spd):
        params = MCMCParameters(alpha=2.0, eps=0.25, delta=0.125)
        approx = estimate_inverse(small_spd, params, seed=0)
        assert inversion_error(small_spd, approx, alpha=2.0, ord="inf") > 0.0
        with pytest.raises(ParameterError):
            inversion_error(small_spd, approx, alpha=2.0, ord="two")

    def test_chain_length_profile_keys(self, small_spd, default_parameters):
        profile = chain_length_profile(small_spd, default_parameters, sample_rows=10)
        expected = {"chains_per_row", "max_walk_length", "norm_inf_b", "mean_length",
                    "observed_max_length", "fraction_truncated_by_weight",
                    "fraction_truncated_by_length", "fraction_absorbed",
                    "fraction_exploded"}
        assert expected <= set(profile)
        assert profile["chains_per_row"] == default_parameters.num_chains()


if __name__ == "__main__":
    INVERSE_GOLDEN_PATH.write_text(json.dumps(
        {_case_key(*case): _inverse_case(*case) for case in INVERSE_CASES},
        indent=1) + "\n")
    print(f"wrote {INVERSE_GOLDEN_PATH}")
