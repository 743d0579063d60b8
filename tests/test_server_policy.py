"""Tests for the preconditioner policy (rule table, store reuse, warm start)."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp

from repro.core.evaluation import PerformanceRecord
from repro.matrices import (
    feature_vector,
    laplacian_2d,
    pdd_real_sparse,
    structural_flags,
    unsteady_advection_diffusion,
)
from repro.mcmc.parameters import MCMCParameters
from repro.api.schemas import PolicyProvenance
from repro.server.policy import PreconditionerPolicy
from repro.server.queue import AdmissionError
from repro.service.ladder import (
    ORIGIN_EXPLICIT,
    ORIGIN_RULE,
    ORIGIN_STORED,
    ORIGIN_WARM_START,
)
from repro.service.store import ObservationStore
from repro.sparse.fingerprint import matrix_fingerprint


class TestRuleTable:
    def test_spd_matrix_gets_ic0_cg(self):
        matrix = laplacian_2d(8)
        policy = PreconditionerPolicy()
        decision = policy.decide(matrix, matrix_fingerprint(matrix))
        assert decision.family == "ic0"
        assert decision.solver == "cg"
        assert decision.origin == ORIGIN_RULE
        assert decision.rule == "spd"

    def test_strongly_dominant_gets_jacobi(self):
        matrix = pdd_real_sparse(40, density=0.2, dominance=3.0, seed=1)
        policy = PreconditionerPolicy()
        decision = policy.decide(matrix, matrix_fingerprint(matrix))
        assert decision.family == "jacobi"
        assert decision.solver == "gmres"
        assert decision.rule == "strong_diagonal_dominance"

    def test_zero_diagonal_gets_spai(self):
        matrix = sp.csr_matrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
        policy = PreconditionerPolicy()
        decision = policy.decide(matrix, matrix_fingerprint(matrix))
        assert decision.family == "spai"
        assert decision.rule == "zero_diagonal"

    def test_fragile_pivots_get_mcmc(self):
        # Non-symmetric, diagonal much weaker than the off-diagonal mass.
        rng = np.random.default_rng(0)
        dense = rng.standard_normal((30, 30))
        np.fill_diagonal(dense, 0.05)
        matrix = sp.csr_matrix(dense)
        flags = structural_flags(matrix)
        assert flags["nonzero_diagonal"] and not flags["diag_dominant"]
        policy = PreconditionerPolicy()
        decision = policy.decide(matrix, matrix_fingerprint(matrix))
        assert decision.family == "mcmc"
        assert decision.rule == "fragile_pivots"
        parameters = decision.mcmc_parameters()
        assert parameters.alpha > 0

    def test_explicit_family_and_solver_win(self):
        matrix = laplacian_2d(8)
        policy = PreconditionerPolicy()
        decision = policy.decide(matrix, matrix_fingerprint(matrix),
                                 solver="bicgstab", preconditioner="jacobi")
        assert decision.family == "jacobi"
        assert decision.solver == "bicgstab"
        assert decision.origin == ORIGIN_EXPLICIT

    def test_unknown_family_rejected(self):
        matrix = laplacian_2d(8)
        policy = PreconditionerPolicy()
        with pytest.raises(AdmissionError):
            policy.decide(matrix, matrix_fingerprint(matrix),
                          preconditioner="cholesky_qr")

    def test_decision_provenance_is_json_friendly(self):
        import json

        matrix = laplacian_2d(8)
        policy = PreconditionerPolicy()
        decision = policy.decide(matrix, matrix_fingerprint(matrix))
        json.dumps(PolicyProvenance.from_decision(
            decision, decision.family).to_json_dict())


def _store_with(tmp_path, matrix, name, parameters_to_y: dict) -> ObservationStore:
    store = ObservationStore(tmp_path / "store")
    fingerprint = matrix_fingerprint(matrix)
    store.register_matrix(fingerprint, name, feature_vector(matrix))
    for parameters, y in parameters_to_y.items():
        record = PerformanceRecord(
            parameters=parameters, matrix_name=name, baseline_iterations=100,
            preconditioned_iterations=[int(100 * y)], y_values=[y])
        store.put_record(fingerprint, record, context="test")
    return store


class TestStoreReuse:
    def test_best_stored_parameters_are_reused(self, tmp_path):
        matrix = laplacian_2d(8)
        good = MCMCParameters(alpha=4.0, eps=0.25, delta=0.25)
        bad = MCMCParameters(alpha=1.0, eps=0.5, delta=0.5)
        store = _store_with(tmp_path, matrix, "lap8", {bad: 0.9, good: 0.2})
        policy = PreconditionerPolicy(store)
        decision = policy.decide(matrix, matrix_fingerprint(matrix))
        assert decision.origin == ORIGIN_STORED
        assert decision.family == "mcmc"
        assert decision.mcmc_parameters().alpha == good.alpha

    def test_warm_start_from_nearest_neighbour(self, tmp_path):
        donor = laplacian_2d(8)
        tuned = MCMCParameters(alpha=5.0, eps=0.125, delta=0.25)
        store = _store_with(tmp_path, donor, "lap8", {tuned: 0.3})
        policy = PreconditionerPolicy(store)
        target = laplacian_2d(10)  # unseen, but feature-close to the donor
        decision = policy.decide(target, matrix_fingerprint(target))
        assert decision.origin == ORIGIN_WARM_START
        assert decision.neighbour_name == "lap8"
        assert decision.neighbour_distance is not None
        assert decision.mcmc_parameters().alpha == tuned.alpha

    def test_decisions_come_from_snapshot_until_refresh(self, tmp_path):
        matrix = laplacian_2d(8)
        store = ObservationStore(tmp_path / "store")
        policy = PreconditionerPolicy(store)
        fingerprint = matrix_fingerprint(matrix)
        # rule-based while the snapshot is empty
        assert policy.decide(matrix, fingerprint).origin == ORIGIN_RULE

        tuned = MCMCParameters(alpha=2.0, eps=0.25, delta=0.5)
        store.register_matrix(fingerprint, "lap8", feature_vector(matrix))
        store.put_record(fingerprint, PerformanceRecord(
            parameters=tuned, matrix_name="lap8", baseline_iterations=50,
            preconditioned_iterations=[10], y_values=[0.2]), context="t")
        # the record exists, but the snapshot predates it
        assert policy.decide(matrix, fingerprint).origin == ORIGIN_RULE
        policy.refresh()
        assert policy.decide(matrix, fingerprint).origin == ORIGIN_STORED

    def test_explicit_mcmc_prefers_stored_parameters(self, tmp_path):
        matrix = laplacian_2d(8)
        tuned = MCMCParameters(alpha=5.0, eps=0.125, delta=0.125)
        store = _store_with(tmp_path, matrix, "lap8", {tuned: 0.1})
        policy = PreconditionerPolicy(store)
        decision = policy.decide(matrix, matrix_fingerprint(matrix),
                                 preconditioner="mcmc")
        assert decision.origin == ORIGIN_EXPLICIT
        assert decision.mcmc_parameters().alpha == tuned.alpha


    def test_stored_reuse_honours_the_requested_solver(self, tmp_path):
        """A request naming a solver only competes that solver's records."""
        matrix = laplacian_2d(8)
        gmres_best = MCMCParameters(alpha=4.0, eps=0.25, delta=0.25)
        bicgstab_best = MCMCParameters(alpha=2.0, eps=0.125, delta=0.5,
                                       solver="bicgstab")
        store = _store_with(tmp_path, matrix, "lap8",
                            {gmres_best: 0.2, bicgstab_best: 0.5})
        policy = PreconditionerPolicy(store)
        fingerprint = matrix_fingerprint(matrix)

        auto = policy.decide(matrix, fingerprint)
        assert (auto.origin, auto.solver) == (ORIGIN_STORED, "gmres")
        assert auto.mcmc_parameters().alpha == gmres_best.alpha

        named = policy.decide(matrix, fingerprint, solver="bicgstab")
        assert (named.origin, named.solver) == (ORIGIN_STORED, "bicgstab")
        assert named.mcmc_parameters().alpha == bicgstab_best.alpha

        # No CG-tuned record: nothing stored answers, the rule table does.
        untuned = policy.decide(matrix, fingerprint, solver="cg")
        assert (untuned.origin, untuned.solver) == (ORIGIN_RULE, "cg")

    @pytest.mark.parametrize("with_store", [False, True])
    def test_no_feature_pass_without_a_neighbour_pool(self, tmp_path,
                                                      monkeypatch, with_store):
        """``warm_start`` declines before touching the matrix."""
        from repro.service import ladder

        def forbidden(matrix):
            raise AssertionError("feature_vector evaluated for an empty pool")

        matrix = laplacian_2d(8)
        store = None
        if with_store:
            # The only matrix with records is the target itself.
            store = _store_with(tmp_path, matrix, "lap8", {
                MCMCParameters(alpha=2.0, eps=0.25, delta=0.25): 0.4})
        policy = PreconditionerPolicy(store)
        monkeypatch.setattr(ladder, "feature_vector", forbidden)
        decision = policy.decide(matrix, matrix_fingerprint(matrix),
                                 solver="cg")
        assert decision.origin == ORIGIN_RULE


class TestDegenerateInputs:
    """feature_vector + decide() on the pathological matrices of the policy."""

    @pytest.mark.parametrize("name,matrix", [
        ("diagonal_only", sp.diags([2.0, 3.0, 4.0, 5.0], format="csr")),
        ("single_entry", sp.csr_matrix(np.array([[3.0]]))),
        ("highly_nonsymmetric",
         sp.csr_matrix(np.triu(np.ones((12, 12))) + 0.5 * np.eye(12))),
        ("near_singular",
         sp.csr_matrix(np.diag([1.0, 1e-14, 1.0]) +
                       1e-15 * np.ones((3, 3)))),
        ("zero_diagonal", sp.csr_matrix(np.array([[0.0, 1.0], [1.0, 0.0]]))),
        ("ill_conditioned_advection",
         unsteady_advection_diffusion(6, order=2, seed=3)),
    ])
    def test_finite_features_and_valid_decision(self, name, matrix):
        vector = feature_vector(matrix)
        assert np.all(np.isfinite(vector)), name
        flags = structural_flags(matrix)
        assert np.isfinite(flags["dominance"])
        policy = PreconditionerPolicy()
        decision = policy.decide(matrix, matrix_fingerprint(matrix))
        assert decision.family in ("none", "jacobi", "neumann", "ilu0",
                                   "ic0", "spai", "mcmc")
        assert decision.solver in ("gmres", "bicgstab", "cg")
        assert decision.origin == ORIGIN_RULE
