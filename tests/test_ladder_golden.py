"""Golden behaviour of the recommendation ladder.

``tests/data/ladder_golden.json`` was frozen at commit 92866d2 — the last
one where the solve server's policy (``PreconditionerPolicy.decide``), the
online learner (``SurrogatePolicy.propose``) and the offline tuner
(``MCMCTuner.recommend``) each walked a ladder of their own — by running
this file as a script there.  The one ladder of :mod:`repro.service.ladder`
must reproduce it: every serving provenance over a matrix zoo x store
states x request forms, and the surrogate's explore / exploit proposals.
The cases where the ``stored`` stage now honours the request's solver are
spelled out in ``_solver_filter_fix``; nothing else may differ.

Regenerate only for a reviewed behaviour change::

    PYTHONPATH=src python tests/test_ladder_golden.py
"""

from __future__ import annotations

import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from repro.api.schemas import PolicyProvenance
from repro.core.dataset import SurrogateDataset
from repro.core.evaluation import LabelledObservation, PerformanceRecord
from repro.core.recommender import MCMCTuner
from repro.core.surrogate import GraphNeuralSurrogate, SurrogateConfig
from repro.core.training import Trainer, TrainingConfig
from repro.learn import SurrogatePolicy
from repro.matrices import feature_vector, laplacian_2d, pdd_real_sparse
from repro.mcmc.parameters import MCMCParameters
from repro.server.policy import PreconditionerPolicy
from repro.service.store import ObservationStore
from repro.sparse.fingerprint import matrix_fingerprint

GOLDEN_PATH = Path(__file__).parent / "data" / "ladder_golden.json"


# -- serving: matrix zoo x store states x request forms ----------------------
def _random_with_diagonal(diagonal: float, *, density: float) -> sp.csr_matrix:
    rng = np.random.default_rng(1)
    dense = rng.standard_normal((30, 30)) * (rng.random((30, 30)) < density)
    np.fill_diagonal(dense, diagonal)
    return sp.csr_matrix(dense)


def matrix_zoo() -> dict[str, sp.csr_matrix]:
    """One matrix per row of the rule table, plus the 1x1 corner."""
    return {
        "spd": laplacian_2d(6),
        "strongly_dominant": pdd_real_sparse(40, density=0.2, dominance=3.0,
                                             seed=2),
        "weakly_dominant": pdd_real_sparse(40, density=0.2, dominance=1.3,
                                           seed=2),
        "general": _random_with_diagonal(3.0, density=0.2),
        "fragile_pivots": _random_with_diagonal(0.05, density=1.0),
        "zero_diagonal": sp.csr_matrix(np.array([[0.0, 1.0], [1.0, 0.0]])),
        "single_entry": sp.csr_matrix(np.array([[3.0]])),
    }


#: label -> (solver, preconditioner) as a request would carry them.
REQUEST_FORMS = {
    "auto": (None, None),
    "family_mcmc": (None, "mcmc"),
    "family_jacobi": ("cg", "jacobi"),
    "solver_bicgstab": ("bicgstab", None),
    "solver_cg": ("cg", None),
}


def _put(store: ObservationStore, matrix, name: str,
         records: list[tuple[MCMCParameters, float]]) -> None:
    fingerprint = matrix_fingerprint(matrix)
    store.register_matrix(fingerprint, name, feature_vector(matrix))
    for parameters, y in records:
        store.put_record(fingerprint, PerformanceRecord(
            parameters=parameters, matrix_name=name, baseline_iterations=100,
            preconditioned_iterations=[int(100 * y)], y_values=[y]),
            context="golden")


def _own_records() -> list[tuple[MCMCParameters, float]]:
    """GMRES holds the overall best; BiCGStab has its own (worse) optimum."""
    return [
        (MCMCParameters(alpha=1.0, eps=0.5, delta=0.5), 0.9),
        (MCMCParameters(alpha=4.0, eps=0.25, delta=0.25), 0.2),
        (MCMCParameters(alpha=2.0, eps=0.125, delta=0.5, solver="bicgstab"),
         0.5),
        (MCMCParameters(alpha=3.0, eps=0.5, delta=0.125, solver="bicgstab"),
         0.7),
    ]


def store_states(root: Path, matrix) -> dict[str, ObservationStore | None]:
    """No store, an empty one, one that knows ``matrix``, one that knows
    only other matrices (the neighbour pool)."""
    exact = ObservationStore(root / "exact")
    _put(exact, matrix, "target", _own_records())
    neighbours = ObservationStore(root / "neighbours")
    _put(neighbours, laplacian_2d(8), "lap8",
         [(MCMCParameters(alpha=5.0, eps=0.125, delta=0.25), 0.3),
          (MCMCParameters(alpha=2.5, eps=0.25, delta=0.25,
                          solver="bicgstab"), 0.25)])
    _put(neighbours, pdd_real_sparse(40, density=0.2, dominance=2.0, seed=1),
         "pdd40",
         [(MCMCParameters(alpha=1.5, eps=0.5, delta=0.125), 0.4)])
    return {
        "none": None,
        "empty": ObservationStore(root / "empty"),
        "exact_hit": exact,
        "neighbour_only": neighbours,
    }


def serving_cases(root: Path) -> dict[str, dict]:
    cases: dict[str, dict] = {}
    for matrix_label, matrix in matrix_zoo().items():
        fingerprint = matrix_fingerprint(matrix)
        states = store_states(root / matrix_label, matrix)
        for store_label, store in states.items():
            policy = PreconditionerPolicy(store)
            for form_label, (solver, family) in REQUEST_FORMS.items():
                decision = policy.decide(matrix, fingerprint, solver=solver,
                                         preconditioner=family)
                cases[f"{matrix_label}/{store_label}/{form_label}"] = \
                    PolicyProvenance.from_decision(
                        decision, decision.family).to_json_dict()
    return cases


# -- surrogate: explore (MCMCTuner.recommend) and exploit (serving) ----------
SURROGATE_SEED = 3
SURROGATE_VERSION = "gen000001-golden"


def surrogate_fixture():
    """A small trained surrogate over two matrices with a smooth objective."""
    matrices = {"laplace_tiny": laplacian_2d(6),
                "pdd_tiny": pdd_real_sparse(30, density=0.2, dominance=2.0,
                                            seed=2)}
    rng = np.random.default_rng(0)
    observations = []
    for name in matrices:
        for alpha in (1.0, 2.0, 3.0, 4.0):
            for eps, delta in ((0.1, 0.1), (0.25, 0.25), (0.4, 0.4)):
                y = (0.3 + 0.1 * (alpha - 2.5) ** 2 + 0.2 * eps + 0.1 * delta
                     + 0.01 * rng.standard_normal())
                observations.append(LabelledObservation(
                    matrix_name=name,
                    parameters=MCMCParameters(alpha=alpha, eps=eps,
                                              delta=delta),
                    y_mean=y, y_std=0.02, y_values=[y]))
    dataset = SurrogateDataset(observations, matrices)
    config = SurrogateConfig(
        graph_hidden=8, xa_hidden=8, xm_hidden=8, combined_hidden=8,
        dropout=0.0, seed=0).with_dims(
            node_dim=dataset.node_feature_dim,
            edge_dim=dataset.edge_feature_dim,
            xa_dim=dataset.xa_dim, xm_dim=dataset.xm_dim)
    model = GraphNeuralSurrogate(config)
    Trainer(TrainingConfig(epochs=12, batch_size=8, learning_rate=5e-3,
                           patience=12, seed=0)).fit(model, dataset)
    return model, dataset, matrices


def surrogate_targets(matrices) -> dict[str, tuple[sp.csr_matrix, str]]:
    """A matrix the dataset knows by name and one it has never seen."""
    return {"seen": (matrices["laplace_tiny"], "laplace_tiny"),
            "unseen": (laplacian_2d(7), "lap7")}


def _candidate_row(candidate) -> list[float]:
    return [*candidate.parameters.to_array().tolist(),
            candidate.expected_improvement, candidate.predicted_mean,
            candidate.predicted_sigma]


def _served_row(proposal) -> list[float]:
    # Frozen through the parent's ``SurrogateProposal.predicted_*``; the one
    # ``Proposal`` type calls the same numbers ``y_mean`` / ``y_std``.
    mean, sigma = ((proposal.predicted_mean, proposal.predicted_sigma)
                   if hasattr(proposal, "predicted_mean")
                   else (proposal.y_mean, proposal.y_std))
    return [*proposal.parameters.to_array().tolist(), mean, sigma]


def surrogate_cases() -> dict[str, dict]:
    model, dataset, matrices = surrogate_fixture()
    tuner = MCMCTuner(dataset=dataset, matrices=matrices, model=model,
                      seed=SURROGATE_SEED)
    policy = SurrogatePolicy()
    policy.update(model, dataset, SURROGATE_VERSION)
    cases: dict[str, dict] = {}
    for label, (matrix, name) in surrogate_targets(matrices).items():
        recommended = tuner.recommend(matrix, name, n_candidates=3)
        served = policy.propose(matrix, matrix_fingerprint(matrix),
                                solver="bicgstab", matrix_name=name)
        cases[label] = {
            "recommend": [_candidate_row(c) for c in recommended],
            "served": _served_row(served),
            "served_solver": served.parameters.solver,
            "served_model_version": served.model_version,
        }
    return cases


def compute_golden(root: Path) -> dict:
    return {"serving": serving_cases(root / "serving"),
            "surrogate": surrogate_cases()}


# -- the tests ----------------------------------------------------------------
#: Serving cases the ``stored`` solver filter changes on purpose: the request
#: names a solver, so only that solver's records compete.  The parent served
#: the GMRES-tuned optimum (alpha=4) to both.
_BICGSTAB_OPTIMUM = {"alpha": 2.0, "delta": 0.5, "eps": 0.125}


def _solver_filter_fix(label: str, frozen: dict) -> dict:
    matrix_label, store_label, form_label = label.split("/")
    if store_label != "exact_hit":
        return frozen
    if form_label == "solver_bicgstab":
        return {**frozen, "params": _BICGSTAB_OPTIMUM}
    if form_label == "solver_cg":
        # No CG record is stored: the stage declines and the (store-less)
        # ladder answers, keeping the requested solver.
        return GOLDEN["serving"][f"{matrix_label}/empty/solver_cg"]
    return frozen


def _assert_same(actual, frozen, where: str) -> None:
    """Structural equality; floats to 1e-9 so another BLAS build may differ
    in the last digits of a distance or a prediction."""
    if isinstance(frozen, dict):
        assert isinstance(actual, dict) and actual.keys() == frozen.keys(), where
        for key in frozen:
            _assert_same(actual[key], frozen[key], f"{where}.{key}")
    elif isinstance(frozen, list):
        assert len(actual) == len(frozen), where
        for index, (a, f) in enumerate(zip(actual, frozen)):
            _assert_same(a, f, f"{where}[{index}]")
    elif isinstance(frozen, float):
        assert actual == pytest.approx(frozen, rel=1e-9, abs=0.0), where
    else:
        assert actual == frozen, where


GOLDEN = json.loads(GOLDEN_PATH.read_text()) if GOLDEN_PATH.exists() else {}


def test_serving_provenance_matches_golden(tmp_path):
    actual = serving_cases(tmp_path)
    assert actual.keys() == GOLDEN["serving"].keys()
    for label, frozen in GOLDEN["serving"].items():
        _assert_same(actual[label], _solver_filter_fix(label, frozen), label)


def test_solver_filter_fix_touches_only_the_named_solver_cases():
    changed = {label for label, frozen in GOLDEN["serving"].items()
               if _solver_filter_fix(label, frozen) != frozen}
    assert changed == {f"{matrix}/exact_hit/{form}" for matrix in matrix_zoo()
                       for form in ("solver_bicgstab", "solver_cg")}


def test_surrogate_stage_matches_recommend_propose_and_golden():
    from repro.learn.policy import N_CANDIDATES, N_RESTARTS, XI, proposal_seed
    from repro.mcmc.parameters import DEFAULT_BOUNDS
    from repro.service import ladder

    _assert_same(surrogate_cases(), GOLDEN["surrogate"], "surrogate")

    model, dataset, matrices = surrogate_fixture()
    tuner = MCMCTuner(dataset=dataset, matrices=matrices, model=model,
                      seed=SURROGATE_SEED)
    policy = SurrogatePolicy()
    policy.update(model, dataset, SURROGATE_VERSION)
    for label, (matrix, name) in surrogate_targets(matrices).items():
        frozen = GOLDEN["surrogate"][label]
        explored = ladder.surrogate(
            model, dataset, matrix, name, bounds=DEFAULT_BOUNDS,
            seed=SURROGATE_SEED, solver="gmres", n_candidates=3, xi=0.05,
            n_restarts=4, exploit=False)
        assert explored == tuner.recommend(matrix, name, n_candidates=3)
        _assert_same([_candidate_row(c) for c in explored],
                     frozen["recommend"], f"{label}.explore")

        fingerprint = matrix_fingerprint(matrix)
        exploited = ladder.surrogate(
            model, dataset, matrix, name, bounds=DEFAULT_BOUNDS,
            seed=proposal_seed(fingerprint, SURROGATE_VERSION),
            solver="bicgstab", n_candidates=N_CANDIDATES, xi=XI,
            n_restarts=N_RESTARTS, exploit=True)
        served = policy.propose(matrix, fingerprint, solver="bicgstab",
                                matrix_name=name)
        assert served.parameters == exploited[0].parameters.clipped(
            DEFAULT_BOUNDS)
        assert served.origin == ladder.ORIGIN_SURROGATE
        _assert_same([*exploited[0].parameters.to_array().tolist(),
                      exploited[0].predicted_mean,
                      exploited[0].predicted_sigma],
                     frozen["served"], f"{label}.exploit")


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as scratch:
        golden = compute_golden(Path(scratch))
    GOLDEN_PATH.parent.mkdir(exist_ok=True)
    GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH}: {len(golden['serving'])} serving cases, "
          f"{len(golden['surrogate'])} surrogate targets")
