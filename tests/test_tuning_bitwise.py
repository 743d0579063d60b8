"""The tuning loop frozen bit for bit.

``tests/data/tuning_bitwise_golden.json`` holds, as ``float.hex``:

* the per-epoch training and validation losses of seeded surrogate fits
  and the sha256 of the fitted weights, over the conv types and
  aggregations (between them they run every segment sum, mean and max and
  every gather backward of ``repro.nn.functional``);
* Expected Improvement and its ``(mu, sigma)`` partials over a fixed grid;
* for one seeded ``propose`` on an unseen matrix: EI, ``mu``, ``sigma``
  and the raw-parameter gradient of the first 20 objective calls and a
  sha256 over all of them, the same at 20 fixed points, and the proposed
  candidates; plus the candidates of a second ``propose`` on a matrix with
  observations.

The observations are synthetic (a smooth function of the parameters plus
seeded noise), so no solver runs and the golden depends on the tuning loop
only.  A rewrite of the fit, the acquisition objective or the segment
reductions that is meant to change no number must reproduce every entry.
Regenerate only by running this file as a script at the commit CHANGES.md
names.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.core.acquisition import (
    expected_improvement,
    expected_improvement_gradients,
)
from repro.core.dataset import SurrogateDataset
from repro.core.evaluation import LabelledObservation
from repro.core.optimize import AcquisitionOptimizer
from repro.core.surrogate import GraphNeuralSurrogate, SurrogateConfig
from repro.core.training import Trainer, TrainingConfig
from repro.matrices import laplacian_2d, pdd_real_sparse, unsteady_advection_diffusion
from repro.mcmc.parameters import DEFAULT_BOUNDS, MCMCParameters

TUNING_GOLDEN_PATH = Path(__file__).parent / "data" / "tuning_bitwise_golden.json"

#: ``label -> SurrogateConfig overrides``; the first is ``tune_unseen``'s.
FIT_CASES = {
    "edge/mean": dict(graph_hidden=32, xa_hidden=16, xm_hidden=16,
                      combined_hidden=32, dropout=0.05),
    "edge/max": dict(aggregation="max", graph_hidden=8, xa_hidden=8,
                     xm_hidden=8, combined_hidden=8, xm_layers=1),
    "gcn/sum": dict(conv_type="gcn", aggregation="sum", graph_hidden=8,
                    xa_hidden=8, xm_hidden=8, combined_hidden=8, xm_layers=2),
    "gatv2/sum": dict(conv_type="gatv2", aggregation="sum", graph_hidden=8,
                      xa_hidden=8, xm_hidden=8, combined_hidden=8,
                      graph_layers=2),
    "gine/multi": dict(conv_type="gine", aggregation="multi", graph_hidden=8,
                       xa_hidden=8, xm_hidden=8, combined_hidden=8,
                       dropout=0.2),
    # Two EdgeConv layers: the second one's input needs a gradient, so the
    # fit runs the message's input gradient and the fan-in at both gathers.
    "edge/mean/2layers": dict(graph_hidden=8, xa_hidden=8, xm_hidden=8,
                              combined_hidden=8, graph_layers=2),
    "edge/sum": dict(aggregation="sum", graph_hidden=8, xa_hidden=8,
                     xm_hidden=8, combined_hidden=8),
}


def _hex(values) -> list[str]:
    return [float(value).hex() for value in np.ravel(values)]


def _digest(arrays) -> str:
    digest = hashlib.sha256()
    for array in arrays:
        digest.update(np.ascontiguousarray(array, dtype=np.float64).tobytes())
    return digest.hexdigest()


def _dataset() -> SurrogateDataset:
    matrices = {
        "laplace": laplacian_2d(6),
        "pdd": pdd_real_sparse(30, density=0.2, dominance=2.0, seed=2),
    }
    rng = np.random.default_rng(0)
    observations = []
    for name in sorted(matrices):
        for alpha in (0.5, 1.0, 2.0, 4.0):
            for eps in (0.5, 0.25):
                for delta in (0.5, 0.25):
                    y_mean = (0.2 + 0.1 * np.log(alpha) ** 2 + 0.3 * eps
                              + 0.2 * delta + rng.uniform(0.0, 0.05))
                    observations.append(LabelledObservation(
                        name, MCMCParameters(alpha, eps, delta),
                        float(y_mean), float(rng.uniform(0.0, 0.05))))
    return SurrogateDataset(observations, matrices)


def _unseen():
    return unsteady_advection_diffusion(6, order=2, seed=3)


def _fit(dataset: SurrogateDataset, label: str, epochs: int = 3,
         seed: int = 0):
    config = SurrogateConfig(seed=seed, **FIT_CASES[label]).with_dims(
        node_dim=dataset.node_feature_dim, edge_dim=dataset.edge_feature_dim,
        xa_dim=dataset.xa_dim, xm_dim=dataset.xm_dim)
    model = GraphNeuralSurrogate(config)
    history = Trainer(TrainingConfig(
        epochs=epochs, batch_size=8, learning_rate=5e-3, weight_decay=1e-4,
        patience=epochs, min_epochs=1, seed=0)).fit(model, dataset)
    return model, history


def _fit_record(dataset: SurrogateDataset, label: str) -> dict:
    model, history = _fit(dataset, label)
    state = model.state_dict()
    return {"train_losses": _hex(history.train_losses),
            "validation_losses": _hex(history.validation_losses),
            "weights_sha256": _digest(state[name] for name in sorted(state))}


def _ei_record() -> dict:
    mu = np.repeat([0.0, 0.3, 0.45, 0.5, 0.8, 10.0], 6)
    sigma = np.tile([0.0, 1e-13, 1e-3, 0.1, 1.0, 5.0], 6)
    y_min, xi = 0.5, 0.05
    gradients = [expected_improvement_gradients(float(m), float(s), y_min, xi)
                 for m, s in zip(mu, sigma)]
    return {"values": _hex(expected_improvement(mu, sigma, y_min, xi)),
            "scalar_values": _hex([expected_improvement(float(m), float(s),
                                                        y_min, xi)
                                   for m, s in zip(mu, sigma)]),
            "gradients": _hex(gradients)}


def _fixed_points() -> np.ndarray:
    lower, upper = DEFAULT_BOUNDS.as_arrays()
    inside = np.random.default_rng(7).uniform(lower, upper, size=(17, 3))
    return np.vstack([inside, lower, upper, lower - 1.0])


def _call_record(call) -> list[str]:
    """``x_raw, EI, mu, sigma, gradient`` of one objective evaluation."""
    x_raw, (ei, gradient, mu, sigma) = call
    return _hex(np.concatenate([x_raw, [ei, mu, sigma], gradient]))


def _candidate_records(candidates) -> list[list[str]]:
    return [_hex([*c.parameters.to_array(), c.expected_improvement,
                  c.predicted_mean, c.predicted_sigma]) for c in candidates]


def _propose_record(dataset: SurrogateDataset) -> dict:
    """Every objective call of one seeded ``propose`` on an unseen matrix.

    ``_ei_and_gradient`` is wrapped, not called with its own arguments, so
    the record does not depend on how the objective is handed the target:
    its first argument is the raw ``(alpha, eps, delta)`` and it returns
    ``(EI, gradient, mu, sigma)``.
    """
    # Seed 5: the mean head's ReLU is live on part of the box only, so the
    # objective calls cross both of its branches.
    model, _history = _fit(dataset, "edge/mean", epochs=4, seed=5)
    calls: list = []
    targets: list = []
    original = AcquisitionOptimizer._ei_and_gradient

    def recording(self, x_raw, *rest):
        result = original(self, x_raw, *rest)
        calls.append((np.array(x_raw, dtype=np.float64), result))
        targets[:] = rest
        return result

    AcquisitionOptimizer._ei_and_gradient = recording
    try:
        optimizer = AcquisitionOptimizer(model, dataset, n_restarts=2, seed=0)
        candidates = optimizer.propose(_unseen(), "unseen", n_candidates=2)
    finally:
        AcquisitionOptimizer._ei_and_gradient = original
    model.eval()
    fixed = [(point, original(optimizer, point, *targets))
             for point in _fixed_points()]
    seen = AcquisitionOptimizer(model, dataset, n_restarts=1, seed=3).propose(
        laplacian_2d(6), "laplace", n_candidates=1, xi=1.0)
    return {"calls": len(calls),
            "first_calls": [_call_record(call) for call in calls[:20]],
            "calls_sha256": _digest(np.concatenate(
                [x_raw, [ei, mu, sigma], gradient])
                for x_raw, (ei, gradient, mu, sigma) in calls),
            "fixed_points": [_call_record(call) for call in fixed],
            "candidates": _candidate_records(candidates),
            "seen_candidates": _candidate_records(seen)}


def _record() -> dict:
    dataset = _dataset()
    return {"fit": {label: _fit_record(dataset, label) for label in FIT_CASES},
            "expected_improvement": _ei_record(),
            "propose": _propose_record(_dataset())}


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(TUNING_GOLDEN_PATH.read_text())


@pytest.mark.parametrize("label", sorted(FIT_CASES))
def test_fit_is_bit_identical(golden, label):
    assert _fit_record(_dataset(), label) == golden["fit"][label]


def test_expected_improvement_is_bit_identical(golden):
    assert _ei_record() == golden["expected_improvement"]


@pytest.fixture(scope="module")
def proposal() -> dict:
    return _propose_record(_dataset())


@pytest.mark.parametrize("key", ["calls", "first_calls", "calls_sha256",
                                 "fixed_points", "candidates",
                                 "seen_candidates"])
def test_propose_is_bit_identical(golden, proposal, key):
    assert proposal[key] == golden["propose"][key]


if __name__ == "__main__":
    TUNING_GOLDEN_PATH.write_text(json.dumps(_record(), indent=1) + "\n")
    print(f"wrote {TUNING_GOLDEN_PATH}")
