"""Gradient-based maximisation of Expected Improvement.

Following Sec. 3.2, candidates are found by minimising the negative EI with
L-BFGS-B from random restarts inside the box of admissible ``(alpha, eps,
delta)`` values.  The gradient of EI with respect to ``x_M`` is exact: the
analytic partials w.r.t. the surrogate's ``mu`` and ``sigma`` outputs are
combined in a single backward pass through the surrogate down to its ``x_M``
input, then chained through the (linear) standardiser.

The restarts run in lockstep (:class:`~repro.core.lbfgsb.LockstepLBFGSB`):
each round, the points every running restart asks for are evaluated in one
call of the batched objective.  The graph embedding of the target matrix
does not depend on ``x_M``, so it is computed once per proposal call, with
the rest of the ``x_M``-free branch, and each objective call runs the
surrogate's :class:`ParameterHead`: the ``x_M`` part of the network as plain
operation calls, with no autodiff tape.  Every restart's iterates and
result are those of ``scipy.optimize.minimize`` run on it alone, bit for
bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from repro.config import default_rng
from repro.core.acquisition import ExpectedImprovement
from repro.core.dataset import (
    SurrogateDataset,
    encode_parameter_rows,
    encode_parameters,
)
from repro.core.lbfgsb import LockstepLBFGSB
from repro.core.surrogate import GraphNeuralSurrogate, ParameterHead
from repro.exceptions import AcquisitionError
from repro.gnn.graph import GraphBatch, graph_from_matrix
from repro.logging_utils import get_logger
from repro.matrices.features import feature_vector
from repro.mcmc.parameters import (
    DEFAULT_BOUNDS,
    MCMCParameters,
    ParameterBounds,
    sample_parameters,
)

__all__ = ["Candidate", "AcquisitionOptimizer"]

_LOG = get_logger("core.optimize")


def _check_count(name: str, value) -> None:
    """``value`` is an integer >= 1 (not a bool, a float or NaN)."""
    if (isinstance(value, bool) or not isinstance(value, (int, np.integer))
            or value < 1):
        raise AcquisitionError(f"{name} must be an integer >= 1, got {value!r}")


@dataclass(frozen=True)
class Candidate:
    """One recommended parameter vector with its acquisition diagnostics."""

    parameters: MCMCParameters
    expected_improvement: float
    predicted_mean: float
    predicted_sigma: float

    def describe(self) -> str:
        """One-line summary used in reports."""
        return (f"{self.parameters.describe()} | EI={self.expected_improvement:.4f}, "
                f"mu={self.predicted_mean:.3f}, sigma={self.predicted_sigma:.3f}")


class AcquisitionOptimizer:
    """Proposes batches of MCMC parameters for a target matrix.

    Parameters
    ----------
    model:
        Trained surrogate (used in evaluation mode; not modified).
    dataset:
        The dataset whose standardisers define the input scaling.
    bounds:
        Box constraints on ``(alpha, eps, delta)``.
    n_restarts:
        L-BFGS-B restarts per requested candidate.
    seed:
        Seed of the restart sampler.
    """

    def __init__(self, model: GraphNeuralSurrogate, dataset: SurrogateDataset, *,
                 bounds: ParameterBounds = DEFAULT_BOUNDS,
                 n_restarts: int = 4,
                 seed: int | np.random.Generator | None = 0) -> None:
        _check_count("n_restarts", n_restarts)
        self.model = model
        self.dataset = dataset
        self.bounds = bounds
        self.n_restarts = n_restarts
        self._rng = default_rng(seed)

    # -- target preparation ------------------------------------------------------
    def _prepare_target(self, matrix: sp.spmatrix, matrix_name: str
                        ) -> tuple[np.ndarray, np.ndarray]:
        """Graph embedding and standardised ``x_A`` of the target matrix."""
        if matrix_name in self.dataset.graphs:
            graph = self.dataset.graphs[matrix_name]
            x_a_raw = self.dataset.features_raw[matrix_name]
        else:
            graph = graph_from_matrix(matrix, name=matrix_name)
            x_a_raw = feature_vector(matrix)
        batch = GraphBatch.from_graphs([graph])
        embedding = self.model.embed_graphs_numpy(batch)
        x_a = self.dataset.xa_standardizer.transform(x_a_raw[None, :])
        return embedding, x_a

    # -- objective ------------------------------------------------------------------
    def _ei_and_gradient_batch(self, x_raw: np.ndarray, head: ParameterHead,
                               acquisition: ExpectedImprovement, solver: str
                               ) -> tuple[np.ndarray, np.ndarray, np.ndarray,
                                          np.ndarray]:
        """EI, its gradient w.r.t. raw ``(alpha, eps, delta)``, mu and sigma
        at each row of ``x_raw`` (``(k, 3)``; shapes ``(k,)``, ``(k, 3)``,
        ``(k,)``, ``(k,)``).  Each row's numbers do not depend on the others."""
        x_m_raw = encode_parameter_rows(
            np.clip(x_raw, *self.bounds.as_arrays()), solver)
        x_m_standardised = self.dataset.standardize_parameters(x_m_raw)

        mu, sigma = head.forward(x_m_standardised[:, None, :])
        d_mu, d_sigma = acquisition.gradients(mu, sigma)

        # One backward pass of the weighted head combination yields
        # d(EI)/d(x_M standardised); the chain rule through the standardiser is
        # a division by the per-column scale.
        grad_standardised = head.input_gradient(d_mu, d_sigma)[:, 0, :]
        grad_raw_full = self.dataset.xm_standardizer.transform_gradient(grad_standardised)
        return acquisition.value(mu, sigma), grad_raw_full[:, :3], mu, sigma

    def reference_y_min(self, embedding: np.ndarray, x_a: np.ndarray, *,
                        matrix_name: str, solver: str, n_probe: int = 128) -> float:
        """Incumbent ``y_min`` for EI on a (possibly unseen) target matrix.

        On a matrix with existing observations the best observed mean is used
        (the literal reading of Eq. 3).  On an *unseen* matrix -- the transfer
        setting of the paper's experiment -- there is no observation yet, so
        the incumbent is the best *predicted* mean over a random probe of the
        parameter box, combined with any observations that do exist.  Without
        this, a dataset containing very small ``y`` values from easy matrices
        would drive EI to zero everywhere on a harder unseen matrix.
        """
        candidates = sample_parameters(max(n_probe, 8), bounds=self.bounds,
                                       solver=solver, seed=self._rng)
        x_m_raw = np.stack([encode_parameters(p) for p in candidates])
        x_m = self.dataset.standardize_parameters(x_m_raw)
        x_a_tiled = np.repeat(x_a, len(candidates), axis=0)
        sample_index = np.zeros(len(candidates), dtype=np.int64)
        from repro.nn.tensor import no_grad

        with no_grad():
            mu, _sigma = self.model.forward_from_embedding(
                embedding, sample_index, x_a_tiled, x_m)
        incumbent = float(mu.data.min())
        observed = [sample.y_mean for sample in self.dataset.samples
                    if sample.matrix_name == matrix_name]
        if observed:
            incumbent = min(incumbent, float(min(observed)))
        return incumbent

    # -- public API -----------------------------------------------------------------
    def propose(self, matrix: sp.spmatrix, matrix_name: str, *,
                y_min: float | None = None,
                n_candidates: int = 8, xi: float = 0.05,
                solver: str = "gmres",
                deduplicate_tol: float = 1e-3) -> list[Candidate]:
        """Recommend ``n_candidates`` parameter vectors for ``matrix``.

        Implements the inner loop of Algorithm 1: for each candidate slot a
        number of random starting points are refined with L-BFGS-B on the
        negative EI, all of them in lockstep; the distinct optima with the
        largest EI are returned.
        ``y_min=None`` selects the incumbent automatically via
        :meth:`reference_y_min`.
        """
        _check_count("n_candidates", n_candidates)
        was_training = self.model.training
        self.model.eval()
        try:
            embedding, x_a = self._prepare_target(matrix, matrix_name)
            if y_min is None:
                y_min = self.reference_y_min(embedding, x_a,
                                             matrix_name=matrix_name, solver=solver)
            acquisition = ExpectedImprovement(y_min=y_min, xi=xi)
            head = ParameterHead(self.model, embedding, x_a)
            lower, upper = self.bounds.as_arrays()

            def evaluate(points: np.ndarray) -> list[tuple]:
                ei, _grad, mu, sigma = self._ei_and_gradient_batch(
                    points, head, acquisition, solver)
                return [(point, float(e), float(m), float(s))
                        for point, e, m, s in zip(points, ei, mu, sigma)]

            total_starts = max(self.n_restarts * n_candidates, n_candidates)
            starts = [self._rng.uniform(lower, upper)
                      for _ in range(total_starts)]
            lbfgsb = LockstepLBFGSB(starts, lower, upper, maxiter=60)
            while (points := lbfgsb.ask()) is not None:
                ei, gradient, _mu, _sigma = self._ei_and_gradient_batch(
                    points, head, acquisition, solver)
                lbfgsb.tell(-ei, -gradient)
            evaluated = evaluate(np.clip(lbfgsb.x, lower, upper))

            # Greedy selection of the distinct optima with the highest EI.
            evaluated.sort(key=lambda item: item[1], reverse=True)
            selected: list[tuple[np.ndarray, float, float, float]] = []
            for entry in evaluated:
                if len(selected) >= n_candidates:
                    break
                if any(np.linalg.norm(entry[0] - chosen[0]) < deduplicate_tol
                       for chosen in selected):
                    continue
                selected.append(entry)
            # Top up with random samples when the optima collapse onto few points.
            if len(selected) < n_candidates:
                selected += evaluate(np.array([
                    self._rng.uniform(lower, upper)
                    for _ in range(n_candidates - len(selected))]))

            candidates = [
                Candidate(
                    parameters=MCMCParameters.from_array(point, solver=solver),
                    expected_improvement=ei,
                    predicted_mean=mu,
                    predicted_sigma=sigma,
                )
                for point, ei, mu, sigma in selected
            ]
            _LOG.debug("proposed %d candidates for %s (best EI %.4f)",
                       len(candidates), matrix_name,
                       candidates[0].expected_improvement if candidates else float("nan"))
            return candidates
        finally:
            if was_training:
                self.model.train()

    def predict_parameters(self, matrix: sp.spmatrix, matrix_name: str,
                           parameter_list: list[MCMCParameters]
                           ) -> tuple[np.ndarray, np.ndarray]:
        """Surrogate predictions ``(mu, sigma)`` for explicit parameter vectors."""
        was_training = self.model.training
        self.model.eval()
        try:
            embedding, x_a = self._prepare_target(matrix, matrix_name)
            x_m_raw = np.stack([encode_parameters(p) for p in parameter_list])
            x_m = self.dataset.standardize_parameters(x_m_raw)
            x_a_tiled = np.repeat(x_a, len(parameter_list), axis=0)
            sample_index = np.zeros(len(parameter_list), dtype=np.int64)
            from repro.nn.tensor import no_grad

            with no_grad():
                mu, sigma = self.model.forward_from_embedding(
                    embedding, sample_index, x_a_tiled, x_m)
            return mu.data.copy(), sigma.data.copy()
        finally:
            if was_training:
                self.model.train()
