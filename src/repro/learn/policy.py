"""Serving-side surrogate proposals: the paper's EI loop at decision time.

:class:`SurrogatePolicy` is what the solve-server's
:class:`~repro.server.policy.PreconditionerPolicy` consults between stored
reuse and nearest-neighbour warm starts.  It holds the most recently
published surrogate generation (handed over in-process by the trainer's
``on_publish`` callback, or restored from the :class:`ModelRegistry` at
startup) and runs the ladder's :func:`~repro.service.ladder.surrogate` stage
in its *exploit* form — the same stage
:meth:`~repro.core.recommender.MCMCTuner.recommend` runs in its *explore*
form — pointed at live traffic.

Determinism: each proposal is seeded from ``(fingerprint, model version)``
(:func:`proposal_seed`), so a decision is a pure function of the matrix and
the model — independent of request order, batching, or how many proposals
happened before.  Fallback is always graceful: no model yet, a proposal
error, or a low-confidence prediction simply returns ``None`` and the
decision ladder continues to warm-start/rule provenance unchanged.
"""

from __future__ import annotations

import threading

import scipy.sparse as sp

from repro.core.dataset import SurrogateDataset
from repro.core.surrogate import GraphNeuralSurrogate
from repro.learn.registry import ModelRegistry
from repro.learn.trainer import (
    MatrixBank,
    apply_published_standardizers,
    build_training_snapshot,
    rebuild_model,
)
from repro.logging_utils import get_logger
from repro.mcmc.parameters import DEFAULT_BOUNDS, KNOWN_SOLVERS, ParameterBounds
from repro.service import ladder
from repro.service.ladder import Proposal
from repro.service.store import ObservationStore
from repro.sparse.fingerprint import content_hash

__all__ = ["SurrogatePolicy", "proposal_seed"]

_LOG = get_logger("learn.policy")

#: How a served proposal is generated: EI candidates per proposal, the EI
#: exploration weight that generates them, L-BFGS-B restarts per candidate.
N_CANDIDATES = 4
XI = 0.05
N_RESTARTS = 2


def proposal_seed(fingerprint: str, model_version: str) -> int:
    """Seed of one proposal: a pure function of the matrix and the model."""
    return int(content_hash("surrogate-proposal", fingerprint,
                            model_version)[:8], 16)


class SurrogatePolicy:
    """Thread-safe holder of the live surrogate generation + EI proposer.

    Parameters
    ----------
    bounds:
        Box the proposed ``(alpha, eps, delta)`` must lie in.
    max_sigma:
        Optional confidence gate: proposals whose predicted sigma exceeds it
        are rejected (the ladder falls through to warm start / rules).
    telemetry:
        Optional metrics registry; every proposal outcome increments
        ``learn.proposals{outcome=...}``.
    """

    def __init__(self, *, bounds: ParameterBounds = DEFAULT_BOUNDS,
                 max_sigma: float | None = None, telemetry=None) -> None:
        self.bounds = bounds
        self.max_sigma = max_sigma
        self.telemetry = telemetry
        self._lock = threading.Lock()
        self._model: GraphNeuralSurrogate | None = None
        self._dataset: SurrogateDataset | None = None
        self._version: str | None = None

    # -- model lifecycle -----------------------------------------------------
    @property
    def ready(self) -> bool:
        """Whether a model generation is loaded."""
        with self._lock:
            return self._model is not None

    @property
    def model_version(self) -> str | None:
        """Version id of the loaded generation."""
        with self._lock:
            return self._version

    def update(self, model: GraphNeuralSurrogate, dataset: SurrogateDataset,
               version: str, meta: dict | None = None) -> None:
        """Swap in a freshly published generation (trainer callback)."""
        del meta  # lineage already lives in the registry
        with self._lock:
            self._model = model
            self._dataset = dataset
            self._version = version
        _LOG.info("surrogate policy now serving model %s", version)

    def restore(self, registry: ModelRegistry, store: ObservationStore, *,
                bank: MatrixBank | None = None) -> bool:
        """Load the registry's current version for a fresh process.

        The dataset is rebuilt from the store (graphs need actual matrices)
        and re-scaled with the standardisers recorded at training time.
        Returns ``False`` when there is no published model or no record's
        matrix can be resolved.
        """
        version = registry.current_version()
        if version is None:
            return False
        state, meta = registry.load(version)
        observations, matrices, _skipped, _hash = \
            build_training_snapshot(store, bank)
        if not observations:
            _LOG.warning("cannot restore model %s: no resolvable records", version)
            return False
        dataset = SurrogateDataset(observations, matrices)
        apply_published_standardizers(dataset, meta)
        model = rebuild_model(meta, state)
        self.update(model, dataset, version)
        return True

    # -- proposals -----------------------------------------------------------
    def _count(self, outcome: str) -> None:
        if self.telemetry is not None:
            self.telemetry.counter("learn.proposals", outcome=outcome).add()

    def propose(self, matrix: sp.spmatrix, fingerprint: str, *,
                solver: str | None = None,
                matrix_name: str | None = None) -> Proposal | None:
        """The model's most confident parameters for ``matrix``, or ``None``
        to fall back."""
        with self._lock:
            model = self._model
            dataset = self._dataset
            version = self._version
        if model is None or dataset is None or version is None:
            self._count("no_model")
            return None
        try:
            candidates = ladder.surrogate(
                model, dataset, matrix,
                matrix_name if matrix_name is not None else fingerprint[:12],
                bounds=self.bounds, seed=proposal_seed(fingerprint, version),
                solver=solver if solver in KNOWN_SOLVERS else "gmres",
                n_candidates=N_CANDIDATES, xi=XI, n_restarts=N_RESTARTS,
                exploit=True)
        except Exception as exc:
            _LOG.warning("surrogate proposal failed for %s: %s",
                         fingerprint[:8], exc)
            self._count("error")
            return None
        if not candidates:
            self._count("non_finite")
            return None
        candidate = candidates[0]
        if self.max_sigma is not None and \
                candidate.predicted_sigma > self.max_sigma:
            self._count("low_confidence")
            return None
        self._count("proposed")
        return Proposal(
            candidate.parameters.clipped(self.bounds), ladder.ORIGIN_SURROGATE,
            y_mean=candidate.predicted_mean, y_std=candidate.predicted_sigma,
            model_version=version)
