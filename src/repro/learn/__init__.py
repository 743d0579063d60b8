"""Online learning loop: serving traffic -> surrogate -> policy.

The paper's GNN-surrogate + Expected-Improvement machinery (:mod:`repro.core`)
applied continuously inside the solve server:

* :class:`~repro.learn.registry.ModelRegistry` — immutable versioned model
  snapshots with atomic publish and a crash-safe trainer checkpoint;
* :class:`~repro.learn.trainer.SurrogateTrainer` — background training from
  :class:`~repro.service.store.ObservationStore` snapshots, incremental via
  the store's generation header;
* :class:`~repro.learn.policy.SurrogatePolicy` — the serving-side decision
  stage that proposes MCMC parameters by maximising EI under the latest
  published model, falling back gracefully when none is ready.

Everything here is opt-in: without ``--learn`` the solve server never imports
nor constructs these classes, keeping default serving bit-identical.
"""

from repro.learn.policy import SurrogatePolicy
from repro.learn.registry import ModelRegistry
from repro.learn.trainer import (
    LearnConfig,
    MatrixBank,
    SurrogateTrainer,
    TrainingAborted,
)

__all__ = [
    "LearnConfig",
    "MatrixBank",
    "ModelRegistry",
    "SurrogatePolicy",
    "SurrogateTrainer",
    "TrainingAborted",
]
