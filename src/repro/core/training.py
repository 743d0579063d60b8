"""Training of the graph neural surrogate.

Implements the paper's objective (Eq. 2)

.. math::

    L(\\theta) = \\frac{1}{N} \\sum_i (\\hat\\mu_i - \\bar y_i)^2
                                + (\\hat\\sigma_i - s_i)^2

optimised with Adam (the paper's selected learning rate is ``1.848e-3`` with
weight decay 1.0), mini-batches of 128 samples, and early stopping on the
validation loss with best-weight restoration.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from repro.core.dataset import SampleBatch, SurrogateDataset
from repro.core.surrogate import GraphNeuralSurrogate
from repro.exceptions import SurrogateError
from repro.logging_utils import get_logger
from repro.nn import functional as F
from repro.nn.optim import Adam
from repro.nn.tensor import Tensor, no_grad

__all__ = ["TrainingConfig", "TrainingHistory", "Trainer"]

_LOG = get_logger("core.training")


@dataclass(frozen=True)
class TrainingConfig:
    """Optimisation hyperparameters of the surrogate."""

    epochs: int = 100
    batch_size: int = 128
    learning_rate: float = 1.848e-3
    weight_decay: float = 1e-4
    validation_fraction: float = 0.2
    patience: int = 20
    min_epochs: int = 10
    seed: int = 0

    @classmethod
    def paper(cls, *, seed: int = 0) -> "TrainingConfig":
        """The configuration selected by the paper's HPO (150-epoch budget)."""
        return cls(epochs=150, batch_size=128, learning_rate=1.848e-3,
                   weight_decay=1.0, validation_fraction=0.2, patience=20,
                   seed=seed)


@dataclass
class TrainingHistory:
    """Per-epoch loss curves and the best validation loss reached."""

    train_losses: list[float] = field(default_factory=list)
    validation_losses: list[float] = field(default_factory=list)
    best_epoch: int = -1
    best_validation_loss: float = float("inf")
    stopped_early: bool = False

    @property
    def epochs_run(self) -> int:
        """Number of epochs actually executed."""
        return len(self.train_losses)


def surrogate_loss(mu: Tensor, sigma: Tensor, y_mean: np.ndarray,
                   y_std: np.ndarray) -> Tensor:
    """The MSE objective of Eq. 2 on a batch."""
    target_mean = Tensor(np.asarray(y_mean, dtype=np.float64))
    target_std = Tensor(np.asarray(y_std, dtype=np.float64))
    mean_term = F.mse_loss(mu, target_mean)
    std_term = F.mse_loss(sigma, target_std)
    return F.add(mean_term, std_term)


class Trainer:
    """Fits a :class:`GraphNeuralSurrogate` on a :class:`SurrogateDataset`."""

    def __init__(self, config: TrainingConfig | None = None) -> None:
        self.config = config if config is not None else TrainingConfig()

    # -- loss evaluation -----------------------------------------------------------
    @staticmethod
    def batch_loss(model: GraphNeuralSurrogate, batch: SampleBatch) -> Tensor:
        """Differentiable loss of one batch."""
        mu, sigma = model.forward(batch.graph_batch, batch.sample_graph_index,
                                  batch.x_a, batch.x_m)
        return surrogate_loss(mu, sigma, batch.y_mean, batch.y_std)

    @staticmethod
    def evaluate_loss(model: GraphNeuralSurrogate, batch: SampleBatch) -> float:
        """Inference-mode loss (no dropout, no tape)."""
        was_training = model.training
        model.eval()
        try:
            with no_grad():
                loss = Trainer.batch_loss(model, batch)
            return float(loss.item())
        finally:
            if was_training:
                model.train()

    # -- main loop -------------------------------------------------------------------
    def fit(self, model: GraphNeuralSurrogate, dataset: SurrogateDataset, *,
            train_indices: np.ndarray | None = None,
            validation_indices: np.ndarray | None = None,
            start_epoch: int = 0,
            on_epoch: Callable[[int], None] | None = None) -> TrainingHistory:
        """Train ``model`` in place and return the loss history.

        When the index splits are not supplied, the dataset's random
        80/20 split (seeded from the training config) is used.

        ``start_epoch`` resumes an interrupted fit whose weights the caller
        has loaded into ``model``: the first ``start_epoch`` shuffles are
        drawn and discarded, so the resumed run walks the batch order the
        uninterrupted one would have, and the best-so-far starts from the
        loaded weights' validation loss.  ``on_epoch(epoch)`` runs after
        each epoch's bookkeeping (checkpointing; raise to abort the fit).
        """
        config = self.config
        if config.epochs < 1:
            raise SurrogateError(f"epochs must be >= 1, got {config.epochs}")
        if train_indices is None or validation_indices is None:
            train_indices, validation_indices = dataset.split(
                config.validation_fraction, seed=config.seed)
        if train_indices.size == 0 or validation_indices.size == 0:
            raise SurrogateError("both splits must be non-empty")

        optimizer = Adam(model.parameters(), lr=config.learning_rate,
                         weight_decay=config.weight_decay)
        rng = np.random.default_rng(config.seed)
        history = TrainingHistory()
        best_state = model.state_dict()
        validation_batch = dataset.batch_from_indices(validation_indices)
        epochs_without_improvement = 0
        if start_epoch:
            for _ in range(start_epoch):
                rng.shuffle(train_indices.copy())
            history.best_validation_loss = self.evaluate_loss(
                model, validation_batch)
            history.best_epoch = start_epoch - 1

        model.train()
        for epoch in range(start_epoch, config.epochs):
            order = train_indices.copy()
            rng.shuffle(order)
            epoch_losses: list[float] = []
            for start in range(0, order.size, config.batch_size):
                batch = dataset.batch_from_indices(order[start:start + config.batch_size])
                optimizer.zero_grad()
                loss = self.batch_loss(model, batch)
                loss.backward()
                optimizer.step()
                epoch_losses.append(float(loss.item()))
            train_loss = float(np.mean(epoch_losses)) if epoch_losses else float("nan")
            validation_loss = self.evaluate_loss(model, validation_batch)
            history.train_losses.append(train_loss)
            history.validation_losses.append(validation_loss)

            if validation_loss < history.best_validation_loss - 1e-12:
                history.best_validation_loss = validation_loss
                history.best_epoch = epoch
                best_state = model.state_dict()
                epochs_without_improvement = 0
            else:
                epochs_without_improvement += 1

            if (epoch + 1) % 25 == 0 or epoch == config.epochs - 1:
                _LOG.debug("epoch %d: train %.4f, val %.4f", epoch, train_loss,
                           validation_loss)
            if on_epoch is not None:
                on_epoch(epoch)
            if (epoch + 1 >= config.min_epochs
                    and epochs_without_improvement >= config.patience):
                history.stopped_early = True
                break

        model.load_state_dict(best_state)
        model.eval()
        return history
