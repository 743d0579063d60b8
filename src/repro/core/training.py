"""Training of the graph neural surrogate.

Implements the paper's objective (Eq. 2)

.. math::

    L(\\theta) = \\frac{1}{N} \\sum_i (\\hat\\mu_i - \\bar y_i)^2
                                + (\\hat\\sigma_i - s_i)^2

optimised with Adam (the paper's selected learning rate is ``1.848e-3`` with
weight decay 1.0), mini-batches of 128 samples, and early stopping on the
validation loss with best-weight restoration.

A fit embeds the graphs once per weight state.  Every batch carries the
dataset's one block-diagonal graph batch, and the message-passing stack has
no dropout, so the embedding a validation pass needs after a step is the
one the next step trains on.  :meth:`Trainer.fit` therefore embeds with the
tape at the start and after each optimiser step (untaped after the last
step, which nothing trains on), validates on that embedding's values and
hands the taped tensor to the next step: optimiser steps + 1 embeddings in
all.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from repro.core.dataset import SampleBatch, SurrogateDataset
from repro.core.surrogate import GraphNeuralSurrogate
from repro.exceptions import SurrogateError
from repro.gnn.graph import GraphBatch
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
        return Trainer._embedded_loss(model, model.embed_graphs(batch.graph_batch),
                                      batch)

    @staticmethod
    def _embedded_loss(model: GraphNeuralSurrogate, embedding: Tensor | np.ndarray,
                       batch: SampleBatch) -> Tensor:
        """Loss of ``batch`` on graph embeddings already computed."""
        mu, sigma = model.forward_from_embedding(embedding, batch.sample_graph_index,
                                                 batch.x_a, batch.x_m)
        return surrogate_loss(mu, sigma, batch.y_mean, batch.y_std)

    @staticmethod
    def evaluate_loss(model: GraphNeuralSurrogate, batch: SampleBatch) -> float:
        """Inference-mode loss (no dropout, no tape)."""
        return Trainer._inference_loss(
            model, model.embed_graphs_numpy(batch.graph_batch), batch)

    @staticmethod
    def _inference_loss(model: GraphNeuralSurrogate, embedding: np.ndarray,
                        batch: SampleBatch) -> float:
        """Loss of ``batch`` on ``embedding`` in evaluation mode, untaped."""
        was_training = model.training
        model.eval()
        try:
            with no_grad():
                loss = Trainer._embedded_loss(model, embedding, batch)
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

        ``start_epoch`` (in ``[0, epochs]``) resumes an interrupted fit whose
        weights the caller has loaded into ``model``: the first
        ``start_epoch`` shuffles are drawn and discarded, so the resumed run
        walks the batch order the uninterrupted one would have, and the
        best-so-far starts from the loaded weights' validation loss.
        ``on_epoch(epoch)`` runs after each epoch's bookkeeping
        (checkpointing; raise to abort the fit).

        The graphs are embedded once per weight state (see the module
        docstring): optimiser steps + 1 embeddings in all.
        """
        config = self.config
        _require_count("epochs", config.epochs)
        _require_count("batch_size", config.batch_size)
        if not _is_int(start_epoch) or not 0 <= start_epoch <= config.epochs:
            raise SurrogateError(f"start_epoch must be an int in [0, {config.epochs}], "
                                 f"got {start_epoch!r}")
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
        graph_batch = dataset.graph_batch
        validation_batch = dataset.batch_from_indices(validation_indices)
        epochs_without_improvement = 0
        for _ in range(start_epoch):
            rng.shuffle(train_indices.copy())

        model.train()
        # The embedding at the current weights: taped while a step follows.
        embedding = _embed(model, graph_batch, taped=start_epoch < config.epochs)
        if start_epoch:
            history.best_validation_loss = self._inference_loss(
                model, embedding.data, validation_batch)
            history.best_epoch = start_epoch - 1

        for epoch in range(start_epoch, config.epochs):
            order = train_indices.copy()
            rng.shuffle(order)
            epoch_losses: list[float] = []
            for start in range(0, order.size, config.batch_size):
                batch = dataset.batch_from_indices(order[start:start + config.batch_size])
                optimizer.zero_grad()
                loss = self._embedded_loss(model, embedding, batch)
                loss.backward()
                optimizer.step()
                epoch_losses.append(float(loss.item()))
                embedding = _embed(model, graph_batch, taped=(
                    epoch + 1 < config.epochs
                    or start + config.batch_size < order.size))
            train_loss = float(np.mean(epoch_losses)) if epoch_losses else float("nan")
            validation_loss = self._inference_loss(model, embedding.data,
                                                   validation_batch)
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


def _embed(model: GraphNeuralSurrogate, graph_batch: GraphBatch, *,
           taped: bool) -> Tensor:
    """The graph embeddings at the model's current weights.

    Computed in training mode; the message-passing stack has no dropout, so
    the values are the evaluation-mode ones too.
    """
    if taped:
        return model.embed_graphs(graph_batch)
    with no_grad():
        return model.embed_graphs(graph_batch)


def _is_int(value) -> bool:
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _require_count(name: str, value) -> None:
    if not _is_int(value) or value < 1:
        raise SurrogateError(f"{name} must be an int >= 1, got {value!r}")
