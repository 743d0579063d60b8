"""The graph neural surrogate model (Sec. 3.1).

Architecture (mirroring the paper's selected configuration, Sec. 4.4):

* a stack of message-passing layers over the matrix graph followed by global
  mean pooling -> graph embedding ``h_g``;
* an FC stack embedding the cheap matrix features ``x_A`` -> ``h_A``;
* an FC stack embedding the MCMC parameters ``x_M`` -> ``h_M``;
* concatenation and a combined FC stack with dropout -> ``h_combined``;
* two heads: ``mu = ReLU(W_mu h + b_mu)`` and
  ``sigma = softplus(W_sigma h + b_sigma)`` (Eq. 1).

The default configuration is a scaled-down version that trains in seconds on a
laptop; :meth:`SurrogateConfig.paper` reproduces the exact sizes selected by
the paper's hyperparameter optimisation (256 / 64 / 3x16 / 2x128).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.exceptions import SurrogateError
from repro.gnn.graph import GraphBatch
from repro.gnn.layers import build_conv_layer
from repro.gnn.pooling import global_mean_pool
from repro.nn import functional as F
from repro.nn.layers import Dropout, Linear, MLP, Module, OperationChain
from repro.nn.tensor import Tensor, no_grad

__all__ = ["SurrogateConfig", "GraphNeuralSurrogate", "ParameterHead"]


@dataclass(frozen=True)
class SurrogateConfig:
    """Hyperparameters of the graph neural surrogate.

    The attribute names follow Sec. 3.1/4.3 of the paper: ``l_g`` message
    passing layers of width ``graph_hidden``, ``l_A``/``l_M`` FC layers for the
    auxiliary inputs, ``l_c`` combined FC layers, plus the conv type and
    neighbourhood aggregation explored during HPO.
    """

    node_dim: int = 2
    edge_dim: int = 1
    xa_dim: int = 14
    xm_dim: int = 6
    conv_type: str = "edge"
    aggregation: str = "mean"
    graph_hidden: int = 32
    graph_layers: int = 1
    xa_hidden: int = 16
    xa_layers: int = 1
    xm_hidden: int = 16
    xm_layers: int = 3
    combined_hidden: int = 32
    combined_layers: int = 2
    dropout: float = 0.1
    seed: int = 0

    @classmethod
    def paper(cls, *, node_dim: int = 2, edge_dim: int = 1, xa_dim: int = 14,
              xm_dim: int = 6, seed: int = 0) -> "SurrogateConfig":
        """The configuration selected by the paper's HPO (Sec. 4.4)."""
        return cls(node_dim=node_dim, edge_dim=edge_dim, xa_dim=xa_dim, xm_dim=xm_dim,
                   conv_type="edge", aggregation="mean",
                   graph_hidden=256, graph_layers=1,
                   xa_hidden=64, xa_layers=1,
                   xm_hidden=16, xm_layers=3,
                   combined_hidden=128, combined_layers=2,
                   dropout=0.1, seed=seed)

    def with_dims(self, *, node_dim: int, edge_dim: int, xa_dim: int,
                  xm_dim: int) -> "SurrogateConfig":
        """Copy with the input dimensionalities inferred from a dataset."""
        return replace(self, node_dim=node_dim, edge_dim=edge_dim,
                       xa_dim=xa_dim, xm_dim=xm_dim)


class GraphNeuralSurrogate(Module):
    """Predicts the mean and uncertainty of the preconditioning metric.

    Inputs are a (batched) matrix graph, the per-sample index of the graph the
    sample belongs to, the standardised matrix features ``x_A`` and the
    standardised MCMC parameters ``x_M``; outputs are per-sample ``mu`` and
    ``sigma`` (both non-negative by construction).
    """

    def __init__(self, config: SurrogateConfig) -> None:
        super().__init__()
        self.config = config
        rng = np.random.default_rng(config.seed)

        if config.graph_layers < 1:
            raise SurrogateError("graph_layers must be >= 1")
        conv_layers = []
        in_dim = config.node_dim
        for _ in range(config.graph_layers):
            conv_layers.append(build_conv_layer(
                config.conv_type, in_dim, config.graph_hidden,
                edge_dim=config.edge_dim, aggregation=config.aggregation, rng=rng))
            in_dim = config.graph_hidden
        self.conv_layers = conv_layers

        self.xa_mlp = MLP(config.xa_dim, config.xa_hidden,
                          num_layers=config.xa_layers, rng=rng)
        self.xm_mlp = MLP(config.xm_dim, config.xm_hidden,
                          num_layers=config.xm_layers, rng=rng)

        combined_in = config.graph_hidden + config.xa_hidden + config.xm_hidden
        self.combined_mlp = MLP(combined_in, config.combined_hidden,
                                num_layers=config.combined_layers,
                                dropout=config.dropout, rng=rng)
        self.dropout = Dropout(config.dropout, rng=rng)
        self.mu_head = Linear(config.combined_hidden, 1, rng=rng)
        self.sigma_head = Linear(config.combined_hidden, 1, rng=rng)

    # -- graph embedding --------------------------------------------------------
    def embed_graphs(self, batch: GraphBatch) -> Tensor:
        """Per-graph embedding ``h_g`` of shape ``(num_graphs, graph_hidden)``."""
        node_embedding = Tensor(batch.node_features)
        edge_features = Tensor(batch.edge_features)
        for layer in self.conv_layers:
            node_embedding = layer(node_embedding, batch.edge_index, edge_features)
        return global_mean_pool(node_embedding, batch.node_to_graph, batch.num_graphs)

    def embed_graphs_numpy(self, batch: GraphBatch) -> np.ndarray:
        """Graph embeddings as a plain array (no tape), for the acquisition step."""
        was_training = self.training
        self.eval()
        try:
            with no_grad():
                return self.embed_graphs(batch).data.copy()
        finally:
            if was_training:
                self.train()

    # -- full forward ---------------------------------------------------------------
    def forward(self, graph_batch: GraphBatch, sample_graph_index: np.ndarray,
                x_a: np.ndarray | Tensor, x_m: np.ndarray | Tensor
                ) -> tuple[Tensor, Tensor]:
        """Compute ``(mu, sigma)`` for a batch of samples."""
        graph_embedding = self.embed_graphs(graph_batch)
        return self.forward_from_embedding(graph_embedding, sample_graph_index,
                                           x_a, x_m)

    def forward_from_embedding(self, graph_embedding: Tensor | np.ndarray,
                               sample_graph_index: np.ndarray,
                               x_a: np.ndarray | Tensor,
                               x_m: np.ndarray | Tensor) -> tuple[Tensor, Tensor]:
        """Forward pass reusing precomputed graph embeddings.

        The acquisition optimiser calls the surrogate thousands of times with
        the *same* graph while varying only ``x_M``; recomputing the message
        passing each time would dominate the cost, so the embedding is exposed
        as an explicit intermediate.
        """
        if not isinstance(graph_embedding, Tensor):
            graph_embedding = Tensor(graph_embedding)
        sample_graph_index = np.asarray(sample_graph_index, dtype=np.int64)
        per_sample_graph = F.gather_rows(graph_embedding, sample_graph_index)

        xa_tensor = x_a if isinstance(x_a, Tensor) else Tensor(np.atleast_2d(x_a))
        xm_tensor = x_m if isinstance(x_m, Tensor) else Tensor(np.atleast_2d(x_m))
        h_a = self.xa_mlp(xa_tensor)
        h_m = self.xm_mlp(xm_tensor)

        combined = F.concat([per_sample_graph, h_a, h_m], axis=-1)
        hidden = self.dropout(self.combined_mlp(combined))
        mu = F.relu(self.mu_head(hidden))
        sigma = F.softplus(self.sigma_head(hidden))
        return F.reshape(mu, (mu.shape[0],)), F.reshape(sigma, (sigma.shape[0],))

    # -- inference helpers --------------------------------------------------------------
    def predict(self, graph_batch: GraphBatch, sample_graph_index: np.ndarray,
                x_a: np.ndarray, x_m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Inference-mode prediction returning NumPy arrays."""
        was_training = self.training
        self.eval()
        try:
            with no_grad():
                mu, sigma = self.forward(graph_batch, sample_graph_index, x_a, x_m)
            return mu.data.copy(), sigma.data.copy()
        finally:
            if was_training:
                self.train()

    def predict_batch(self, batch) -> tuple[np.ndarray, np.ndarray]:
        """Prediction for a :class:`repro.core.dataset.SampleBatch`."""
        return self.predict(batch.graph_batch, batch.sample_graph_index,
                            batch.x_a, batch.x_m)


class ParameterHead:
    """``(mu, sigma)`` at one matrix as a function of ``x_M``, with no tape.

    The acquisition optimiser evaluates the surrogate at one graph for a
    batch of ``x_M`` rows per L-BFGS-B round, and needs the gradient with
    respect to ``x_M`` only.  The ``x_M``-free branch of
    :meth:`GraphNeuralSurrogate.forward_from_embedding` (the graph embedding
    row and ``h_A``) is computed once here.  :meth:`forward` runs the
    ``x_M`` stack, the combined stack and both heads as
    :class:`~repro.nn.layers.OperationChain` s of the model's own modules,
    and :meth:`input_gradient` backpropagates ``d_mu * mu + d_sigma * sigma``
    to ``x_M`` alone: no graph, no weight gradients, the model untouched.

    A batch of ``k`` points is stacked as ``(k, 1, xm_dim)``, each point a
    ``(1, xm_dim)`` matrix of its own, and the constant rows are broadcast to
    ``(k, 1, .)``.  numpy then multiplies every point by a weight matrix in
    a product of its own, the one the tape makes at batch size 1, so each
    row's values and gradient are the tape's at batch size 1 bit for bit,
    whatever ``k`` is.  (A flat ``(k, xm_dim)`` batch is one matrix product
    whose rows differ from those in the last bits.)

    ``graph_embedding`` is the ``(1, graph_hidden)`` embedding of the
    matrix and ``x_a`` its ``(1, xa_dim)`` standardised features; the model
    must be in evaluation mode (dropout is the identity).
    """

    def __init__(self, model: GraphNeuralSurrogate, graph_embedding: np.ndarray,
                 x_a: np.ndarray) -> None:
        with no_grad():
            h_a = model.xa_mlp(Tensor(np.atleast_2d(x_a))).data
        self._constant = (np.atleast_2d(graph_embedding), h_a)
        self._xm = OperationChain(model.xm_mlp.operations())
        self._combined = OperationChain(model.combined_mlp.operations()
                                        + model.dropout.operations())
        self._mu = OperationChain(model.mu_head.operations() + [
            (F.ReLU(), ()), (F.Reshape((-1,)), ())])
        self._sigma = OperationChain(model.sigma_head.operations() + [
            (F.Softplus(), ()), (F.Reshape((-1,)), ())])
        self._concat = F.Concat(axis=-1)

    def forward(self, x_m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(mu, sigma)``, each ``(k,)``, at ``k`` standardised points
        stacked as ``(k, 1, xm_dim)``."""
        constant = [np.broadcast_to(row, (len(x_m), 1, row.shape[-1]))
                    for row in self._constant]
        combined = self._concat.forward(*constant, self._xm.forward(x_m))
        hidden = self._combined.forward(combined)
        return self._mu.forward(hidden), self._sigma.forward(hidden)

    def input_gradient(self, d_mu: np.ndarray, d_sigma: np.ndarray
                       ) -> np.ndarray:
        """Gradient of ``d_mu * mu + d_sigma * sigma`` (``(k,)`` weights)
        with respect to the ``x_m`` of the latest :meth:`forward`, shaped
        like it."""
        grad_hidden = (self._mu.backward(np.asarray(d_mu, dtype=np.float64))
                       + self._sigma.backward(np.asarray(d_sigma,
                                                         dtype=np.float64)))
        grad_combined = self._combined.backward(grad_hidden)
        return self._xm.backward(self._concat.backward(grad_combined, 2))
