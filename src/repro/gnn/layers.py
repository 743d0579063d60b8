"""Message-passing layers.

Four edge-weight-aware layer types cover the architecture families explored by
the paper's hyperparameter search (GATv2, Graph Transformer, GMMConv,
EdgeConv, GINE, PNA): we implement EdgeConv (the layer the HPO finally
selected), a weighted GCN layer, a simplified GATv2 attention layer and a
GINE-style layer.  All follow the same pattern -- compute per-edge messages
from the endpoint features and the edge feature, aggregate per target vertex,
then apply layer normalisation and a ReLU -- so they are interchangeable in
the surrogate via :func:`build_conv_layer` (the knob exercised by the
architecture ablation benchmark).

EdgeConv's message and its ``sum`` / ``mean`` aggregation run as one tape
node, :class:`EdgeMessage`, with the numpy calls of the five-node chain it
replaces (matmul, bias add, ReLU, segment sum, mean scale), so its output
and gradients are the chain's bit for bit while the tape no longer keeps the
chain's three ``(E, hidden)`` intermediates until the backward.  ``max`` and
``multi`` aggregation keep the chain (:meth:`EdgeConv.messages` +
:func:`~repro.gnn.aggregate.aggregate_neighbours`).
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import GraphConstructionError
from repro.gnn.aggregate import aggregate_neighbours, aggregation_output_dim
from repro.nn import functional as F
from repro.nn.autograd import Operation, apply
from repro.nn.layers import LayerNorm, Linear, Module
from repro.nn.tensor import Tensor

__all__ = [
    "MessagePassingLayer",
    "EdgeConv",
    "EdgeMessage",
    "GCNConv",
    "GATv2Conv",
    "GINEConv",
    "build_conv_layer",
    "KNOWN_CONV_TYPES",
]


class MessagePassingLayer(Module):
    """Base class: message computation + aggregation + update.

    Sub-classes implement :meth:`messages`; the shared :meth:`forward` gathers
    endpoint features, aggregates the messages with the configured strategy,
    projects the result back to ``out_features`` when necessary and applies
    layer normalisation followed by ReLU (the per-layer structure described in
    Sec. 3.1).
    """

    def __init__(self, in_features: int, out_features: int, *, edge_dim: int = 1,
                 aggregation: str = "mean",
                 rng: np.random.Generator | None = None) -> None:
        super().__init__()
        if in_features <= 0 or out_features <= 0:
            raise GraphConstructionError(
                f"invalid layer dimensions ({in_features}, {out_features})")
        self.in_features = in_features
        self.out_features = out_features
        self.edge_dim = edge_dim
        self.aggregation = aggregation
        self._rng = rng if rng is not None else np.random.default_rng(0)
        aggregated_dim = aggregation_output_dim(aggregation, self.message_dim())
        self.output_projection = (
            Linear(aggregated_dim, out_features, rng=self._rng)
            if aggregated_dim != out_features else None)
        self.norm = LayerNorm(out_features)

    # -- hooks ---------------------------------------------------------------
    def message_dim(self) -> int:
        """Dimension of the per-edge messages produced by :meth:`messages`."""
        return self.out_features

    def messages(self, source_features: Tensor, target_features: Tensor,
                 edge_features: Tensor) -> Tensor:
        """Compute per-edge messages (shape ``(E, message_dim)``)."""
        raise NotImplementedError

    def aggregated_messages(self, source_features: Tensor,
                            target_features: Tensor, edge_features: Tensor,
                            target_index: np.ndarray, num_nodes: int) -> Tensor:
        """Per-target-vertex aggregate of :meth:`messages`."""
        return aggregate_neighbours(
            self.messages(source_features, target_features, edge_features),
            target_index, num_nodes, self.aggregation)

    # -- shared forward --------------------------------------------------------
    def forward(self, node_features: Tensor, edge_index: np.ndarray,
                edge_features: Tensor) -> Tensor:
        source_index = edge_index[0]
        target_index = edge_index[1]
        num_nodes = node_features.shape[0]
        source_features = F.gather_rows(node_features, source_index)
        target_features = F.gather_rows(node_features, target_index)
        aggregated = self.aggregated_messages(source_features, target_features,
                                              edge_features, target_index,
                                              num_nodes)
        if self.output_projection is not None:
            aggregated = self.output_projection(aggregated)
        return F.relu(self.norm(aggregated))


class EdgeMessage(Operation):
    """EdgeConv's message and its ``sum`` / ``mean`` aggregation as one node.

    The inputs are ``(stacked, W, b)``; the output is, per target vertex, the
    sum or mean of ``ReLU(stacked @ W + b)`` over the vertex's incoming
    edges.  The forward makes the numpy calls of the chain it replaces
    (``MatMul`` -> ``Add`` -> ``ReLU`` -> ``SegmentSum`` -> ``Mul`` by the
    mean scale) in that order, and the backward those of the chain's
    backward, so output and gradients are the chain's bit for bit.  The ReLU
    is ``h * (h > 0)``, as :class:`~repro.nn.functional.ReLU` computes it
    (``np.maximum`` differs on ``-0.0`` and ``-inf``).  The ``(E, hidden)``
    activations die when the forward returns: the node keeps ``stacked``,
    ``W``, the boolean ReLU mask, the target ids and the mean scale.
    """

    # The bias gradient is the edge gradient itself: the engine sums it over
    # the edges, as it does for the chain's ``Add``.
    broadcastable = True

    def __init__(self, target_index: np.ndarray, num_nodes: int,
                 aggregation: str) -> None:
        if aggregation not in ("sum", "mean"):
            raise GraphConstructionError(
                f"EdgeMessage aggregates by 'sum' or 'mean', not {aggregation!r}")
        self.target_index = target_index
        self.num_nodes = num_nodes
        self.scale = (F.segment_mean_scale(target_index, num_nodes)[:, None]
                      if aggregation == "mean" else None)
        self._grad = None
        self._index = -1

    def forward(self, stacked, weight, bias):
        h = stacked @ weight
        h += bias
        mask = h > 0
        np.multiply(h, mask, out=h)
        out = F.segment_incidence(self.target_index, self.num_nodes) @ h
        if self.scale is not None:
            out *= self.scale
        self.stacked, self.weight, self.mask = stacked, weight, mask
        return out

    def backward(self, grad, index):
        # The engine asks for the inputs in increasing order; the edge
        # gradient is computed at the first request of a pass and shared.
        if grad is not self._grad or index <= self._index:
            edge_grad = grad if self.scale is None else grad * self.scale
            edge_grad = edge_grad[self.target_index]
            edge_grad *= self.mask
            self._grad, self._edge_grad = grad, edge_grad
        self._index = index
        if index == 0:
            return self._edge_grad @ self.weight.T
        if index == 1:
            return self.stacked.T @ self._edge_grad
        return self._edge_grad


class EdgeConv(MessagePassingLayer):
    """EdgeConv (Wang et al. 2019), the layer selected by the paper's HPO.

    Message for edge ``(i -> j)``: ``MLP([x_j, x_i - x_j, w_ij])`` -- the
    receiving vertex's feature, the feature difference along the edge and the
    edge weight -- implemented as a single linear layer per EdgeConv block
    (the surrogate stacks blocks when more depth is requested).

    With ``sum`` or ``mean`` aggregation the message and the aggregation are
    one :class:`EdgeMessage` node; ``max`` and ``multi`` aggregate the
    :meth:`messages` chain, their only path.
    """

    def __init__(self, in_features: int, out_features: int, *, edge_dim: int = 1,
                 aggregation: str = "mean",
                 rng: np.random.Generator | None = None) -> None:
        self._message_input_dim = 2 * in_features + edge_dim
        super().__init__(in_features, out_features, edge_dim=edge_dim,
                         aggregation=aggregation, rng=rng)
        self.message_linear = Linear(self._message_input_dim, out_features,
                                     rng=self._rng)

    @staticmethod
    def _stacked(source_features: Tensor, target_features: Tensor,
                 edge_features: Tensor) -> Tensor:
        difference = F.sub(source_features, target_features)
        return F.concat([target_features, difference, edge_features], axis=-1)

    def messages(self, source_features: Tensor, target_features: Tensor,
                 edge_features: Tensor) -> Tensor:
        stacked = self._stacked(source_features, target_features, edge_features)
        return F.relu(self.message_linear(stacked))

    def aggregated_messages(self, source_features: Tensor,
                            target_features: Tensor, edge_features: Tensor,
                            target_index: np.ndarray, num_nodes: int) -> Tensor:
        if self.aggregation not in ("sum", "mean"):
            return super().aggregated_messages(
                source_features, target_features, edge_features,
                target_index, num_nodes)
        stacked = self._stacked(source_features, target_features, edge_features)
        operation = EdgeMessage(np.asarray(target_index, dtype=np.int64),
                                num_nodes, self.aggregation)
        return apply(operation, stacked, self.message_linear.weight,
                     self.message_linear.bias)


class GCNConv(MessagePassingLayer):
    """Weighted graph-convolution layer.

    Message for edge ``(i -> j)``: ``(x_i W) * |w_ij| / (1 + deg(j))`` -- the
    source embedding scaled by the (absolute) edge weight; mean aggregation
    plus the degree normalisation approximates the symmetric normalisation of
    the classical GCN while remaining well defined for directed matrices.
    """

    def __init__(self, in_features: int, out_features: int, *, edge_dim: int = 1,
                 aggregation: str = "mean",
                 rng: np.random.Generator | None = None) -> None:
        super().__init__(in_features, out_features, edge_dim=edge_dim,
                         aggregation=aggregation, rng=rng)
        self.linear = Linear(in_features, out_features, rng=self._rng)
        self.self_linear = Linear(in_features, out_features, rng=self._rng)

    def messages(self, source_features: Tensor, target_features: Tensor,
                 edge_features: Tensor) -> Tensor:
        weight_magnitude = Tensor(np.abs(edge_features.data[:, :1]))
        return F.mul(self.linear(source_features), weight_magnitude)

    def forward(self, node_features: Tensor, edge_index: np.ndarray,
                edge_features: Tensor) -> Tensor:
        aggregated = super().forward(node_features, edge_index, edge_features)
        return F.relu(F.add(aggregated, self.self_linear(node_features)))


class GATv2Conv(MessagePassingLayer):
    """Simplified single-head GATv2 attention layer (Brody et al. 2022).

    Attention logit for edge ``(i -> j)``:
    ``a^T LeakyReLU(W_s x_i + W_t x_j + W_e w_ij)``; the logits are normalised
    with a segment-softmax over the edges entering each target vertex and the
    messages are the attention-weighted source embeddings.
    """

    def __init__(self, in_features: int, out_features: int, *, edge_dim: int = 1,
                 aggregation: str = "sum",
                 rng: np.random.Generator | None = None) -> None:
        super().__init__(in_features, out_features, edge_dim=edge_dim,
                         aggregation=aggregation, rng=rng)
        self.source_linear = Linear(in_features, out_features, rng=self._rng)
        self.target_linear = Linear(in_features, out_features, rng=self._rng)
        self.edge_linear = Linear(edge_dim, out_features, rng=self._rng)
        self.attention = Linear(out_features, 1, bias=False, rng=self._rng)

    def forward(self, node_features: Tensor, edge_index: np.ndarray,
                edge_features: Tensor) -> Tensor:
        source_index = edge_index[0]
        target_index = edge_index[1]
        num_nodes = node_features.shape[0]
        source_features = F.gather_rows(node_features, source_index)
        target_features = F.gather_rows(node_features, target_index)

        transformed_source = self.source_linear(source_features)
        hidden = F.leaky_relu(F.add(F.add(transformed_source,
                                          self.target_linear(target_features)),
                                    self.edge_linear(edge_features)))
        logits = self.attention(hidden)  # (E, 1)

        # Segment softmax over incoming edges of each target vertex.
        max_per_target = F.segment_max(logits, target_index, num_nodes)
        shifted = F.sub(logits, F.gather_rows(max_per_target, target_index))
        exponentials = F.exp(shifted)
        normaliser = F.segment_sum(exponentials, target_index, num_nodes)
        attention = F.div(exponentials,
                          F.add(F.gather_rows(normaliser, target_index),
                                Tensor(1e-12)))

        messages = F.mul(transformed_source, attention)
        aggregated = aggregate_neighbours(messages, target_index, num_nodes,
                                          self.aggregation)
        if self.output_projection is not None:
            aggregated = self.output_projection(aggregated)
        return F.relu(self.norm(aggregated))


class GINEConv(MessagePassingLayer):
    """GINE-style layer (Hu et al. 2020): edge-augmented isomorphism network.

    Message for edge ``(i -> j)``: ``ReLU(x_i W + w_ij W_e)``; the update adds
    ``(1 + eps) x_j`` before the final transformation, with a learnable
    ``eps`` initialised at zero.
    """

    def __init__(self, in_features: int, out_features: int, *, edge_dim: int = 1,
                 aggregation: str = "sum",
                 rng: np.random.Generator | None = None) -> None:
        super().__init__(in_features, out_features, edge_dim=edge_dim,
                         aggregation=aggregation, rng=rng)
        self.linear = Linear(in_features, out_features, rng=self._rng)
        self.edge_linear = Linear(edge_dim, out_features, rng=self._rng)
        self.self_linear = Linear(in_features, out_features, rng=self._rng)
        self.epsilon = Tensor(np.zeros(1), requires_grad=True, name="epsilon")

    def messages(self, source_features: Tensor, target_features: Tensor,
                 edge_features: Tensor) -> Tensor:
        return F.relu(F.add(self.linear(source_features),
                            self.edge_linear(edge_features)))

    def forward(self, node_features: Tensor, edge_index: np.ndarray,
                edge_features: Tensor) -> Tensor:
        aggregated = super().forward(node_features, edge_index, edge_features)
        self_term = self.self_linear(node_features)
        scaled_self = F.mul(self_term, F.add(Tensor(1.0), self.epsilon))
        return F.relu(F.add(aggregated, scaled_self))


#: Conv-layer registry used by the surrogate configuration and the ablations.
KNOWN_CONV_TYPES: dict[str, type[MessagePassingLayer]] = {
    "edge": EdgeConv,
    "gcn": GCNConv,
    "gatv2": GATv2Conv,
    "gine": GINEConv,
}


def build_conv_layer(conv_type: str, in_features: int, out_features: int, *,
                     edge_dim: int = 1, aggregation: str = "mean",
                     rng: np.random.Generator | None = None) -> MessagePassingLayer:
    """Instantiate a message-passing layer by name."""
    key = conv_type.strip().lower()
    if key not in KNOWN_CONV_TYPES:
        raise GraphConstructionError(
            f"unknown conv type {conv_type!r}; expected one of {sorted(KNOWN_CONV_TYPES)}")
    return KNOWN_CONV_TYPES[key](in_features, out_features, edge_dim=edge_dim,
                                 aggregation=aggregation, rng=rng)
