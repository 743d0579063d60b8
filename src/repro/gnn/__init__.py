"""Graph neural network layers over the matrix graph.

Section 3.1 of the paper builds a weighted directed graph ``G(A)`` whose
vertices are the matrix rows (vertex feature: unweighted row degree) and whose
edges are the non-zeros ``A_ij`` (edge weight: the value).  A stack of message
passing layers produces a graph embedding ``h_g`` that is fused with the
embeddings of the cheap matrix features ``x_A`` and the MCMC parameters
``x_M``.

This package provides:

* :mod:`repro.gnn.graph` -- :class:`GraphData` construction from sparse
  matrices and :class:`GraphBatch` block-diagonal batching;
* :mod:`repro.gnn.aggregate` -- neighbourhood aggregation helpers (sum / mean /
  max, plus the "multi" concatenation of all three explored in the paper);
* :mod:`repro.gnn.layers` -- EdgeConv (the architecture selected by the
  paper's HPO; its ``sum`` / ``mean`` message is one fused tape node,
  :class:`EdgeMessage`), a weighted GCN layer, a GATv2-style attention layer
  and a GINE-style layer, all edge-weight aware;
* :mod:`repro.gnn.pooling` -- global pooling producing one embedding per graph.
"""

from repro.gnn.graph import GraphData, GraphBatch, graph_from_matrix
from repro.gnn.aggregate import aggregate_neighbours, KNOWN_AGGREGATIONS
from repro.gnn.layers import (
    MessagePassingLayer,
    EdgeConv,
    EdgeMessage,
    GCNConv,
    GATv2Conv,
    GINEConv,
    build_conv_layer,
    KNOWN_CONV_TYPES,
)
from repro.gnn.pooling import global_mean_pool, global_sum_pool, global_max_pool

__all__ = [
    "GraphData",
    "GraphBatch",
    "graph_from_matrix",
    "aggregate_neighbours",
    "KNOWN_AGGREGATIONS",
    "MessagePassingLayer",
    "EdgeConv",
    "EdgeMessage",
    "GCNConv",
    "GATv2Conv",
    "GINEConv",
    "build_conv_layer",
    "KNOWN_CONV_TYPES",
    "global_mean_pool",
    "global_sum_pool",
    "global_max_pool",
]
