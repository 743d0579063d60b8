"""Tests for graph construction, aggregation, message-passing layers and pooling."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.core.surrogate import GraphNeuralSurrogate, SurrogateConfig
from repro.exceptions import GraphConstructionError
from repro.gnn import (
    EdgeConv,
    EdgeMessage,
    GraphBatch,
    GraphData,
    KNOWN_AGGREGATIONS,
    KNOWN_CONV_TYPES,
    aggregate_neighbours,
    build_conv_layer,
    global_max_pool,
    global_mean_pool,
    global_sum_pool,
    graph_from_matrix,
)
from repro.matrices import laplacian_2d, pdd_real_sparse, unsteady_advection_diffusion
from repro.nn import functional as F
from repro.nn.autograd import apply
from repro.nn.gradcheck import gradcheck
from repro.nn.tensor import Tensor


class TestGraphFromMatrix:
    def test_edges_match_nonzeros(self, small_spd):
        graph = graph_from_matrix(small_spd)
        assert graph.num_edges == small_spd.nnz
        assert graph.num_nodes == small_spd.shape[0]

    def test_degree_feature(self, small_spd):
        graph = graph_from_matrix(small_spd, log_transform=False,
                                  include_inverse_degree=False)
        degrees = np.diff(small_spd.indptr)
        np.testing.assert_allclose(graph.node_features[:, 0], degrees)

    def test_log_transform_applied(self, small_nonsym):
        raw = graph_from_matrix(small_nonsym, log_transform=False)
        transformed = graph_from_matrix(small_nonsym, log_transform=True)
        assert np.abs(transformed.edge_features).max() <= np.abs(raw.edge_features).max()

    def test_name_is_stored(self, small_spd):
        assert graph_from_matrix(small_spd, name="lap").name == "lap"

    def test_directed_edges_for_nonsymmetric(self, small_nonsym):
        graph = graph_from_matrix(small_nonsym)
        assert graph.edge_index.shape == (2, small_nonsym.nnz)


class TestGraphDataValidation:
    def test_invalid_edge_index_shape(self):
        with pytest.raises(GraphConstructionError):
            GraphData(edge_index=np.zeros((3, 2)), edge_features=np.zeros(2),
                      node_features=np.zeros((2, 1)), num_nodes=2)

    def test_edge_refers_to_unknown_vertex(self):
        with pytest.raises(GraphConstructionError):
            GraphData(edge_index=np.array([[0], [5]]), edge_features=np.zeros(1),
                      node_features=np.zeros((2, 1)), num_nodes=2)

    def test_feature_length_mismatch(self):
        with pytest.raises(GraphConstructionError):
            GraphData(edge_index=np.array([[0], [1]]), edge_features=np.zeros(3),
                      node_features=np.zeros((2, 1)), num_nodes=2)


class TestGraphBatch:
    def test_block_diagonal_offsets(self):
        g1 = graph_from_matrix(laplacian_2d(4), name="a")
        g2 = graph_from_matrix(laplacian_2d(5), name="b")
        batch = GraphBatch.from_graphs([g1, g2])
        assert batch.num_graphs == 2
        assert batch.num_nodes == g1.num_nodes + g2.num_nodes
        assert batch.num_edges == g1.num_edges + g2.num_edges
        # Edges of the second graph must point past the first graph's vertices.
        second_block = batch.edge_index[:, g1.num_edges:]
        assert second_block.min() >= g1.num_nodes
        assert batch.graph_names == ["a", "b"]

    def test_node_to_graph_mapping(self):
        g1 = graph_from_matrix(laplacian_2d(4))
        g2 = graph_from_matrix(laplacian_2d(4))
        batch = GraphBatch.from_graphs([g1, g2])
        counts = np.bincount(batch.node_to_graph)
        np.testing.assert_array_equal(counts, [g1.num_nodes, g2.num_nodes])

    def test_empty_batch_rejected(self):
        with pytest.raises(GraphConstructionError):
            GraphBatch.from_graphs([])


class TestAggregation:
    def setup_method(self):
        self.messages = Tensor(np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]))
        self.targets = np.array([0, 0, 1])

    def test_sum_mean_max(self):
        summed = aggregate_neighbours(self.messages, self.targets, 2, "sum").data
        np.testing.assert_allclose(summed, [[4.0, 6.0], [5.0, 6.0]])
        mean = aggregate_neighbours(self.messages, self.targets, 2, "mean").data
        np.testing.assert_allclose(mean, [[2.0, 3.0], [5.0, 6.0]])
        maximum = aggregate_neighbours(self.messages, self.targets, 2, "max").data
        np.testing.assert_allclose(maximum, [[3.0, 4.0], [5.0, 6.0]])

    def test_multi_concatenates(self):
        multi = aggregate_neighbours(self.messages, self.targets, 2, "multi")
        assert multi.shape == (2, 6)

    def test_unknown_aggregation(self):
        with pytest.raises(GraphConstructionError):
            aggregate_neighbours(self.messages, self.targets, 2, "median")

    def test_known_aggregations_constant(self):
        assert set(KNOWN_AGGREGATIONS) == {"sum", "mean", "max", "multi"}


class TestPooling:
    def test_pooling_shapes_and_values(self):
        embeddings = Tensor(np.array([[1.0], [3.0], [10.0]]))
        node_to_graph = np.array([0, 0, 1])
        np.testing.assert_allclose(
            global_mean_pool(embeddings, node_to_graph, 2).data, [[2.0], [10.0]])
        np.testing.assert_allclose(
            global_sum_pool(embeddings, node_to_graph, 2).data, [[4.0], [10.0]])
        np.testing.assert_allclose(
            global_max_pool(embeddings, node_to_graph, 2).data, [[3.0], [10.0]])


class TestConvLayers:
    @pytest.mark.parametrize("conv_type", sorted(KNOWN_CONV_TYPES))
    def test_forward_and_backward(self, conv_type):
        graph = graph_from_matrix(pdd_real_sparse(20, seed=0), name="g")
        batch = GraphBatch.from_graphs([graph])
        layer = build_conv_layer(conv_type, graph.node_feature_dim, 6,
                                 edge_dim=graph.edge_feature_dim,
                                 rng=np.random.default_rng(0))
        out = layer(Tensor(batch.node_features), batch.edge_index,
                    Tensor(batch.edge_features))
        assert out.shape == (graph.num_nodes, 6)
        F.sum(out).backward()
        grads = [p.grad for p in layer.parameters()]
        assert any(g is not None and np.abs(g).sum() > 0 for g in grads)

    def test_permutation_invariance_of_pooled_embedding(self):
        """Relabelling the vertices must not change the pooled graph embedding."""
        matrix = laplacian_2d(5)
        rng = np.random.default_rng(3)
        permutation = rng.permutation(matrix.shape[0])
        permuted = matrix[permutation][:, permutation]

        layer = EdgeConv(2, 4, edge_dim=1, rng=np.random.default_rng(1))
        outputs = []
        for m in (matrix, permuted):
            graph = graph_from_matrix(m)
            batch = GraphBatch.from_graphs([graph])
            node_out = layer(Tensor(batch.node_features), batch.edge_index,
                             Tensor(batch.edge_features))
            outputs.append(global_mean_pool(node_out, batch.node_to_graph, 1).data)
        np.testing.assert_allclose(outputs[0], outputs[1], atol=1e-10)

    def test_unknown_conv_type(self):
        with pytest.raises(GraphConstructionError):
            build_conv_layer("transformer", 2, 4)

    def test_multi_aggregation_projection(self):
        graph = graph_from_matrix(laplacian_2d(4))
        layer = build_conv_layer("edge", graph.node_feature_dim, 5,
                                 edge_dim=1, aggregation="multi",
                                 rng=np.random.default_rng(0))
        batch = GraphBatch.from_graphs([graph])
        out = layer(Tensor(batch.node_features), batch.edge_index,
                    Tensor(batch.edge_features))
        assert out.shape == (graph.num_nodes, 5)

    @pytest.mark.parametrize("conv_type", sorted(KNOWN_CONV_TYPES))
    def test_every_aggregation_runs_and_is_used(self, conv_type):
        """Each layer aggregates its messages the configured way: ``multi``
        runs forward, and ``mean`` / ``max`` differ from ``sum``."""
        graph = graph_from_matrix(pdd_real_sparse(20, seed=0), name="g")
        batch = GraphBatch.from_graphs([graph])
        outputs = {}
        for aggregation in ("sum", "mean", "max", "multi"):
            layer = build_conv_layer(conv_type, graph.node_feature_dim, 6,
                                     edge_dim=graph.edge_feature_dim,
                                     aggregation=aggregation,
                                     rng=np.random.default_rng(0))
            out = layer(Tensor(batch.node_features), batch.edge_index,
                        Tensor(batch.edge_features))
            assert out.shape == (graph.num_nodes, 6)
            outputs[aggregation] = out.data
        assert not np.array_equal(outputs["mean"], outputs["sum"])
        assert not np.array_equal(outputs["max"], outputs["sum"])

    def test_invalid_dimensions(self):
        with pytest.raises(GraphConstructionError):
            EdgeConv(0, 4)


class TestEdgeMessage:
    """The fused EdgeConv message against the five-node chain it replaces."""

    #: Six edges into five vertices; vertex 2 receives none.
    TARGETS = np.array([3, 0, 4, 0, 3, 1], dtype=np.int64)
    NUM_NODES = 5

    @staticmethod
    def _inputs(seed: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        rng = np.random.default_rng(seed)
        return (rng.standard_normal((6, 5)), rng.standard_normal((5, 4)),
                rng.standard_normal(4))

    def _fused(self, aggregation: str):
        return lambda stacked, weight, bias: apply(
            EdgeMessage(self.TARGETS, self.NUM_NODES, aggregation),
            stacked, weight, bias)

    def _chain(self, aggregation: str):
        segment = F.segment_mean if aggregation == "mean" else F.segment_sum
        return lambda stacked, weight, bias: segment(
            F.relu(F.add(F.matmul(stacked, weight), bias)),
            self.TARGETS, self.NUM_NODES)

    @pytest.mark.parametrize("aggregation", ["sum", "mean"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_gradcheck(self, aggregation, seed):
        stacked, weight, bias = self._inputs(seed)
        pre_activation = stacked @ weight + bias
        assert (pre_activation < 0).any() and (pre_activation > 0).any()
        assert np.abs(pre_activation).min() > 1e-3  # away from the ReLU kink
        assert gradcheck(self._fused(aggregation), stacked, weight, bias,
                         eps=1e-6, atol=1e-6, rtol=1e-5)

    @pytest.mark.parametrize("aggregation", ["sum", "mean"])
    @pytest.mark.parametrize("case", ["random", "minus_inf"])
    def test_output_and_gradients_equal_the_chain_bit_for_bit(
            self, aggregation, case):
        arrays = self._inputs(7)
        if case == "minus_inf":
            # ReLU(-inf) is -inf * 0 = nan on the chain; np.maximum gives 0.
            arrays[2][1] = -np.inf
        upstream = np.random.default_rng(8).standard_normal((self.NUM_NODES, 4))
        results = []
        for function in (self._fused(aggregation), self._chain(aggregation)):
            inputs = [Tensor(array.copy(), requires_grad=True)
                      for array in arrays]
            with np.errstate(invalid="ignore"):
                output = function(*inputs)
            output.backward(upstream)
            results.append([output.data] + [t.grad for t in inputs])
        fused, chain = results
        assert not fused[0][2].any()  # the vertex with no edges
        for got, expected in zip(fused, chain):
            assert got.shape == expected.shape
            assert got.tobytes() == expected.tobytes()

    def test_second_backward_with_retained_graph_recomputes(self):
        stacked, weight, bias = (Tensor(array, requires_grad=True)
                                 for array in self._inputs(3))
        output = self._fused("mean")(stacked, weight, bias)
        output.backward(np.ones(output.shape), retain_graph=True)
        first = weight.grad.copy()
        weight.zero_grad()
        output.backward(2.0 * np.ones(output.shape))
        np.testing.assert_array_equal(weight.grad, 2.0 * first)

    def test_rejects_max_aggregation(self):
        with pytest.raises(GraphConstructionError, match="sum.*mean"):
            EdgeMessage(self.TARGETS, self.NUM_NODES, "max")

    @pytest.mark.parametrize("aggregation", ["max", "multi"])
    def test_max_and_multi_keep_the_chain(self, aggregation):
        graph = graph_from_matrix(laplacian_2d(4))
        batch = GraphBatch.from_graphs([graph])
        layer = build_conv_layer("edge", graph.node_feature_dim, 5,
                                 aggregation=aggregation,
                                 rng=np.random.default_rng(0))
        node_features = Tensor(batch.node_features)
        edge_features = Tensor(batch.edge_features)
        sources = F.gather_rows(node_features, batch.edge_index[0])
        targets = F.gather_rows(node_features, batch.edge_index[1])
        expected = aggregate_neighbours(
            layer.messages(sources, targets, edge_features),
            batch.edge_index[1], graph.num_nodes, aggregation)
        got = layer.aggregated_messages(sources, targets, edge_features,
                                        batch.edge_index[1], graph.num_nodes)
        assert got.data.tobytes() == expected.data.tobytes()
        assert not isinstance(got._op, EdgeMessage)


def test_edgeconv_tape_keeps_no_edge_by_hidden_intermediates():
    """One taped embedding + backward of a 1-layer, 32-wide EdgeConv over
    ``tune_unseen``'s three training graphs: the tape holds less than one
    ``(E, 32)`` float array after the forward and peaks below 2.5 of them
    (the unfused chain held 3.4 and peaked at 5.3)."""
    matrices = (laplacian_2d(16), pdd_real_sparse(64),
                unsteady_advection_diffusion(15, order=1))
    batch = GraphBatch.from_graphs([graph_from_matrix(m) for m in matrices])
    assert batch.num_edges == 35_023
    model = GraphNeuralSurrogate(SurrogateConfig(
        graph_hidden=32, graph_layers=1, seed=0).with_dims(
        node_dim=batch.node_features.shape[1],
        edge_dim=batch.edge_features.shape[1], xa_dim=3, xm_dim=3))
    edge_array_bytes = batch.num_edges * 32 * 8
    tracemalloc.start()
    try:
        baseline = tracemalloc.get_traced_memory()[0]
        loss = F.sum(model.embed_graphs(batch))
        held = tracemalloc.get_traced_memory()[0] - baseline
        loss.backward()
        peak = tracemalloc.get_traced_memory()[1] - baseline
    finally:
        tracemalloc.stop()
    assert held < 1.0 * edge_array_bytes
    assert peak < 2.5 * edge_array_bytes
