"""Tests for the graph neural surrogate and its trainer."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.core.surrogate import GraphNeuralSurrogate, ParameterHead, SurrogateConfig
from repro.core.training import Trainer, TrainingConfig, surrogate_loss
from repro.exceptions import SurrogateError
from repro.gnn import KNOWN_AGGREGATIONS, KNOWN_CONV_TYPES
from repro.nn.tensor import Tensor


class TestSurrogateConfig:
    def test_paper_configuration_matches_section_4_4(self):
        config = SurrogateConfig.paper()
        assert config.conv_type == "edge"
        assert config.aggregation == "mean"
        assert config.graph_hidden == 256
        assert config.graph_layers == 1
        assert config.xa_hidden == 64 and config.xa_layers == 1
        assert config.xm_hidden == 16 and config.xm_layers == 3
        assert config.combined_hidden == 128 and config.combined_layers == 2

    def test_with_dims(self):
        config = SurrogateConfig().with_dims(node_dim=3, edge_dim=2, xa_dim=7, xm_dim=5)
        assert (config.node_dim, config.edge_dim, config.xa_dim, config.xm_dim) \
            == (3, 2, 7, 5)

    def test_invalid_graph_layers(self, tiny_surrogate_config):
        from dataclasses import replace

        with pytest.raises(SurrogateError):
            GraphNeuralSurrogate(replace(tiny_surrogate_config, graph_layers=0))


class TestSurrogateForward:
    def test_output_shapes_and_positivity(self, tiny_dataset, tiny_surrogate_config):
        model = GraphNeuralSurrogate(tiny_surrogate_config)
        batch = tiny_dataset.full_batch()
        mu, sigma = model.predict_batch(batch)
        assert mu.shape == (batch.size,)
        assert sigma.shape == (batch.size,)
        assert np.all(mu >= 0.0)       # ReLU head (Eq. 1)
        assert np.all(sigma > 0.0)     # softplus head (Eq. 1)

    @pytest.mark.parametrize("aggregation", ["mean", "sum", "max", "multi"])
    def test_gatv2_surrogate_trains_with_every_aggregation(
            self, tiny_dataset, tiny_surrogate_config, aggregation):
        """The full HPO space pairs ``gatv2`` with every aggregation; each
        pair predicts and back-propagates into its graph layer."""
        model = GraphNeuralSurrogate(replace(tiny_surrogate_config,
                                             conv_type="gatv2",
                                             aggregation=aggregation))
        batch = tiny_dataset.full_batch()
        Trainer.batch_loss(model, batch).backward()
        mu, sigma = model.predict_batch(batch)
        assert np.isfinite(mu).all() and np.all(sigma > 0.0)
        assert any(parameter.grad is not None and np.abs(parameter.grad).sum() > 0
                   for parameter in model.conv_layers[0].parameters())

    @pytest.mark.parametrize("aggregation", sorted(KNOWN_AGGREGATIONS))
    @pytest.mark.parametrize("conv_type", sorted(KNOWN_CONV_TYPES))
    def test_graph_embedding_is_the_same_in_train_and_eval_mode(
            self, tiny_dataset, tiny_surrogate_config, conv_type, aggregation):
        """The message-passing stack has no dropout: a taped training-mode
        embedding holds the evaluation-mode values byte for byte and draws
        nothing from the dropout generator.  ``Trainer.fit`` validates on
        the embedding its next step trains on because of this."""
        model = GraphNeuralSurrogate(replace(
            tiny_surrogate_config, conv_type=conv_type, aggregation=aggregation,
            graph_layers=2, dropout=0.3))
        generator_state = model.dropout._rng.bit_generator.state
        model.train()
        taped = model.embed_graphs(tiny_dataset.graph_batch)
        assert taped._op is not None
        assert model.dropout._rng.bit_generator.state == generator_state
        evaluated = model.embed_graphs_numpy(tiny_dataset.graph_batch)
        assert taped.data.shape == evaluated.shape
        assert taped.data.tobytes() == evaluated.tobytes()

    def test_prediction_deterministic_in_eval_mode(self, tiny_dataset,
                                                   tiny_surrogate_config):
        model = GraphNeuralSurrogate(tiny_surrogate_config)
        batch = tiny_dataset.full_batch()
        first = model.predict_batch(batch)
        second = model.predict_batch(batch)
        np.testing.assert_allclose(first[0], second[0])
        np.testing.assert_allclose(first[1], second[1])

    def test_embedding_shortcut_matches_full_forward(self, tiny_dataset,
                                                     tiny_surrogate_config):
        model = GraphNeuralSurrogate(tiny_surrogate_config)
        model.eval()
        batch = tiny_dataset.full_batch()
        from repro.nn.tensor import no_grad

        with no_grad():
            mu_full, sigma_full = model.forward(batch.graph_batch,
                                                batch.sample_graph_index,
                                                batch.x_a, batch.x_m)
            embedding = model.embed_graphs_numpy(batch.graph_batch)
            mu_short, sigma_short = model.forward_from_embedding(
                embedding, batch.sample_graph_index, batch.x_a, batch.x_m)
        np.testing.assert_allclose(mu_full.data, mu_short.data, atol=1e-12)
        np.testing.assert_allclose(sigma_full.data, sigma_short.data, atol=1e-12)

    def test_gradients_reach_every_parameter_group(self, tiny_dataset,
                                                   tiny_surrogate_config):
        model = GraphNeuralSurrogate(tiny_surrogate_config)
        batch = tiny_dataset.full_batch()
        loss = Trainer.batch_loss(model, batch)
        loss.backward()
        grouped = {"conv": 0.0, "xa_mlp": 0.0, "xm_mlp": 0.0, "combined": 0.0,
                   "head": 0.0}
        for name, parameter in model.named_parameters():
            if parameter.grad is None:
                continue
            magnitude = float(np.abs(parameter.grad).sum())
            if name.startswith("conv_layers"):
                grouped["conv"] += magnitude
            elif name.startswith("xa_mlp"):
                grouped["xa_mlp"] += magnitude
            elif name.startswith("xm_mlp"):
                grouped["xm_mlp"] += magnitude
            elif name.startswith("combined_mlp"):
                grouped["combined"] += magnitude
            elif "head" in name:
                grouped["head"] += magnitude
        assert all(value > 0.0 for value in grouped.values()), grouped

    def test_input_gradient_for_x_m(self, tiny_dataset, tiny_surrogate_config):
        """EI maximisation needs d mu / d x_M -- the input gradient must flow."""
        model = GraphNeuralSurrogate(tiny_surrogate_config)
        model.eval()
        batch = tiny_dataset.full_batch()
        embedding = model.embed_graphs_numpy(batch.graph_batch)
        x_m = Tensor(batch.x_m[:1], requires_grad=True)
        mu, _sigma = model.forward_from_embedding(embedding,
                                                  batch.sample_graph_index[:1],
                                                  batch.x_a[:1], x_m)
        mu.sum().backward()
        assert x_m.grad is not None
        assert np.abs(x_m.grad).sum() > 0.0


def _half_live_mean_head(model, embedding, x_a, points):
    """Shift the mean head's bias so that its ReLU is live at about half of
    ``points``: the comparison then crosses both of its branches."""
    from repro.nn.tensor import no_grad

    model.mu_head.bias.data[:] = 1e3
    with no_grad():
        mu, _sigma = model.forward_from_embedding(
            embedding, np.zeros(len(points), dtype=np.int64),
            np.repeat(x_a, len(points), axis=0), points)
    model.mu_head.bias.data[:] = 1e3 - np.median(mu.data)


def _tape(model, embedding, x_a, x_m, d_mu, d_sigma):
    """The taped objective of the acquisition step at batch size 1."""
    x_m_tensor = Tensor(x_m[None, :], requires_grad=True)
    mu, sigma = model.forward_from_embedding(embedding, np.array([0]), x_a,
                                             x_m_tensor)
    (mu * Tensor(np.array([d_mu])) + sigma * Tensor(np.array([d_sigma]))
     ).sum().backward()
    return mu.data, sigma.data, x_m_tensor.grad


_HEAD_CASES = (
    [dict(conv_type=conv, aggregation=aggregation)
     for conv in ("edge", "gcn", "gine", "gatv2")
     for aggregation in ("sum", "mean", "max", "multi")]
    + [dict(xm_layers=layers, dropout=dropout, combined_layers=combined)
       for layers in (1, 2, 3) for dropout in (0.0, 0.3)
       for combined in (1, 2)])


class TestParameterHead:
    """The acquisition step's tape-free head equals the tape bit for bit."""

    @pytest.mark.parametrize(
        "overrides", _HEAD_CASES,
        ids=lambda o: ",".join(f"{k}={v}" for k, v in o.items()))
    def test_matches_the_tape_at_batch_size_one(self, tiny_dataset,
                                                tiny_surrogate_config,
                                                overrides):
        from dataclasses import replace

        model = GraphNeuralSurrogate(replace(tiny_surrogate_config, **overrides))
        rng = np.random.default_rng(0)
        points = rng.standard_normal((12, tiny_dataset.xm_dim)) * 2.0
        model.eval()
        embedding = model.embed_graphs_numpy(tiny_dataset.graph_batch)[[1]]
        x_a = tiny_dataset.full_batch().x_a[:1]
        _half_live_mean_head(model, embedding, x_a, points)
        head = ParameterHead(model, embedding, x_a)
        d_mu = rng.choice([-1.0, 0.0, -0.3], size=len(points))
        d_sigma = rng.uniform(0, 0.4, size=len(points))
        mu, sigma = head.forward(points[:, None, :])
        gradient = head.input_gradient(d_mu, d_sigma)
        assert gradient.shape == (len(points), 1, tiny_dataset.xm_dim)
        for row, x_m in enumerate(points):
            tape_mu, tape_sigma, tape_gradient = _tape(
                model, embedding, x_a, x_m, d_mu[row], d_sigma[row])
            np.testing.assert_array_equal(mu[[row]], tape_mu)
            np.testing.assert_array_equal(sigma[[row]], tape_sigma)
            np.testing.assert_array_equal(gradient[row], tape_gradient)
        assert 0 < np.count_nonzero(mu > 0.0) < len(points)

    @pytest.mark.parametrize("k", [1, 2, 17, 64])
    def test_a_stack_equals_its_rows_one_at_a_time(self, tiny_dataset,
                                                   tiny_surrogate_config, k):
        """A ``(k, 1, xm_dim)`` stack gives each row the values and input
        gradient of that row evaluated alone, bit for bit."""
        model = GraphNeuralSurrogate(tiny_surrogate_config)
        model.eval()
        rng = np.random.default_rng(k)
        points = rng.standard_normal((k, 1, tiny_dataset.xm_dim)) * 2.0
        d_mu, d_sigma = -rng.uniform(0, 1, k), rng.uniform(0, 0.4, k)
        embedding = model.embed_graphs_numpy(tiny_dataset.graph_batch)[[0]]
        head = ParameterHead(model, embedding,
                             tiny_dataset.full_batch().x_a[:1])
        mu, sigma = head.forward(points)
        gradient = head.input_gradient(d_mu, d_sigma)
        for row in range(k):
            row_mu, row_sigma = head.forward(points[[row]])
            np.testing.assert_array_equal(mu[[row]], row_mu)
            np.testing.assert_array_equal(sigma[[row]], row_sigma)
            np.testing.assert_array_equal(
                gradient[[row]],
                head.input_gradient(d_mu[[row]], d_sigma[[row]]))

    def test_needs_evaluation_mode(self, tiny_dataset, tiny_surrogate_config):
        from dataclasses import replace

        model = GraphNeuralSurrogate(replace(tiny_surrogate_config, dropout=0.2))
        embedding = model.embed_graphs_numpy(tiny_dataset.graph_batch)[[0]]
        model.train()
        with pytest.raises(SurrogateError, match="eval"):
            ParameterHead(model, embedding, tiny_dataset.full_batch().x_a[:1])


class TestTrainer:
    def test_training_reduces_validation_loss(self, tiny_dataset,
                                              tiny_surrogate_config):
        model = GraphNeuralSurrogate(tiny_surrogate_config)
        trainer = Trainer(TrainingConfig(epochs=15, batch_size=8, learning_rate=5e-3,
                                         weight_decay=0.0, patience=15, seed=0))
        train_idx, val_idx = tiny_dataset.split(0.2, seed=0)
        initial = Trainer.evaluate_loss(model,
                                        tiny_dataset.batch_from_indices(val_idx))
        history = trainer.fit(model, tiny_dataset, train_indices=train_idx,
                              validation_indices=val_idx)
        assert history.best_validation_loss < initial
        assert history.epochs_run <= 15
        assert len(history.train_losses) == history.epochs_run

    def test_early_stopping(self, tiny_dataset, tiny_surrogate_config):
        model = GraphNeuralSurrogate(tiny_surrogate_config)
        trainer = Trainer(TrainingConfig(epochs=200, batch_size=8, learning_rate=1e-2,
                                         patience=3, min_epochs=1, seed=0))
        history = trainer.fit(model, tiny_dataset)
        assert history.epochs_run < 200

    def test_best_weights_restored(self, tiny_dataset, tiny_surrogate_config):
        model = GraphNeuralSurrogate(tiny_surrogate_config)
        trainer = Trainer(TrainingConfig(epochs=10, batch_size=8, learning_rate=5e-3,
                                         patience=10, seed=0))
        history = trainer.fit(model, tiny_dataset)
        _train_idx, val_idx = tiny_dataset.split(0.2, seed=0)
        final_loss = Trainer.evaluate_loss(model,
                                           tiny_dataset.batch_from_indices(val_idx))
        assert final_loss == pytest.approx(history.best_validation_loss, rel=1e-6)

    def test_surrogate_loss_formula(self):
        mu = Tensor(np.array([1.0, 2.0]))
        sigma = Tensor(np.array([0.5, 0.5]))
        loss = surrogate_loss(mu, sigma, np.array([1.0, 1.0]), np.array([0.5, 1.0]))
        # mean((mu - y)^2) + mean((sigma - s)^2) = 0.5 + 0.125
        assert loss.item() == pytest.approx(0.625)

    def test_invalid_epochs(self, tiny_dataset, tiny_surrogate_config):
        model = GraphNeuralSurrogate(tiny_surrogate_config)
        with pytest.raises(SurrogateError):
            Trainer(TrainingConfig(epochs=0)).fit(model, tiny_dataset)

    @pytest.mark.parametrize("overrides", [
        dict(epochs=2.5), dict(epochs=True), dict(epochs="3"),
        dict(batch_size=0), dict(batch_size=-4), dict(batch_size=2.5),
        dict(batch_size=True), dict(batch_size=None)],
        ids=lambda o: ",".join(f"{k}={v!r}" for k, v in o.items()))
    def test_rejects_what_it_cannot_run(self, tiny_dataset, tiny_surrogate_config,
                                        overrides):
        model = GraphNeuralSurrogate(tiny_surrogate_config)
        before = model.state_dict()
        config = replace(TrainingConfig(epochs=3, batch_size=8), **overrides)
        with pytest.raises(SurrogateError, match=next(iter(overrides))):
            Trainer(config).fit(model, tiny_dataset)
        for name, value in model.state_dict().items():
            np.testing.assert_array_equal(value, before[name])

    @pytest.mark.parametrize("start_epoch", [-2, -1, 4, 5, 1.0, True, "1"])
    def test_rejects_a_start_epoch_outside_the_fit(self, tiny_dataset,
                                                   tiny_surrogate_config,
                                                   start_epoch):
        model = GraphNeuralSurrogate(tiny_surrogate_config)
        epochs = []
        with pytest.raises(SurrogateError, match="start_epoch"):
            Trainer(TrainingConfig(epochs=3, batch_size=8)).fit(
                model, tiny_dataset, start_epoch=start_epoch,
                on_epoch=epochs.append)
        assert epochs == []

    @pytest.mark.parametrize("start_epoch", [0, 2, 3, np.int64(1)])
    def test_accepts_every_start_epoch_of_the_fit(self, tiny_dataset,
                                                  tiny_surrogate_config,
                                                  start_epoch):
        model = GraphNeuralSurrogate(tiny_surrogate_config)
        epochs = []
        history = Trainer(TrainingConfig(epochs=3, batch_size=8)).fit(
            model, tiny_dataset, start_epoch=start_epoch, on_epoch=epochs.append)
        assert epochs == list(range(start_epoch, 3))
        assert history.best_epoch <= 2

    def test_paper_training_config(self):
        config = TrainingConfig.paper()
        assert config.epochs == 150
        assert config.batch_size == 128
        assert config.learning_rate == pytest.approx(1.848e-3)
        assert config.weight_decay == 1.0
