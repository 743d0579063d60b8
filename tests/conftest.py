"""Shared fixtures.

The expensive objects (labelled observations, trained tiny surrogate) are
session-scoped so the full suite stays fast while still exercising the real
end-to-end code paths.
"""

from __future__ import annotations

import socket
import threading

import numpy as np
import pytest

from repro.core.dataset import SurrogateDataset
from repro.core.evaluation import SolverSettings, collect_grid_observations
from repro.core.surrogate import GraphNeuralSurrogate, SurrogateConfig
from repro.core.training import Trainer, TrainingConfig
from repro.matrices import laplacian_2d, pdd_real_sparse, unsteady_advection_diffusion
from repro.mcmc.parameters import MCMCParameters, paper_parameter_grid
from repro.server.http import WireHandler


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "slow: takes minutes (the full experiment pipeline)")


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(0)


@pytest.fixture(scope="session")
def small_spd():
    """49-dimensional symmetric positive definite Laplacian."""
    return laplacian_2d(8)


@pytest.fixture(scope="session")
def small_nonsym():
    """40-dimensional nonsymmetric, diagonally dominant matrix."""
    return pdd_real_sparse(40, density=0.2, dominance=2.0, seed=1)


@pytest.fixture(scope="session")
def ill_conditioned_test_matrix():
    """The (downscaled) unseen generalisation target used in integration tests."""
    return unsteady_advection_diffusion(8, order=2, seed=3)


@pytest.fixture(scope="session")
def tiny_matrices():
    """Two tiny training matrices for dataset / surrogate tests."""
    return {
        "laplace_tiny": laplacian_2d(6),
        "pdd_tiny": pdd_real_sparse(30, density=0.2, dominance=2.0, seed=2),
    }


@pytest.fixture(scope="session")
def tiny_settings():
    return SolverSettings(rtol=1e-8, maxiter=200)


@pytest.fixture(scope="session")
def tiny_grid():
    return paper_parameter_grid(solvers=("gmres",), alphas=(0.5, 2.0),
                                epss=(0.5,), deltas=(0.5, 0.25))


@pytest.fixture(scope="session")
def tiny_observations(tiny_matrices, tiny_grid, tiny_settings):
    """Real labelled observations on the tiny matrices (2 replications)."""
    return collect_grid_observations(tiny_matrices, tiny_grid, n_replications=2,
                                     settings=tiny_settings, seed=0)


@pytest.fixture(scope="session")
def tiny_dataset(tiny_observations, tiny_matrices):
    return SurrogateDataset(tiny_observations, tiny_matrices)


@pytest.fixture(scope="session")
def tiny_surrogate_config(tiny_dataset):
    return SurrogateConfig(
        node_dim=tiny_dataset.node_feature_dim,
        edge_dim=tiny_dataset.edge_feature_dim,
        xa_dim=tiny_dataset.xa_dim,
        xm_dim=tiny_dataset.xm_dim,
        graph_hidden=8, xa_hidden=8, xm_hidden=8, combined_hidden=8,
        dropout=0.0, seed=0,
    )


@pytest.fixture(scope="session")
def trained_tiny_surrogate(tiny_dataset, tiny_surrogate_config):
    """A surrogate trained for a handful of epochs on the tiny dataset."""
    model = GraphNeuralSurrogate(tiny_surrogate_config)
    trainer = Trainer(TrainingConfig(epochs=8, batch_size=8, learning_rate=5e-3,
                                     weight_decay=0.0, patience=8, seed=0))
    trainer.fit(model, tiny_dataset)
    return model


@pytest.fixture()
def default_parameters():
    return MCMCParameters(alpha=1.0, eps=0.25, delta=0.25)


class ConnectionLog:
    """What every wire listener's handlers saw: one entry per accepted
    connection, per request line and per finished connection, each tagged
    with the listener (``handler.server.owner``) and the peer address."""

    def __init__(self) -> None:
        self.accepted: list[tuple[object, tuple, bool]] = []
        self.requests: list[tuple[object, tuple, str]] = []
        self.finished: list[tuple[object, tuple]] = []
        self.condition = threading.Condition()

    def _peers(self, listener, path: str | None) -> set[tuple]:
        if path is None:
            return {peer for owner, peer, _ in self.accepted
                    if owner is listener}
        return {peer for owner, peer, seen in self.requests
                if owner is listener and seen == path}

    def connections(self, listener, path: str | None = None) -> int:
        """Connections ``listener`` accepted (that carried ``path``)."""
        with self.condition:
            return len(self._peers(listener, path))

    def wait_closed(self, listener, path: str | None = None,
                    timeout: float = 10.0) -> bool:
        """Wait until every connection ``listener`` accepted (that carried
        ``path``) has been closed by its handler."""
        with self.condition:
            return self.condition.wait_for(
                lambda: self._peers(listener, path) <= {
                    peer for owner, peer in self.finished
                    if owner is listener},
                timeout=timeout)


@pytest.fixture()
def connection_log(monkeypatch) -> ConnectionLog:
    """Record the connections of every wire listener started in the test,
    with whether ``TCP_NODELAY`` was set on each accepted socket."""
    log = ConnectionLog()
    setup = WireHandler.setup
    parse_request = WireHandler.parse_request
    finish = WireHandler.finish

    def recording_setup(handler) -> None:
        setup(handler)
        nodelay = handler.connection.getsockopt(socket.IPPROTO_TCP,
                                                socket.TCP_NODELAY)
        with log.condition:
            log.accepted.append((handler.server.owner,
                                 handler.client_address, bool(nodelay)))

    def recording_parse_request(handler) -> bool:
        parsed = parse_request(handler)
        if parsed:
            with log.condition:
                log.requests.append((handler.server.owner,
                                     handler.client_address,
                                     handler.path.partition("?")[0]))
        return parsed

    def recording_finish(handler) -> None:
        try:
            finish(handler)
        finally:
            with log.condition:
                log.finished.append((handler.server.owner,
                                     handler.client_address))
                log.condition.notify_all()

    monkeypatch.setattr(WireHandler, "setup", recording_setup)
    monkeypatch.setattr(WireHandler, "parse_request", recording_parse_request)
    monkeypatch.setattr(WireHandler, "finish", recording_finish)
    return log
