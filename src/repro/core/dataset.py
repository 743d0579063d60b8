"""Dataset plumbing for the graph neural surrogate.

A labelled datum of the paper is ``(G_i, x_{A,i}, x_{M,i}, y_bar_i, s_i)``
(Sec. 3.1): the matrix graph, the cheap matrix features, the MCMC parameter
vector (continuous part plus the categorical solver) and the sample mean /
standard deviation of the performance metric.  This module provides:

* :func:`encode_parameters` -- the fixed encoding of ``x_M`` (three continuous
  values followed by a one-hot solver indicator), and
  :func:`encode_parameter_rows` for a batch of rows under one solver;
* :class:`Standardizer` -- zero-mean / unit-variance scaling fitted on the
  training split and reused everywhere else (Sec. 3.1: "All features are
  standardised");
* :class:`SurrogateDataset` -- holds the unique graphs, the per-matrix feature
  vectors and the samples; produces mini-batches and train/validation splits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from repro.config import default_rng
from repro.core.evaluation import LabelledObservation
from repro.exceptions import DatasetError, ParameterError
from repro.gnn.graph import GraphBatch, GraphData, graph_from_matrix
from repro.matrices.features import feature_vector
from repro.mcmc.parameters import KNOWN_SOLVERS, MCMCParameters

__all__ = [
    "encode_parameters",
    "encode_parameter_rows",
    "decode_parameters",
    "PARAMETER_VECTOR_DIM",
    "Standardizer",
    "SampleBatch",
    "SurrogateDataset",
]

#: Dimension of the encoded ``x_M`` vector: (alpha, eps, delta) + solver one-hot.
PARAMETER_VECTOR_DIM = 3 + len(KNOWN_SOLVERS)


def encode_parameters(parameters: MCMCParameters) -> np.ndarray:
    """Encode ``x_M`` as ``[alpha, eps, delta, onehot(solver)]``."""
    return encode_parameter_rows(parameters.to_array()[None, :],
                                 parameters.solver)[0]


def encode_parameter_rows(values: np.ndarray, solver: str) -> np.ndarray:
    """:func:`encode_parameters` of every ``(alpha, eps, delta)`` row of
    ``values`` under one ``solver``, as a ``(k, PARAMETER_VECTOR_DIM)``
    array."""
    values = np.asarray(values, dtype=np.float64)
    if solver not in KNOWN_SOLVERS:
        raise ParameterError(
            f"unknown solver {solver!r}; expected one of {KNOWN_SOLVERS}")
    if not np.all(np.isfinite(values)):
        raise ParameterError("MCMC parameters must be finite")
    encoded = np.zeros((len(values), PARAMETER_VECTOR_DIM), dtype=np.float64)
    encoded[:, :3] = values
    encoded[:, 3 + KNOWN_SOLVERS.index(solver)] = 1.0
    return encoded


def decode_parameters(vector: np.ndarray) -> MCMCParameters:
    """Inverse of :func:`encode_parameters` (solver = argmax of the one-hot)."""
    vector = np.asarray(vector, dtype=np.float64).ravel()
    if vector.size != PARAMETER_VECTOR_DIM:
        raise DatasetError(
            f"expected a vector of length {PARAMETER_VECTOR_DIM}, got {vector.size}")
    solver = KNOWN_SOLVERS[int(np.argmax(vector[3:]))]
    return MCMCParameters.from_array(vector[:3], solver=solver)


class Standardizer:
    """Column-wise zero-mean / unit-variance scaling with constant-column guard."""

    def __init__(self) -> None:
        self.mean_: np.ndarray | None = None
        self.scale_: np.ndarray | None = None

    @property
    def fitted(self) -> bool:
        """Whether :meth:`fit` has been called."""
        return self.mean_ is not None

    def fit(self, values: np.ndarray) -> "Standardizer":
        """Fit on a 2-D array of shape ``(n_samples, n_features)``."""
        values = np.asarray(values, dtype=np.float64)
        if values.ndim != 2:
            raise DatasetError(f"expected a 2-D array, got shape {values.shape}")
        self.mean_ = values.mean(axis=0)
        scale = values.std(axis=0)
        scale[scale < 1e-12] = 1.0
        self.scale_ = scale
        return self

    def transform(self, values: np.ndarray) -> np.ndarray:
        """Apply the fitted scaling."""
        if not self.fitted:
            raise DatasetError("Standardizer.transform called before fit")
        values = np.asarray(values, dtype=np.float64)
        return (values - self.mean_) / self.scale_

    def fit_transform(self, values: np.ndarray) -> np.ndarray:
        """Fit then transform."""
        return self.fit(values).transform(values)

    def transform_gradient(self, gradient: np.ndarray) -> np.ndarray:
        """Chain-rule factor: gradients w.r.t. standardised inputs -> raw inputs."""
        if not self.fitted:
            raise DatasetError("Standardizer.transform_gradient called before fit")
        return np.asarray(gradient, dtype=np.float64) / self.scale_


@dataclass
class SampleBatch:
    """A mini-batch ready to be fed to the surrogate."""

    graph_batch: GraphBatch
    sample_graph_index: np.ndarray
    x_a: np.ndarray
    x_m: np.ndarray
    y_mean: np.ndarray
    y_std: np.ndarray

    @property
    def size(self) -> int:
        """Number of samples in the batch."""
        return self.x_m.shape[0]


@dataclass
class _Sample:
    matrix_name: str
    x_m_raw: np.ndarray
    y_mean: float
    y_std: float


class SurrogateDataset:
    """Container of labelled observations with standardisation and batching.

    Parameters
    ----------
    observations:
        Labelled observations (typically from
        :func:`repro.core.evaluation.collect_grid_observations`).
    matrices:
        Mapping from matrix name to the matrix itself; graphs and feature
        vectors are built once per unique matrix.
    """

    #: Default floor applied to the sample-standard-deviation labels.  With a
    #: handful of replications the empirical std of the metric is frequently
    #: (near) zero -- e.g. a good preconditioner yields the same iteration
    #: count in every replicate -- which would teach the sigma head to predict
    #: vanishing uncertainty and wreck calibration.  The floor models the
    #: finite-replication measurement noise; the paper's 10-replicate protocol
    #: suffers much less from this, so the floor is deliberately small.
    DEFAULT_STD_FLOOR = 0.01

    def __init__(self, observations: list[LabelledObservation],
                 matrices: dict[str, sp.spmatrix], *,
                 std_floor: float = DEFAULT_STD_FLOOR) -> None:
        if not observations:
            raise DatasetError("cannot build a dataset from zero observations")
        if std_floor < 0:
            raise DatasetError(f"std_floor must be >= 0, got {std_floor}")
        self.std_floor = float(std_floor)
        missing = {obs.matrix_name for obs in observations} - set(matrices)
        if missing:
            raise DatasetError(f"observations refer to unknown matrices: {sorted(missing)}")

        self.graphs: dict[str, GraphData] = {}
        self.features_raw: dict[str, np.ndarray] = {}
        for name, matrix in matrices.items():
            self.graphs[name] = graph_from_matrix(matrix, name=name)
            self.features_raw[name] = feature_vector(matrix)

        self.samples: list[_Sample] = [
            _Sample(matrix_name=obs.matrix_name,
                    x_m_raw=encode_parameters(obs.parameters),
                    y_mean=float(obs.y_mean),
                    y_std=max(float(obs.y_std), self.std_floor))
            for obs in observations
        ]
        self.matrix_names = sorted(self.graphs)
        self._graph_index = {name: index for index, name in enumerate(self.matrix_names)}
        self._full_batch = GraphBatch.from_graphs(
            [self.graphs[name] for name in self.matrix_names])

        self.xa_standardizer = Standardizer()
        self.xm_standardizer = Standardizer()
        self._fit_standardizers()

    # -- standardisation -------------------------------------------------------
    def _fit_standardizers(self) -> None:
        xa_rows = np.stack([self.features_raw[s.matrix_name] for s in self.samples])
        xm_rows = np.stack([s.x_m_raw for s in self.samples])
        self.xa_standardizer.fit(xa_rows)
        self.xm_standardizer.fit(xm_rows)

    # -- accessors -----------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.samples)

    @property
    def graph_batch(self) -> GraphBatch:
        """Block-diagonal batch of all unique graphs, in sorted-name order."""
        return self._full_batch

    @property
    def node_feature_dim(self) -> int:
        """Vertex-feature dimensionality of the graphs."""
        return self._full_batch.node_features.shape[1]

    @property
    def edge_feature_dim(self) -> int:
        """Edge-feature dimensionality of the graphs."""
        return self._full_batch.edge_features.shape[1]

    @property
    def xa_dim(self) -> int:
        """Dimensionality of the cheap matrix features ``x_A``."""
        return next(iter(self.features_raw.values())).size

    @property
    def xm_dim(self) -> int:
        """Dimensionality of the encoded ``x_M``."""
        return PARAMETER_VECTOR_DIM

    def standardize_parameters(self, x_m_raw: np.ndarray) -> np.ndarray:
        """Standardise an encoded ``x_M`` (vector or matrix of rows)."""
        x_m_raw = np.asarray(x_m_raw, dtype=np.float64)
        if x_m_raw.ndim == 1:
            return self.xm_standardizer.transform(x_m_raw[None, :])[0]
        return self.xm_standardizer.transform(x_m_raw)

    # -- batching ----------------------------------------------------------------
    def batch_from_indices(self, indices: np.ndarray) -> SampleBatch:
        """Assemble a :class:`SampleBatch` from sample indices."""
        indices = np.asarray(indices, dtype=np.int64)
        if indices.size == 0:
            raise DatasetError("cannot build an empty batch")
        selected = [self.samples[i] for i in indices]
        x_a = np.stack([self.features_raw[s.matrix_name] for s in selected])
        x_m = np.stack([s.x_m_raw for s in selected])
        return SampleBatch(
            graph_batch=self._full_batch,
            sample_graph_index=np.array(
                [self._graph_index[s.matrix_name] for s in selected], dtype=np.int64),
            x_a=self.xa_standardizer.transform(x_a),
            x_m=self.xm_standardizer.transform(x_m),
            y_mean=np.array([s.y_mean for s in selected], dtype=np.float64),
            y_std=np.array([s.y_std for s in selected], dtype=np.float64),
        )

    def full_batch(self) -> SampleBatch:
        """Batch containing every sample (used for evaluation passes)."""
        return self.batch_from_indices(np.arange(len(self.samples)))

    def iter_batches(self, batch_size: int, *, shuffle: bool = True,
                     seed: int | np.random.Generator | None = 0):
        """Yield mini-batches of at most ``batch_size`` samples."""
        if batch_size < 1:
            raise DatasetError(f"batch_size must be >= 1, got {batch_size}")
        order = np.arange(len(self.samples))
        if shuffle:
            default_rng(seed).shuffle(order)
        for start in range(0, order.size, batch_size):
            yield self.batch_from_indices(order[start:start + batch_size])

    def split(self, validation_fraction: float = 0.2, *,
              seed: int | np.random.Generator | None = 0
              ) -> tuple[np.ndarray, np.ndarray]:
        """Random train/validation index split (the paper uses 80 % / 20 %)."""
        if not 0.0 < validation_fraction < 1.0:
            raise DatasetError(
                f"validation_fraction must lie in (0, 1), got {validation_fraction}")
        order = np.arange(len(self.samples))
        default_rng(seed).shuffle(order)
        n_validation = max(1, int(round(validation_fraction * order.size)))
        n_validation = min(n_validation, order.size - 1)
        return order[n_validation:], order[:n_validation]

    # -- dataset growth (BO rounds) -------------------------------------------------
    def extend(self, observations: list[LabelledObservation],
               matrices: dict[str, sp.spmatrix] | None = None, *,
               refit_standardizers: bool = False) -> None:
        """Append new observations (optionally introducing new matrices).

        This is how the BO round's freshly measured candidates are merged into
        the training set before retraining the BO-enhanced model.  By default
        the standardisers are kept frozen so that the Pre-BO and BO-enhanced
        models see identically scaled inputs (matching the paper's retraining
        protocol, which re-optimises only the weights).
        """
        matrices = matrices or {}
        for name, matrix in matrices.items():
            if name not in self.graphs:
                self.graphs[name] = graph_from_matrix(matrix, name=name)
                self.features_raw[name] = feature_vector(matrix)
        unknown = {obs.matrix_name for obs in observations} - set(self.graphs)
        if unknown:
            raise DatasetError(
                f"observations refer to matrices without graphs: {sorted(unknown)}")
        self.samples.extend(
            _Sample(matrix_name=obs.matrix_name,
                    x_m_raw=encode_parameters(obs.parameters),
                    y_mean=float(obs.y_mean),
                    y_std=max(float(obs.y_std), self.std_floor))
            for obs in observations)
        self.matrix_names = sorted(self.graphs)
        self._graph_index = {name: index for index, name in enumerate(self.matrix_names)}
        self._full_batch = GraphBatch.from_graphs(
            [self.graphs[name] for name in self.matrix_names])
        if refit_standardizers:
            self._fit_standardizers()

    def best_observed_y(self) -> float:
        """Best (lowest) observed mean metric -- the ``y_min`` of EI (Eq. 3)."""
        return float(min(sample.y_mean for sample in self.samples))
