"""The shared end-to-end pipeline behind Figures 1-3.

The experiment of Sec. 4.4 has a fixed structure:

1. build the coarse grid-search dataset on the training matrices (Sec. 4.2),
2. train the **Pre-BO** surrogate on it,
3. use the Pre-BO model to recommend a batch of candidates on the *unseen*
   test matrix for each acquisition setting (balanced ``xi = 0.05`` and
   exploration ``xi = 1.0``), measure them with real solver runs,
4. merge the measurements into the dataset and retrain, producing the
   **BO-enhanced** model,
5. measure the full reference grid on the test matrix (the 64 x 10
   observations all three figures are computed from),
6. predict the reference grid with both models.

:func:`run_pipeline` executes those steps for a given
:class:`ExperimentProfile`; :func:`run_pipeline_cached` memoises the result so
the three figure drivers (and their benchmarks) share one run.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from repro.config import active_profile
from repro.core.baselines import grid_search_candidates
from repro.core.dataset import SurrogateDataset, encode_parameters
from repro.core.evaluation import (
    LabelledObservation,
    MatrixEvaluator,
    PerformanceRecord,
    SolverSettings,
    collect_grid_observations,
)
from repro.core.optimize import AcquisitionOptimizer, Candidate
from repro.core.surrogate import GraphNeuralSurrogate, SurrogateConfig
from repro.core.training import Trainer, TrainingConfig
from repro.exceptions import ExperimentError
from repro.logging_utils import get_logger
from repro.matrices.registry import get_spec, test_specs
from repro.mcmc.parameters import DEFAULT_BOUNDS, MCMCParameters
from repro.service import ladder
from repro.service.cache import ArtifactCache
from repro.service.store import ObservationStore
from repro.sparse.fingerprint import content_hash

__all__ = ["ExperimentProfile", "PipelineResult", "profile_hash",
           "run_pipeline", "run_pipeline_cached", "clear_pipeline_cache"]

_LOG = get_logger("experiments.pipeline")


@dataclass(frozen=True)
class ExperimentProfile:
    """Scale profile of the end-to-end experiment.

    ``smoke`` keeps every stage laptop-fast (minutes); ``paper`` reproduces the
    published protocol (4x4x4 grid, 10 replications, 32-candidate BO batches,
    64-point reference grid) at correspondingly higher cost.
    """

    name: str
    training_matrix_names: tuple[str, ...]
    test_matrix_name: str
    grid_alphas: tuple[float, ...]
    grid_epss: tuple[float, ...]
    grid_deltas: tuple[float, ...]
    solvers: tuple[str, ...]
    n_replications_train: int
    n_replications_eval: int
    n_replications_bo: int
    bo_batch_size: int
    eval_alphas: tuple[float, ...]
    eval_epss: tuple[float, ...]
    eval_deltas: tuple[float, ...]
    acquisition_xis: tuple[float, ...] = (0.05, 1.0)
    solver_settings: SolverSettings = field(default_factory=SolverSettings)
    surrogate: SurrogateConfig = field(default_factory=SurrogateConfig)
    training: TrainingConfig = field(default_factory=TrainingConfig)
    seed: int = 0

    @classmethod
    def smoke(cls, *, seed: int = 0) -> "ExperimentProfile":
        """CI-sized profile: small training pool, coarse grids, few replications."""
        return cls(
            name="smoke",
            training_matrix_names=(
                "2DFDLaplace_16",
                "PDD_RealSparse_N64",
                "PDD_RealSparse_N128",
                "unsteady_adv_diff_order1_0001",
            ),
            test_matrix_name="unsteady_adv_diff_order2_0001",
            grid_alphas=(0.05, 1.0, 4.0, 5.0),
            grid_epss=(0.5, 0.25),
            grid_deltas=(0.5, 0.25),
            solvers=("gmres",),
            n_replications_train=3,
            n_replications_eval=3,
            n_replications_bo=3,
            bo_batch_size=8,
            eval_alphas=(0.05, 1.0, 4.0, 5.0),
            eval_epss=(0.5, 0.25, 0.125),
            eval_deltas=(0.5, 0.25, 0.125),
            solver_settings=SolverSettings(rtol=1e-8, maxiter=600),
            surrogate=SurrogateConfig(graph_hidden=32, xa_hidden=16, xm_hidden=16,
                                      combined_hidden=32, dropout=0.05, seed=seed),
            training=TrainingConfig(epochs=60, batch_size=64, learning_rate=5e-3,
                                    weight_decay=1e-4, patience=20, seed=seed),
            seed=seed,
        )

    @classmethod
    def paper(cls, *, seed: int = 0) -> "ExperimentProfile":
        """The published protocol (hours of compute on a laptop)."""
        return cls(
            name="paper",
            training_matrix_names=(
                "2DFDLaplace_16",
                "2DFDLaplace_32",
                "2DFDLaplace_64",
                "a00512",
                "unsteady_adv_diff_order1_0001",
                "PDD_RealSparse_N64",
                "PDD_RealSparse_N128",
                "PDD_RealSparse_N256",
            ),
            test_matrix_name="unsteady_adv_diff_order2_0001",
            grid_alphas=(1.0, 2.0, 4.0, 5.0),
            grid_epss=(0.5, 0.25, 0.125, 0.0625),
            grid_deltas=(0.5, 0.25, 0.125, 0.0625),
            solvers=("gmres", "bicgstab"),
            n_replications_train=10,
            n_replications_eval=10,
            n_replications_bo=10,
            bo_batch_size=32,
            eval_alphas=(1.0, 2.0, 4.0, 5.0),
            eval_epss=(0.5, 0.25, 0.125, 0.0625),
            eval_deltas=(0.5, 0.25, 0.125, 0.0625),
            solver_settings=SolverSettings(rtol=1e-8, maxiter=1000),
            surrogate=SurrogateConfig.paper(seed=seed),
            training=TrainingConfig.paper(seed=seed),
            seed=seed,
        )

    @classmethod
    def from_name(cls, name: str, *, seed: int = 0) -> "ExperimentProfile":
        """Profile by name (``smoke`` / ``paper``)."""
        key = name.strip().lower()
        if key == "smoke":
            return cls.smoke(seed=seed)
        if key == "paper":
            return cls.paper(seed=seed)
        raise ExperimentError(f"unknown profile {name!r}; expected 'smoke' or 'paper'")

    @classmethod
    def from_environment(cls, *, seed: int = 0) -> "ExperimentProfile":
        """Profile selected through the ``REPRO_PROFILE`` environment variable."""
        return cls.from_name(active_profile(), seed=seed)

    # -- derived grids ----------------------------------------------------------
    def training_grid(self) -> list[MCMCParameters]:
        """Parameter grid used to build the training dataset."""
        return grid_search_candidates(solver="gmres", alphas=self.grid_alphas,
                                      epss=self.grid_epss, deltas=self.grid_deltas) \
            if self.solvers == ("gmres",) else [
                p for solver in self.solvers
                for p in grid_search_candidates(solver=solver, alphas=self.grid_alphas,
                                                epss=self.grid_epss,
                                                deltas=self.grid_deltas)]

    def evaluation_grid(self, solver: str = "gmres") -> list[MCMCParameters]:
        """Reference grid evaluated on the unseen test matrix (64 points in the paper)."""
        return grid_search_candidates(solver=solver, alphas=self.eval_alphas,
                                      epss=self.eval_epss, deltas=self.eval_deltas)


@dataclass
class PipelineResult:
    """Everything the figure drivers need, produced by one pipeline run."""

    profile: ExperimentProfile
    training_matrices: dict[str, sp.csr_matrix]
    test_matrix: sp.csr_matrix
    dataset: SurrogateDataset
    pre_bo_model: GraphNeuralSurrogate
    bo_enhanced_model: GraphNeuralSurrogate
    bo_candidates: dict[float, list[Candidate]]
    bo_records: dict[float, list[PerformanceRecord]]
    reference_records: list[PerformanceRecord]
    pre_bo_predictions: tuple[np.ndarray, np.ndarray]
    bo_enhanced_predictions: tuple[np.ndarray, np.ndarray]

    @property
    def test_matrix_name(self) -> str:
        """Name of the unseen generalisation target."""
        return self.profile.test_matrix_name

    def reference_parameters(self) -> list[MCMCParameters]:
        """Parameter vectors of the reference grid, in record order."""
        return [record.parameters for record in self.reference_records]


def profile_hash(profile: ExperimentProfile) -> str:
    """Content hash over *every* field of the profile (and its sub-configs).

    Unlike the former ``(name, seed)`` memo key, two profiles that share a
    name but differ in any grid, replication count, solver setting or model
    hyperparameter hash differently — mutating a profile can no longer serve
    a stale pipeline result.
    """
    return content_hash(json.dumps(asdict(profile), sort_keys=True, default=repr))


def _build_matrices(names: tuple[str, ...]) -> dict[str, sp.csr_matrix]:
    return {name: get_spec(name).build() for name in names}


def _open_store(store: "ObservationStore | str | Path | None"
                ) -> ObservationStore | None:
    if store is None or isinstance(store, ObservationStore):
        return store
    return ObservationStore(store)


def _predict_records(model: GraphNeuralSurrogate, dataset: SurrogateDataset,
                     matrix: sp.spmatrix, matrix_name: str,
                     records: list[PerformanceRecord]
                     ) -> tuple[np.ndarray, np.ndarray]:
    optimizer = AcquisitionOptimizer(model, dataset, seed=0)
    parameters = [record.parameters for record in records]
    return optimizer.predict_parameters(matrix, matrix_name, parameters)


def run_pipeline(profile: ExperimentProfile | None = None, *,
                 store: "ObservationStore | str | Path | None" = None
                 ) -> PipelineResult:
    """Execute the full experiment pipeline for ``profile`` (default: from env).

    Parameters
    ----------
    profile:
        Scale profile; selected through ``REPRO_PROFILE`` when ``None``.
    store:
        Optional :class:`~repro.service.store.ObservationStore` (or its
        directory).  Every measurement — training grid, reference grid, BO
        rounds — is persisted there and served from there on a re-run, so a
        killed run restarted with the same store re-measures only what is
        missing and still produces identical figure inputs (the non-measured
        stages, surrogate training and BO proposal, are deterministic given
        the profile).
    """
    profile = profile if profile is not None else ExperimentProfile.from_environment()
    store = _open_store(store)
    _LOG.info("running pipeline with profile %s%s", profile.name,
              "" if store is None else f" (store: {store.root})")

    # 1. Training data -----------------------------------------------------------
    training_matrices = _build_matrices(profile.training_matrix_names)
    observations = collect_grid_observations(
        training_matrices, profile.training_grid(),
        n_replications=profile.n_replications_train,
        settings=profile.solver_settings, seed=profile.seed, store=store)
    dataset = SurrogateDataset(observations, training_matrices)

    # 2. Pre-BO model -------------------------------------------------------------
    surrogate_config = profile.surrogate.with_dims(
        node_dim=dataset.node_feature_dim, edge_dim=dataset.edge_feature_dim,
        xa_dim=dataset.xa_dim, xm_dim=dataset.xm_dim)
    model = GraphNeuralSurrogate(surrogate_config)
    trainer = Trainer(profile.training)
    trainer.fit(model, dataset)
    pre_bo_model = GraphNeuralSurrogate(surrogate_config)
    pre_bo_model.load_state_dict(model.state_dict())
    pre_bo_model.eval()

    # 3. Reference grid on the unseen test matrix -----------------------------------
    test_spec = get_spec(profile.test_matrix_name)
    if test_spec.role != "test":
        _LOG.warning("%s is not marked as a test matrix in the registry",
                     profile.test_matrix_name)
    test_matrix = test_spec.build()
    evaluator = MatrixEvaluator(test_matrix, profile.test_matrix_name,
                                settings=profile.solver_settings,
                                seed=profile.seed + 1009, store=store)
    reference_records = evaluator.evaluate_many(
        profile.evaluation_grid("gmres"),
        n_replications=profile.n_replications_eval)

    pre_bo_predictions = _predict_records(pre_bo_model, dataset, test_matrix,
                                          profile.test_matrix_name, reference_records)

    # 4. BO round: recommendations from the Pre-BO model for both xi settings --------
    bo_candidates: dict[float, list[Candidate]] = {}
    bo_records: dict[float, list[PerformanceRecord]] = {}
    new_observations: list[LabelledObservation] = []
    for index, xi in enumerate(profile.acquisition_xis):
        candidates = ladder.surrogate(
            pre_bo_model, dataset, test_matrix, profile.test_matrix_name,
            bounds=DEFAULT_BOUNDS, seed=profile.seed + 31 * (index + 1),
            solver="gmres", n_candidates=profile.bo_batch_size, xi=xi,
            n_restarts=4, exploit=False)
        records = evaluator.evaluate_many([c.parameters for c in candidates],
                                          n_replications=profile.n_replications_bo)
        bo_candidates[xi] = candidates
        bo_records[xi] = records
        new_observations.extend(record.to_observation() for record in records)
        _LOG.info("BO strategy xi=%.2f: best measured %.3f", xi,
                  min(record.y_mean for record in records))

    # 5. BO-enhanced model -------------------------------------------------------------
    dataset.extend(new_observations, matrices={profile.test_matrix_name: test_matrix})
    bo_enhanced_model = GraphNeuralSurrogate(surrogate_config)
    bo_enhanced_model.load_state_dict(pre_bo_model.state_dict())
    trainer.fit(bo_enhanced_model, dataset)
    bo_enhanced_model.eval()

    bo_enhanced_predictions = _predict_records(
        bo_enhanced_model, dataset, test_matrix, profile.test_matrix_name,
        reference_records)

    return PipelineResult(
        profile=profile,
        training_matrices=training_matrices,
        test_matrix=test_matrix,
        dataset=dataset,
        pre_bo_model=pre_bo_model,
        bo_enhanced_model=bo_enhanced_model,
        bo_candidates=bo_candidates,
        bo_records=bo_records,
        reference_records=reference_records,
        pre_bo_predictions=pre_bo_predictions,
        bo_enhanced_predictions=bo_enhanced_predictions,
    )


#: Bounded memo for pipeline results.  A :class:`PipelineResult` holds the
#: training matrices, the full dataset and two trained models, so the memo
#: must not grow with every profile variation a session tries; the LRU bound
#: keeps at most a handful alive and :func:`clear_pipeline_cache` releases
#: the payloads outright.
_PIPELINE_CACHE = ArtifactCache(max_entries=4)


def run_pipeline_cached(profile: ExperimentProfile | None = None, *,
                        store: "ObservationStore | str | Path | None" = None
                        ) -> PipelineResult:
    """Memoised :func:`run_pipeline` keyed by the full profile content hash.

    The three figure drivers consume the same pipeline output; caching makes
    a pytest session over ``benchmarks/bench_*.py`` run it once instead of
    three times.  The key is :func:`profile_hash` (plus the store location),
    so two profiles differing in *any* field — not just name and seed — never
    share a result.
    """
    profile = profile if profile is not None else ExperimentProfile.from_environment()
    store = _open_store(store)
    key = ("pipeline", profile_hash(profile),
           None if store is None else str(store.root.resolve()))
    return _PIPELINE_CACHE.get_or_build(
        key, lambda: run_pipeline(profile, store=store))


def clear_pipeline_cache() -> None:
    """Release every memoised pipeline result (and its model/dataset payloads)."""
    _PIPELINE_CACHE.clear()
