"""Measurement of the MCMC preconditioning performance metric ``y(A, x_M)``.

Equation (4) of the paper defines the metric as the ratio of Krylov iteration
counts with and without the MCMC preconditioner.  A single measurement is one
preconditioner build (with its own random seed) followed by one solve; an
observation is the sample mean and standard deviation over ``n_replications``
measurements, exactly how the paper labels its training data (10 replications
per configuration).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np
import scipy.sparse as sp

from repro.exceptions import ParameterError
from repro.krylov import solve
from repro.logging_utils import get_logger
from repro.mcmc.parameters import MCMCParameters
from repro.mcmc.preconditioner import MCMCPreconditioner
from repro.mcmc.walks import TransitionTable
from repro.sparse.csr import validate_square
from repro.sparse.fingerprint import content_hash, matrix_fingerprint

if TYPE_CHECKING:  # imported lazily at runtime to avoid an import cycle
    from repro.service.cache import ArtifactCache
    from repro.service.store import ObservationStore

__all__ = [
    "SolverSettings",
    "PerformanceRecord",
    "LabelledObservation",
    "MatrixEvaluator",
    "collect_grid_observations",
    "measurement_regime",
]

_LOG = get_logger("core.evaluation")


@dataclass(frozen=True)
class SolverSettings:
    """Settings shared by the preconditioned and unpreconditioned solves.

    Using the *same* settings for both sides of the ratio is what makes the
    metric well defined; the defaults mirror the experiment scale of the paper
    (small systems, tight tolerance, full-memory GMRES).
    """

    rtol: float = 1e-8
    maxiter: int = 1000
    gmres_restart: int | None = None  # ``None`` -> full GMRES (restart = n)

    def solver_kwargs(self, solver: str, dimension: int) -> dict:
        """Keyword arguments for :func:`repro.krylov.solve`."""
        kwargs: dict = {"rtol": self.rtol, "maxiter": self.maxiter}
        if solver == "gmres":
            restart = self.gmres_restart
            if restart is None:
                restart = min(dimension, self.maxiter)
            kwargs["restart"] = restart
        return kwargs


def measurement_regime(settings: SolverSettings, rhs: np.ndarray) -> str:
    """Hash of the measurement *regime*: solver settings plus right-hand side.

    Two performance records are statistically comparable exactly when this
    hash matches — same tolerance, iteration budget, restart policy and
    ``b`` — whatever seed or replication count produced them.  Both
    :class:`MatrixEvaluator` and the solve server prefix their store contexts
    with it, so a stored record says which regime measured it; the solve
    server also keys its cached baselines by it.
    """
    return content_hash(
        f"rtol={settings.rtol!r}:maxiter={settings.maxiter}"
        f":restart={settings.gmres_restart!r}",
        np.ascontiguousarray(rhs, dtype=np.float64).tobytes())


@dataclass
class PerformanceRecord:
    """Replicated measurements of ``y(A, x_M)`` for one parameter vector."""

    parameters: MCMCParameters
    matrix_name: str
    baseline_iterations: int
    preconditioned_iterations: list[int]
    y_values: list[float]

    @property
    def y_mean(self) -> float:
        """Sample mean of the metric over the replications."""
        return float(np.mean(self.y_values))

    @property
    def y_std(self) -> float:
        """Sample standard deviation (ddof=1 when possible)."""
        if len(self.y_values) < 2:
            return 0.0
        return float(np.std(self.y_values, ddof=1))

    @property
    def y_median(self) -> float:
        """Sample median (the statistic summarised in Figure 3)."""
        return float(np.median(self.y_values))

    def to_observation(self) -> "LabelledObservation":
        """Convert to the labelled form consumed by the surrogate dataset."""
        return LabelledObservation(
            matrix_name=self.matrix_name,
            parameters=self.parameters,
            y_mean=self.y_mean,
            y_std=self.y_std,
            y_values=list(self.y_values),
        )


@dataclass(frozen=True)
class LabelledObservation:
    """One labelled datum ``(A, x_M) -> (y_mean, y_std)`` of the dataset."""

    matrix_name: str
    parameters: MCMCParameters
    y_mean: float
    y_std: float
    y_values: tuple[float, ...] | list[float] = field(default_factory=list)


class MatrixEvaluator:
    """Measures ``y(A, x_M)`` for one matrix, caching the baselines.

    Parameters
    ----------
    matrix:
        The system matrix ``A``.
    name:
        Identifier recorded on the observations.
    settings:
        Shared solver settings.
    rhs:
        Right-hand side; the paper's benchmarks use a fixed ``b`` per matrix,
        here the all-ones vector by default.
    seed:
        Base seed; replication ``r`` of parameter vector ``i`` uses an
        independent stream derived from ``(seed, i, r)``.
    cache:
        :class:`~repro.service.cache.ArtifactCache` holding the per-``alpha``
        :class:`TransitionTable` builds.  Defaults to the process-wide
        :func:`~repro.service.cache.global_cache`, so every evaluator over
        the same matrix content (keyed by fingerprint) shares one build.
    store:
        Optional :class:`~repro.service.store.ObservationStore`.  When set,
        :meth:`evaluate` first looks the exact measurement up in the store
        (same matrix content, parameters, settings, seed, replication count
        and candidate index — everything the measurement deterministically
        depends on) and returns the stored record instead of re-measuring;
        fresh measurements are persisted on completion.
    """

    def __init__(self, matrix: sp.spmatrix, name: str, *,
                 settings: SolverSettings | None = None,
                 rhs: np.ndarray | None = None,
                 seed: int = 0,
                 cache: "ArtifactCache | None" = None,
                 store: "ObservationStore | None" = None) -> None:
        self.matrix = validate_square(matrix)
        self.name = name
        self.settings = settings if settings is not None else SolverSettings()
        self.rhs = (np.ones(self.matrix.shape[0])
                    if rhs is None else np.asarray(rhs, dtype=np.float64))
        if self.rhs.size != self.matrix.shape[0]:
            raise ParameterError(
                f"rhs length {self.rhs.size} incompatible with matrix "
                f"dimension {self.matrix.shape[0]}")
        self.seed = int(seed)
        self.store = store
        self._cache = cache
        self._baseline_cache: dict[str, int] = {}
        self.fingerprint = matrix_fingerprint(self.matrix)
        # Hash of the measurement *regime* (solver settings + rhs): two
        # records are statistically comparable exactly when this matches,
        # whatever seed / replication count produced them.  It prefixes the
        # store context (:meth:`record_context`).
        self.settings_fingerprint = measurement_regime(self.settings, self.rhs)
        if store is not None and not store.has_matrix(self.fingerprint):
            from repro.matrices.features import feature_vector

            store.register_matrix(self.fingerprint, self.name,
                                  feature_vector(self.matrix))

    # -- baselines -------------------------------------------------------------
    def baseline_iterations(self, solver: str) -> int:
        """Iteration count without preconditioning (cached per solver)."""
        if solver not in self._baseline_cache:
            kwargs = self.settings.solver_kwargs(solver, self.matrix.shape[0])
            result = solve(self.matrix, self.rhs, solver=solver, **kwargs)
            self._baseline_cache[solver] = result.measured_iterations
            _LOG.debug("baseline on %s: %s", self.name, result.describe())
        return self._baseline_cache[solver]

    @property
    def cache(self) -> "ArtifactCache":
        """The artifact cache in use (process-wide by default)."""
        if self._cache is None:
            from repro.service.cache import global_cache

            self._cache = global_cache()
        return self._cache

    def _transition_table(self, alpha: float) -> TransitionTable:
        """Shared per-``(matrix, alpha)`` transition table (independent of eps/delta).

        Replications and eps/delta sweeps rebuild the preconditioner many
        times at the same ``alpha``; the :class:`ArtifactCache` removes the
        only build step those repeats share.  Keying by the matrix content
        fingerprint means *every* evaluator in the process — BO over a matrix
        portfolio, the figure drivers — shares one build,
        while the LRU bound keeps the dense padded tables from accumulating
        when BO proposes continuous ``alpha`` values.
        """
        from repro.service.cache import cached_transition_table

        return cached_transition_table(self.cache, self.fingerprint,
                                       self.matrix, alpha)

    # -- measurements -----------------------------------------------------------
    def measure_once(self, parameters: MCMCParameters, *, seed: int) -> tuple[int, float]:
        """One preconditioner build + solve; returns (iterations, y)."""
        preconditioner = MCMCPreconditioner(
            self.matrix, parameters, seed=seed,
            transition_table=self._transition_table(parameters.alpha))
        kwargs = self.settings.solver_kwargs(parameters.solver, self.matrix.shape[0])
        iterations = solve(self.matrix, self.rhs, solver=parameters.solver,
                           preconditioner=preconditioner,
                           **kwargs).measured_iterations
        baseline = self.baseline_iterations(parameters.solver)
        return iterations, iterations / baseline

    def record_context(self, n_replications: int, candidate_index: int) -> str:
        """Store-key context: the measurement inputs beyond the parameters.

        A measurement is a deterministic function of (matrix content,
        parameters, solver settings, rhs, evaluator seed, replication count,
        candidate index); the first two are separate key components, the rest
        is this context string.  Records under the same full key are
        therefore interchangeable with re-measurement.  The context starts
        with :attr:`settings_fingerprint` followed by ``:`` so that records
        from the same measurement regime can be recognised across seeds.
        """
        return (f"{self.settings_fingerprint}:s{self.seed}"
                f":r{int(n_replications)}:c{int(candidate_index)}")

    def evaluate(self, parameters: MCMCParameters, *, n_replications: int = 3,
                 candidate_index: int = 0) -> PerformanceRecord:
        """Replicated measurement of one parameter vector.

        With a :attr:`store` attached, an already-stored measurement of the
        same key is returned without touching the solver, and new
        measurements are persisted (payload first, then index entry, so a
        kill mid-grid never leaves a partial record behind).
        """
        if n_replications < 1:
            raise ParameterError(
                f"n_replications must be >= 1, got {n_replications}")
        context = self.record_context(n_replications, candidate_index)
        if self.store is not None:
            stored = self.store.get_record(self.fingerprint, parameters,
                                           context=context)
            if stored is not None:
                return stored
        iterations: list[int] = []
        y_values: list[float] = []
        for replication in range(n_replications):
            # Deterministic but independent seed per (evaluator, candidate, rep).
            seed = (self.seed * 1_000_003 + candidate_index * 1_009
                    + replication * 7 + 13) % (2 ** 31 - 1)
            its, y = self.measure_once(parameters, seed=seed)
            iterations.append(its)
            y_values.append(y)
        record = PerformanceRecord(
            parameters=parameters,
            matrix_name=self.name,
            baseline_iterations=self.baseline_iterations(parameters.solver),
            preconditioned_iterations=iterations,
            y_values=y_values,
        )
        if self.store is not None:
            self.store.put_record(self.fingerprint, record, context=context)
        return record

    def evaluate_many(self, parameter_list: list[MCMCParameters], *,
                      n_replications: int = 3) -> list[PerformanceRecord]:
        """Evaluate a list of candidates (e.g. a grid or a BO batch)."""
        records = []
        for index, parameters in enumerate(parameter_list):
            records.append(self.evaluate(parameters, n_replications=n_replications,
                                         candidate_index=index))
        return records


def collect_grid_observations(matrices: dict[str, sp.spmatrix],
                              parameter_grid: list[MCMCParameters], *,
                              n_replications: int = 3,
                              settings: SolverSettings | None = None,
                              seed: int = 0,
                              skip_cg_for_nonsymmetric: bool = True,
                              store: "ObservationStore | None" = None,
                              ) -> list[LabelledObservation]:
    """Build the paper's grid-search training data over several matrices.

    Parameters
    ----------
    matrices:
        Mapping from matrix name to matrix.
    parameter_grid:
        Parameter vectors to evaluate on every matrix (the paper's 4x4x4 grid
        per solver).
    n_replications:
        Replications per configuration (the paper uses 10).
    skip_cg_for_nonsymmetric:
        CG is only run on symmetric positive-definite matrices in the paper;
        when true, CG configurations are silently skipped for matrices whose
        symmetry score is below 1.
    store:
        Optional observation store: already-measured grid points are served
        from it and fresh ones persisted, making the collection resumable.
    """
    from repro.sparse.csr import is_symmetric

    observations: list[LabelledObservation] = []
    for matrix_index, (name, matrix) in enumerate(matrices.items()):
        evaluator = MatrixEvaluator(matrix, name, settings=settings,
                                    seed=seed + 17 * matrix_index, store=store)
        grid = parameter_grid
        if skip_cg_for_nonsymmetric and not is_symmetric(matrix):
            grid = [p for p in parameter_grid if p.solver != "cg"]
        records = evaluator.evaluate_many(grid, n_replications=n_replications)
        observations.extend(record.to_observation() for record in records)
        _LOG.info("collected %d observations on %s", len(records), name)
    return observations
