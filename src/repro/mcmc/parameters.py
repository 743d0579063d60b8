"""Algorithmic parameters of the MCMC matrix-inversion preconditioner.

The paper (Sec. 4.1) exposes three continuous parameters
``x_M = (alpha, eps, delta)`` plus a categorical Krylov-solver choice:

* ``alpha > 0``    -- scale of the added diagonal (``A + alpha * diag(A)``),
* ``eps in (0,1]`` -- stochastic error; the number of independent chains per
  row follows the classical probable-error rule ``N = ceil((0.6745 / eps)^2)``,
* ``delta in (0,1]`` -- truncation error; the maximum walk length ``l`` is the
  smallest integer with ``||B||^l <= delta``.

The training dataset of the paper is a 4x4x4 grid over
``alpha in {1,2,4,5}``, ``eps, delta in {1/2, 1/4, 1/8, 1/16}``; this module
reproduces that grid and provides continuous bounds for the Bayesian
optimiser, plus the array <-> dataclass conversions the surrogate needs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Iterable, Sequence

import numpy as np

from repro.config import default_rng
from repro.exceptions import ParameterError

__all__ = [
    "MCMCParameters",
    "ParameterBounds",
    "DEFAULT_BOUNDS",
    "PAPER_ALPHA_GRID",
    "PAPER_EPS_GRID",
    "PAPER_DELTA_GRID",
    "paper_parameter_grid",
    "sample_parameters",
    "num_chains_for_eps",
    "walk_length_for_delta",
]

#: Grid values used by the paper to build the training dataset (Sec. 4.2).
PAPER_ALPHA_GRID: tuple[float, ...] = (1.0, 2.0, 4.0, 5.0)
PAPER_EPS_GRID: tuple[float, ...] = (0.5, 0.25, 0.125, 0.0625)
PAPER_DELTA_GRID: tuple[float, ...] = (0.5, 0.25, 0.125, 0.0625)

#: Known Krylov solver identifiers for the categorical part of ``x_M``.
KNOWN_SOLVERS: tuple[str, ...] = ("gmres", "bicgstab", "cg")

#: Probable-error constant of the classical Monte Carlo error bound.
_PROBABLE_ERROR = 0.6745


def num_chains_for_eps(eps: float, *, cap: int = 10_000) -> int:
    """Number of independent Markov chains per row for stochastic error ``eps``.

    Uses the probable-error rule ``N = ceil((0.6745 / eps)^2)`` inherited from
    the classical Monte Carlo literature the MCMCMI method builds on; the cap
    protects against accidentally tiny ``eps`` values during BO exploration.
    """
    if not 0.0 < eps <= 1.0:
        raise ParameterError(f"eps must lie in (0, 1], got {eps}")
    n = int(math.ceil((_PROBABLE_ERROR / eps) ** 2))
    return int(min(max(n, 1), cap))


#: Walk-length cap used when the iteration matrix is not a contraction.  The
#: estimator diverges in that regime whatever the length, so spending long
#: walks on it would only waste time (and overflow weights); a short cap keeps
#: the divergence scenarios the paper deliberately includes cheap to evaluate.
DIVERGENT_WALK_CAP = 48


def walk_length_for_delta(delta: float, norm_b: float, *, cap: int = 512) -> int:
    """Maximum walk length for truncation error ``delta``.

    The chain is truncated at the smallest ``l`` with ``||B||^l <= delta``;
    when the iteration matrix is not a contraction (``||B|| >= 1``) a short
    cap (:data:`DIVERGENT_WALK_CAP`) is returned -- this is precisely the
    divergence regime that near-zero ``alpha`` samples of the paper expose the
    surrogate to, and longer walks cannot rescue it.
    """
    if not 0.0 < delta <= 1.0:
        raise ParameterError(f"delta must lie in (0, 1], got {delta}")
    if norm_b <= 0.0:
        return 1
    if norm_b >= 1.0:
        return int(min(DIVERGENT_WALK_CAP, cap))
    length = int(math.ceil(math.log(delta) / math.log(norm_b)))
    return int(min(max(length, 1), cap))


@dataclass(frozen=True)
class MCMCParameters:
    """The algorithmic parameter vector ``x_M`` of the MCMCMI preconditioner.

    Attributes
    ----------
    alpha:
        Diagonal perturbation scale (``> 0``; near-zero values typically make
        the Neumann series diverge, which the framework must tolerate).
    eps:
        Stochastic error in ``(0, 1]``; controls the number of chains.
    delta:
        Truncation error in ``(0, 1]``; controls the walk length.
    solver:
        Categorical Krylov solver (``gmres``, ``bicgstab`` or ``cg``).  The
        paper includes the solver as a surrogate input but does not recommend
        it; we keep the field for the same reason.
    """

    alpha: float
    eps: float
    delta: float
    solver: str = "gmres"

    def __post_init__(self) -> None:
        if not np.isfinite(self.alpha) or self.alpha < 0.0:
            raise ParameterError(f"alpha must be finite and >= 0, got {self.alpha}")
        if not 0.0 < self.eps <= 1.0:
            raise ParameterError(f"eps must lie in (0, 1], got {self.eps}")
        if not 0.0 < self.delta <= 1.0:
            raise ParameterError(f"delta must lie in (0, 1], got {self.delta}")
        if self.solver not in KNOWN_SOLVERS:
            raise ParameterError(
                f"unknown solver {self.solver!r}; expected one of {KNOWN_SOLVERS}")

    # -- conversions -------------------------------------------------------
    def to_array(self) -> np.ndarray:
        """Continuous part ``(alpha, eps, delta)`` as a float array."""
        return np.array([self.alpha, self.eps, self.delta], dtype=np.float64)

    @classmethod
    def from_array(cls, values: Sequence[float] | np.ndarray,
                   solver: str = "gmres") -> "MCMCParameters":
        """Build parameters from a 3-vector ``(alpha, eps, delta)``."""
        array = np.asarray(values, dtype=np.float64).ravel()
        if array.size != 3:
            raise ParameterError(
                f"expected 3 values (alpha, eps, delta), got {array.size}")
        return cls(alpha=float(array[0]), eps=float(array[1]),
                   delta=float(array[2]), solver=solver)

    def with_solver(self, solver: str) -> "MCMCParameters":
        """Copy with a different Krylov solver."""
        return replace(self, solver=solver)

    def clipped(self, bounds: "ParameterBounds") -> "MCMCParameters":
        """Copy with the continuous values clipped into ``bounds``."""
        lower, upper = bounds.as_arrays()
        clipped = np.clip(self.to_array(), lower, upper)
        return MCMCParameters.from_array(clipped, solver=self.solver)

    # -- derived quantities ------------------------------------------------
    def num_chains(self, *, cap: int = 10_000) -> int:
        """Chains per row implied by ``eps``."""
        return num_chains_for_eps(self.eps, cap=cap)

    def max_walk_length(self, norm_b: float, *, cap: int = 512) -> int:
        """Maximum walk length implied by ``delta`` for a given ``||B||``."""
        return walk_length_for_delta(self.delta, norm_b, cap=cap)

    def describe(self) -> str:
        """Compact human-readable form used in reports."""
        return (f"alpha={self.alpha:g}, eps={self.eps:g}, delta={self.delta:g}, "
                f"solver={self.solver}")


@dataclass(frozen=True)
class ParameterBounds:
    """Box bounds for the continuous parameters, used by BO and random search."""

    alpha: tuple[float, float] = (0.05, 5.0)
    eps: tuple[float, float] = (0.0625, 1.0)
    delta: tuple[float, float] = (0.0625, 1.0)

    def __post_init__(self) -> None:
        for name, (low, high) in (("alpha", self.alpha), ("eps", self.eps),
                                  ("delta", self.delta)):
            if not (np.isfinite(low) and np.isfinite(high)) or low > high:
                raise ParameterError(f"invalid bounds for {name}: ({low}, {high})")
        if self.alpha[0] < 0:
            raise ParameterError("alpha lower bound must be >= 0")
        for name, (low, high) in (("eps", self.eps), ("delta", self.delta)):
            if low <= 0 or high > 1:
                raise ParameterError(
                    f"{name} bounds must lie within (0, 1], got ({low}, {high})")

    def as_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Lower and upper bound arrays in ``(alpha, eps, delta)`` order."""
        lower = np.array([self.alpha[0], self.eps[0], self.delta[0]], dtype=np.float64)
        upper = np.array([self.alpha[1], self.eps[1], self.delta[1]], dtype=np.float64)
        return lower, upper

    def as_scipy_bounds(self) -> list[tuple[float, float]]:
        """Bounds in the list-of-pairs format expected by L-BFGS-B."""
        lower, upper = self.as_arrays()
        return [(float(lo), float(hi)) for lo, hi in zip(lower, upper)]

    def contains(self, params: MCMCParameters, *, atol: float = 1e-12) -> bool:
        """Whether the continuous part of ``params`` lies inside the box."""
        lower, upper = self.as_arrays()
        values = params.to_array()
        return bool(np.all(values >= lower - atol) and np.all(values <= upper + atol))

    def sample(self, rng: np.random.Generator) -> MCMCParameters:
        """Uniform random sample inside the box (solver fixed to GMRES)."""
        lower, upper = self.as_arrays()
        values = rng.uniform(lower, upper)
        return MCMCParameters.from_array(values)


#: Default continuous search box (covers the paper grid plus the near-zero
#: ``alpha`` divergence samples).
DEFAULT_BOUNDS = ParameterBounds()


def paper_parameter_grid(solvers: Iterable[str] = ("gmres", "bicgstab"),
                         *,
                         alphas: Sequence[float] = PAPER_ALPHA_GRID,
                         epss: Sequence[float] = PAPER_EPS_GRID,
                         deltas: Sequence[float] = PAPER_DELTA_GRID,
                         ) -> list[MCMCParameters]:
    """The paper's coarse grid: 4 x 4 x 4 configurations per solver.

    Every matrix of the training set contributed 64 labelled samples per
    solver (128 for the two-solver case); tests and smoke profiles pass
    smaller ``alphas``/``epss``/``deltas`` sequences to shrink the grid.
    """
    grid: list[MCMCParameters] = []
    for solver in solvers:
        for alpha in alphas:
            for eps in epss:
                for delta in deltas:
                    grid.append(MCMCParameters(alpha=float(alpha), eps=float(eps),
                                               delta=float(delta), solver=solver))
    return grid


def sample_parameters(n: int, *, bounds: ParameterBounds = DEFAULT_BOUNDS,
                      solver: str = "gmres",
                      seed: int | np.random.Generator | None = 0) -> list[MCMCParameters]:
    """Draw ``n`` uniform random parameter vectors inside ``bounds``."""
    if n < 0:
        raise ParameterError(f"n must be non-negative, got {n}")
    rng = default_rng(seed)
    return [bounds.sample(rng).with_solver(solver) for _ in range(n)]
