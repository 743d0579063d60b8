"""Tree-structured Parzen Estimator (Bergstra et al. 2011).

The sampler the paper uses for the surrogate's hyperparameter optimisation.
For every dimension the observed configurations are split into a "good" set
(the best ``gamma`` fraction by objective value) and a "bad" set; two kernel
density estimates ``l(x)`` (good) and ``g(x)`` (bad) are fitted, and the next
configuration maximises the ratio ``l(x) / g(x)`` among a batch of candidates
drawn from ``l``.  Categorical dimensions use smoothed empirical frequencies
instead of KDEs.  Dimensions are treated independently (the classic "tree" of
one-dimensional estimators).
"""

from __future__ import annotations

from typing import Any, Callable

import numpy as np

from repro.config import default_rng
from repro.exceptions import SearchSpaceError
from repro.hpo.space import IntUniform, SearchSpace

__all__ = ["TPESampler", "tpe_search"]


class TPESampler:
    """Sequential configuration sampler implementing TPE.

    Parameters
    ----------
    space:
        The search space.
    gamma:
        Fraction of observations considered "good".
    n_startup_trials:
        Number of purely random configurations before the TPE model kicks in.
    n_ei_candidates:
        Candidates drawn from ``l`` per dimension when maximising ``l/g``.
    seed:
        Random seed.
    """

    def __init__(self, space: SearchSpace, *, gamma: float = 0.25,
                 n_startup_trials: int = 5, n_ei_candidates: int = 24,
                 seed: int | None = 0) -> None:
        if not 0.0 < gamma < 1.0:
            raise SearchSpaceError(f"gamma must lie in (0, 1), got {gamma}")
        if n_startup_trials < 1:
            raise SearchSpaceError(
                f"n_startup_trials must be >= 1, got {n_startup_trials}")
        if n_ei_candidates < 1:
            raise SearchSpaceError(
                f"n_ei_candidates must be >= 1, got {n_ei_candidates}")
        self.space = space
        self.gamma = gamma
        self.n_startup_trials = n_startup_trials
        self.n_ei_candidates = n_ei_candidates
        self._rng = default_rng(seed)
        self._configs: list[dict[str, Any]] = []
        self._values: list[float] = []

    # -- bookkeeping ------------------------------------------------------------
    def observe(self, config: dict[str, Any], value: float) -> None:
        """Record the objective value of an evaluated configuration."""
        self._configs.append(dict(config))
        self._values.append(float(value))

    @property
    def n_observations(self) -> int:
        """Number of observations recorded so far."""
        return len(self._values)

    def best(self) -> tuple[dict[str, Any], float]:
        """Best configuration observed so far (minimisation)."""
        if not self._values:
            raise SearchSpaceError("no observations recorded yet")
        index = int(np.argmin(self._values))
        return self._configs[index], self._values[index]

    # -- sampling ----------------------------------------------------------------
    def suggest(self) -> dict[str, Any]:
        """Propose the next configuration to evaluate."""
        if self.n_observations < self.n_startup_trials:
            return self.space.sample(self._rng)
        good_configs, bad_configs = self._split_observations()
        config: dict[str, Any] = {}
        for name in self.space.names():
            if self.space.is_categorical(name):
                config[name] = self._suggest_categorical(name, good_configs, bad_configs)
            else:
                config[name] = self._suggest_numeric(name, good_configs, bad_configs)
        return config

    def _split_observations(self) -> tuple[list[dict], list[dict]]:
        order = np.argsort(self._values)
        n_good = max(1, int(np.ceil(self.gamma * len(order))))
        good = [self._configs[i] for i in order[:n_good]]
        bad = [self._configs[i] for i in order[n_good:]] or good
        return good, bad

    # -- numeric dimensions --------------------------------------------------------
    def _to_internal(self, name: str, values: np.ndarray) -> np.ndarray:
        return np.log(values) if self.space.is_log_scaled(name) else values

    def _from_internal(self, name: str, value: float):
        dimension = self.space.dimensions[name]
        raw = float(np.exp(value)) if self.space.is_log_scaled(name) else float(value)
        low, high = self.space.bounds(name)
        raw = float(np.clip(raw, low, high))
        if isinstance(dimension, IntUniform):
            return int(round(raw))
        return raw

    def _kde_bandwidth(self, points: np.ndarray, low: float, high: float) -> float:
        if points.size < 2:
            return max((high - low) / 5.0, 1e-3)
        spread = float(points.std())
        silverman = 1.06 * max(spread, 1e-3) * points.size ** (-0.2)
        return max(silverman, (high - low) / 50.0)

    def _kde_logpdf(self, x: np.ndarray, points: np.ndarray, bandwidth: float
                    ) -> np.ndarray:
        diffs = (x[:, None] - points[None, :]) / bandwidth
        log_kernel = -0.5 * diffs ** 2 - np.log(bandwidth * np.sqrt(2 * np.pi))
        return np.logaddexp.reduce(log_kernel, axis=1) - np.log(points.size)

    def _suggest_numeric(self, name: str, good: list[dict], bad: list[dict]):
        low, high = self.space.bounds(name)
        internal_low, internal_high = (np.log(low), np.log(high)) \
            if self.space.is_log_scaled(name) else (low, high)
        good_points = self._to_internal(
            name, np.array([float(c[name]) for c in good], dtype=np.float64))
        bad_points = self._to_internal(
            name, np.array([float(c[name]) for c in bad], dtype=np.float64))
        bandwidth_good = self._kde_bandwidth(good_points, internal_low, internal_high)
        bandwidth_bad = self._kde_bandwidth(bad_points, internal_low, internal_high)

        # Candidates: draws from l(x) (jittered good points) plus a uniform share.
        n_from_good = max(1, int(0.8 * self.n_ei_candidates))
        picked = self._rng.choice(good_points, size=n_from_good, replace=True)
        candidates_good = picked + bandwidth_good * self._rng.standard_normal(n_from_good)
        candidates_uniform = self._rng.uniform(internal_low, internal_high,
                                               self.n_ei_candidates - n_from_good)
        candidates = np.clip(np.concatenate([candidates_good, candidates_uniform]),
                             internal_low, internal_high)
        log_l = self._kde_logpdf(candidates, good_points, bandwidth_good)
        log_g = self._kde_logpdf(candidates, bad_points, bandwidth_bad)
        best = candidates[int(np.argmax(log_l - log_g))]
        return self._from_internal(name, float(best))

    # -- categorical dimensions --------------------------------------------------------
    def _suggest_categorical(self, name: str, good: list[dict], bad: list[dict]):
        options = self.space.dimensions[name].options  # type: ignore[union-attr]
        prior = 1.0

        def weights(configs: list[dict]) -> np.ndarray:
            counts = np.full(len(options), prior, dtype=np.float64)
            for config in configs:
                counts[options.index(config[name])] += 1.0
            return counts / counts.sum()

        good_weights = weights(good)
        bad_weights = weights(bad)
        scores = good_weights / np.maximum(bad_weights, 1e-12)
        return options[int(np.argmax(scores))]


def tpe_search(objective: Callable[[dict[str, Any]], float], space: SearchSpace, *,
               n_trials: int = 20, gamma: float = 0.25, n_startup_trials: int = 5,
               seed: int | None = 0
               ) -> tuple[dict[str, Any], float, list[tuple[dict, float]]]:
    """Run a TPE-driven search; returns ``(best_config, best_value, history)``."""
    if n_trials < 1:
        raise SearchSpaceError(f"n_trials must be >= 1, got {n_trials}")
    sampler = TPESampler(space, gamma=gamma, n_startup_trials=n_startup_trials,
                         seed=seed)
    history: list[tuple[dict, float]] = []
    for _ in range(n_trials):
        config = sampler.suggest()
        value = float(objective(config))
        sampler.observe(config, value)
        history.append((config, value))
    best_config, best_value = sampler.best()
    return best_config, best_value, history
