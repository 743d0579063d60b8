"""Expected Improvement acquisition function (Eq. 3).

For a Gaussian surrogate posterior ``N(mu, sigma^2)`` and current best
observation ``y_min`` the Expected Improvement with exploration parameter
``xi`` has the closed form

.. math::

    EI(x) = (y_{min} - \\mu - \\xi)\\,\\Phi(z) + \\sigma\\,\\varphi(z),
    \\qquad z = \\frac{y_{min} - \\mu - \\xi}{\\sigma},

where ``Phi`` / ``phi`` are the standard normal CDF / PDF.  Because the paper
maximises EI with a gradient-based optimiser (L-BFGS-B), the analytic partial
derivatives with respect to ``mu`` and ``sigma`` are also provided; they are
chained with the surrogate's input gradients by the acquisition optimiser.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

from repro.exceptions import AcquisitionError

__all__ = ["expected_improvement", "expected_improvement_gradients",
           "ExpectedImprovement"]

#: Sigma floor below which the posterior is treated as (numerically) deterministic.
_SIGMA_FLOOR = 1e-12

_SQRT_2PI = np.sqrt(2 * np.pi)


def _norm_pdf(z) -> np.ndarray:
    """Standard normal density as a 1-D array, as ``scipy.stats.norm.pdf``
    computes it.

    ``ndtr`` and this are the functions behind ``norm.cdf`` / ``norm.pdf``
    (scipy's ``_norm_cdf`` / ``_norm_pdf``), called without the distribution
    machinery that costs ~100x more per call, so the values are
    bit-identical.  ``norm.pdf`` evaluates a scalar as a 1-D array too, and
    a numpy scalar's ``z**2`` can differ from the array loop's in the last
    bit.
    """
    z = np.atleast_1d(np.asarray(z, dtype=np.float64))
    return np.exp(-z**2 / 2.0) / _SQRT_2PI


def expected_improvement(mu: np.ndarray | float, sigma: np.ndarray | float,
                         y_min: float, xi: float = 0.05) -> np.ndarray | float:
    """Closed-form EI for minimisation (vectorised over ``mu`` / ``sigma``)."""
    mu_array = np.asarray(mu, dtype=np.float64)
    sigma_array = np.asarray(sigma, dtype=np.float64)
    scalar_input = mu_array.ndim == 0
    mu_array = np.atleast_1d(mu_array)
    sigma_array = np.atleast_1d(np.broadcast_to(sigma_array, mu_array.shape).copy())

    improvement = y_min - mu_array - xi
    values = np.maximum(improvement, 0.0)
    positive_sigma = sigma_array > _SIGMA_FLOOR
    if np.any(positive_sigma):
        z = improvement[positive_sigma] / sigma_array[positive_sigma]
        values[positive_sigma] = (improvement[positive_sigma] * ndtr(z)
                                  + sigma_array[positive_sigma] * _norm_pdf(z))
    values = np.maximum(values, 0.0)
    return float(values[0]) if scalar_input else values


def expected_improvement_gradients(mu: np.ndarray | float,
                                   sigma: np.ndarray | float, y_min: float,
                                   xi: float = 0.05):
    """Partial derivatives ``(dEI/dmu, dEI/dsigma)`` (vectorised over
    ``mu`` / ``sigma``; a pair of floats for scalar input).

    Using ``z = (y_min - mu - xi) / sigma``:
    ``dEI/dmu = -Phi(z)`` and ``dEI/dsigma = phi(z)`` (the cross terms cancel).
    For a degenerate ``sigma`` the sub-gradient of the positive-part function
    is returned.  Every entry is computed on its own, so a vector's entries
    are the scalar results bit for bit.
    """
    mu_array = np.asarray(mu, dtype=np.float64)
    sigma_array = np.asarray(sigma, dtype=np.float64)
    scalar_input = mu_array.ndim == 0
    mu_array = np.atleast_1d(mu_array)
    sigma_array = np.broadcast_to(sigma_array, mu_array.shape)

    improvement = y_min - mu_array - xi
    degenerate = sigma_array <= _SIGMA_FLOOR
    z = improvement / np.where(degenerate, 1.0, sigma_array)
    d_mu = np.where(degenerate, np.where(improvement > 0, -1.0, 0.0), -ndtr(z))
    d_sigma = np.where(degenerate, 0.0, _norm_pdf(z))
    if scalar_input:
        return float(d_mu[0]), float(d_sigma[0])
    return d_mu, d_sigma


@dataclass(frozen=True)
class ExpectedImprovement:
    """EI acquisition bound to a particular ``y_min`` and exploration ``xi``.

    The paper evaluates two settings: a balanced search with ``xi = 0.05`` and
    an exploration-heavy search with ``xi = 1.0``.
    """

    y_min: float
    xi: float = 0.05

    def __post_init__(self) -> None:
        if not np.isfinite(self.y_min):
            raise AcquisitionError(f"y_min must be finite, got {self.y_min}")
        if self.xi < 0:
            raise AcquisitionError(f"xi must be non-negative, got {self.xi}")

    def value(self, mu: np.ndarray | float, sigma: np.ndarray | float):
        """EI value(s) for predicted mean(s) and uncertainty(ies)."""
        return expected_improvement(mu, sigma, self.y_min, self.xi)

    def gradients(self, mu: np.ndarray | float, sigma: np.ndarray | float):
        """``(dEI/dmu, dEI/dsigma)`` at predicted mean(s) and
        uncertainty(ies)."""
        return expected_improvement_gradients(mu, sigma, self.y_min, self.xi)

    def describe(self) -> str:
        """Label used in experiment reports (matches the paper's wording)."""
        if self.xi <= 0.1:
            flavour = "balanced"
        else:
            flavour = "exploration"
        return f"EI(xi={self.xi:g}, y_min={self.y_min:.4f}) [{flavour}]"
