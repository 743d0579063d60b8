"""Exception hierarchy for the :mod:`repro` package.

All library-specific errors derive from :class:`ReproError` so that callers can
catch everything raised by the package with a single ``except`` clause while
still being able to discriminate individual failure modes.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class of every exception raised by :mod:`repro`."""


class MatrixFormatError(ReproError):
    """A matrix did not satisfy the structural requirements of an algorithm.

    Raised, for instance, when a non-square matrix is passed to a solver or
    when a matrix contains an explicit zero diagonal entry where the Jacobi
    splitting requires a non-zero one.
    """


class ParameterError(ReproError):
    """An algorithmic parameter was outside its admissible range."""


class SpectralRadiusError(ReproError):
    """The Neumann-series iteration matrix has spectral radius >= 1.

    The Ulam--von Neumann estimator only converges when the iteration matrix
    obtained from the (perturbed) Jacobi splitting is a contraction.  This
    exception signals that a larger ``alpha`` perturbation is required.
    """

    def __init__(self, message: str, spectral_radius: float | None = None) -> None:
        super().__init__(message)
        self.spectral_radius = spectral_radius


class PreconditionerError(ReproError):
    """Construction or application of a preconditioner failed."""


class AutodiffError(ReproError):
    """Invalid operation on the reverse-mode autodiff tape."""


class GradcheckError(AutodiffError):
    """An analytic gradient disagrees with its finite-difference estimate."""


class GraphConstructionError(ReproError):
    """A graph could not be constructed from the given sparse matrix."""


class SurrogateError(ReproError):
    """Surrogate-model specific failure (shape mismatch, missing training...)."""


class AcquisitionError(ReproError):
    """Acquisition-function optimisation failed."""


class DatasetError(ReproError):
    """Dataset construction / splitting errors."""


class SearchSpaceError(ReproError):
    """Invalid hyper-parameter search-space specification."""


class ExperimentError(ReproError):
    """An experiment driver received an invalid configuration."""


class LearnError(ReproError):
    """Online-learning subsystem failure (registry, trainer, policy)."""
