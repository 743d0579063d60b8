"""Cheap matrix features ``x_A`` for the surrogate model.

Section 3.1 of the paper augments the graph representation with inexpensive
matrix features "such as the norms, sparsity and symmetricity".  This module
computes a fixed-order feature vector; standardisation (zero mean / unit
variance across the training set) is applied later by the dataset layer so the
raw values here stay interpretable.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.sparse.csr import (
    ensure_csr,
    fill_factor,
    is_symmetric,
    nnz_per_row,
    row_sums_abs,
    sparsity,
    symmetricity_score,
    validate_square,
)
from repro.sparse.norms import norm_1, norm_fro, norm_inf

__all__ = ["matrix_features", "feature_names", "feature_vector",
           "structural_flags", "nearest_feature_neighbour"]

_FEATURE_NAMES: tuple[str, ...] = (
    "log_dimension",
    "log_nnz",
    "fill_factor",
    "sparsity",
    "symmetricity",
    "log_norm_1",
    "log_norm_inf",
    "log_norm_fro",
    "diag_dominance",
    "mean_degree",
    "max_degree",
    "degree_cv",
    "diag_sign_fraction",
    "bandwidth_fraction",
)


def feature_names() -> tuple[str, ...]:
    """Ordered names of the entries returned by :func:`feature_vector`."""
    return _FEATURE_NAMES


def _diagonal_dominance(csr: sp.csr_matrix) -> float:
    """Median of ``|a_ii| / sum_{j != i} |a_ij|``, clipped to ``[0, 1e3]``.

    Rows without off-diagonal mass are perfectly dominant (``inf`` before the
    clip), so a diagonal matrix scores the maximum.
    """
    diag = csr.diagonal()
    off_diag_mass = row_sums_abs(csr) - np.abs(diag)
    with np.errstate(divide="ignore", invalid="ignore"):
        dominance = np.where(off_diag_mass > 0,
                             np.abs(diag) / off_diag_mass, np.inf)
    if dominance.size == 0:
        return 0.0
    return float(np.clip(np.median(dominance), 0.0, 1e3))


def structural_flags(matrix: sp.spmatrix) -> dict[str, bool | float]:
    """Cheap structural predicates consumed by the solve-server policy.

    Unlike :func:`matrix_features` (continuous values for the surrogate),
    these are the boolean questions a preconditioner rule table asks: is the
    matrix plausibly SPD, is its diagonal usable for Jacobi-type splittings,
    how diagonally dominant is it.  ``spd_like`` is a structural proxy
    (symmetric with a strictly positive diagonal) — a full definiteness check
    would cost a factorisation, which the policy must avoid.
    """
    csr = validate_square(ensure_csr(matrix))
    diag = csr.diagonal()
    n = csr.shape[0]
    symmetric = bool(is_symmetric(csr))
    positive_diagonal = bool(n > 0 and np.all(diag > 0.0))
    nonzero_diagonal = bool(n > 0 and np.all(diag != 0.0))
    dominance = _diagonal_dominance(csr)
    return {
        "symmetric": symmetric,
        "positive_diagonal": positive_diagonal,
        "nonzero_diagonal": nonzero_diagonal,
        "spd_like": symmetric and positive_diagonal,
        "diag_dominant": nonzero_diagonal and dominance >= 1.0,
        "dominance": dominance,
    }


def matrix_features(matrix: sp.spmatrix) -> dict[str, float]:
    """Compute the cheap features of ``A`` as a name -> value mapping.

    All features cost at most one pass over the non-zeros; no factorisation or
    eigenvalue computation is involved, in line with the paper's requirement
    that ``x_A`` stays inexpensive relative to a solver run.
    """
    csr = validate_square(matrix)
    n = csr.shape[0]
    degrees = nnz_per_row(csr).astype(np.float64)
    diag = csr.diagonal()
    dominance_feature = _diagonal_dominance(csr)

    coo = csr.tocoo()
    bandwidth = int(np.abs(coo.row - coo.col).max()) if csr.nnz else 0

    mean_degree = float(degrees.mean()) if n else 0.0
    degree_std = float(degrees.std()) if n else 0.0
    features = {
        "log_dimension": float(np.log10(max(n, 1))),
        "log_nnz": float(np.log10(max(csr.nnz, 1))),
        "fill_factor": fill_factor(csr),
        "sparsity": sparsity(csr),
        "symmetricity": symmetricity_score(csr),
        "log_norm_1": float(np.log10(max(norm_1(csr), 1e-300))),
        "log_norm_inf": float(np.log10(max(norm_inf(csr), 1e-300))),
        "log_norm_fro": float(np.log10(max(norm_fro(csr), 1e-300))),
        "diag_dominance": dominance_feature,
        "mean_degree": mean_degree,
        "max_degree": float(degrees.max()) if n else 0.0,
        "degree_cv": degree_std / mean_degree if mean_degree > 0 else 0.0,
        "diag_sign_fraction": float(np.mean(diag > 0)) if n else 0.0,
        "bandwidth_fraction": bandwidth / max(n - 1, 1),
    }
    return features


def feature_vector(matrix: sp.spmatrix) -> np.ndarray:
    """Feature vector in the fixed order given by :func:`feature_names`."""
    features = matrix_features(ensure_csr(matrix))
    return np.array([features[name] for name in _FEATURE_NAMES], dtype=np.float64)


def nearest_feature_neighbour(candidates: list[np.ndarray],
                              target: np.ndarray) -> tuple[int, float] | None:
    """Index and distance of the candidate closest to ``target``.

    Features are standardised (zero mean / unit variance, computed over the
    candidates plus the target) before the Euclidean distance so no single
    large-scale feature (e.g. ``max_degree``) dominates.  This is the one
    warm-start convention: the ladder's ``warm_start`` stage ranks the
    store's matrices with it.

    Columns that are constant (zero variance — a degenerate store where every
    matrix shares a feature value) or that contain non-finite entries carry no
    ranking information and would otherwise poison the standardisation with
    ``0/0`` or ``inf - inf``; they are excluded from the distance.

    Returns ``None`` when ``candidates`` is empty.
    """
    if not candidates:
        return None
    stack = np.stack([np.asarray(c, dtype=np.float64) for c in candidates]
                     + [np.asarray(target, dtype=np.float64)])
    informative = np.all(np.isfinite(stack), axis=0)
    stack = np.where(informative, stack, 0.0)
    scale = stack.std(axis=0)
    degenerate = ~informative | ~np.isfinite(scale) | (scale < 1e-12)
    scale[degenerate] = 1.0
    normalised = (stack - stack.mean(axis=0)) / scale
    normalised[:, degenerate] = 0.0
    distances = np.linalg.norm(normalised[:-1] - normalised[-1], axis=1)
    best = int(np.argmin(distances))
    return best, float(distances[best])
