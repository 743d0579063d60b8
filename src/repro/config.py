"""Global configuration helpers.

The library is deterministic by construction: every stochastic component
(MCMC walks, neural-network initialisation, dropout, Bayesian-optimisation
restarts, dataset shuffling) accepts either an integer seed or a
:class:`numpy.random.Generator`.  :func:`default_rng` centralises the
conversion so that the convention is identical across the code base.

Experiment scale is controlled by a *profile* (``smoke`` or ``paper``) that can
be selected programmatically or through the ``REPRO_PROFILE`` environment
variable; see :mod:`repro.experiments.pipeline`.
"""

from __future__ import annotations

import os

import numpy as np

#: Environment variable used by the benchmark harness to pick a profile.
PROFILE_ENV_VAR = "REPRO_PROFILE"

#: Known experiment profiles, ordered from cheapest to most faithful.
KNOWN_PROFILES = ("smoke", "paper")


def default_rng(seed: int | np.random.Generator | None = None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` for ``seed``.

    Parameters
    ----------
    seed:
        ``None`` (fresh entropy), an integer seed, or an existing generator
        which is returned unchanged.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def active_profile(default: str = "smoke") -> str:
    """Return the experiment profile selected via ``REPRO_PROFILE``.

    Unknown values fall back to ``default`` rather than raising so that a
    mistyped environment variable never breaks a benchmark run.
    """
    value = os.environ.get(PROFILE_ENV_VAR, default).strip().lower()
    if value not in KNOWN_PROFILES:
        return default
    return value

