"""Search baseline: the paper's coarse grid.

Grid search over the 4x4x4 parameter grid (64 evaluations per solver) is the
"conventional method" of the paper's comparison; the BO framework is expected
to beat it using half the budget (32 evaluations).  Uniform random search
with the same budget is :func:`repro.mcmc.parameters.sample_parameters`.
"""

from __future__ import annotations

from typing import Sequence

from repro.mcmc.parameters import (
    PAPER_ALPHA_GRID,
    PAPER_DELTA_GRID,
    PAPER_EPS_GRID,
    MCMCParameters,
    paper_parameter_grid,
)

__all__ = ["grid_search_candidates"]


def grid_search_candidates(*, solver: str = "gmres",
                           alphas: Sequence[float] = PAPER_ALPHA_GRID,
                           epss: Sequence[float] = PAPER_EPS_GRID,
                           deltas: Sequence[float] = PAPER_DELTA_GRID
                           ) -> list[MCMCParameters]:
    """The paper's coarse grid for a single solver (64 points by default)."""
    return paper_parameter_grid((solver,), alphas=alphas, epss=epss, deltas=deltas)
