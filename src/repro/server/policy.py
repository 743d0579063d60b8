"""Automatic preconditioner selection for the solve server.

Callers of the server hand over a matrix and (optionally) nothing else; the
policy decides which preconditioner family to build, with which parameters,
and which Krylov solver to drive — recording *why* on every decision so each
response carries full provenance.

Decision ladder (first match wins).  Steps 2-4 are the stages of
:mod:`repro.service.ladder`, shared with the batch tuner and the offline
loop; the policy takes the first proposal of the first stage that answers:

1. **Explicit** — the request named a family (and/or solver); honour it.
2. **Stored reuse** — the :class:`~repro.service.store.ObservationStore`
   holds tuned MCMC observations for this exact matrix fingerprint; reuse
   the best-performing parameter vector (among the records of the
   request's solver, when it names one).
3. **Surrogate** — an online-trained surrogate model
   (:class:`~repro.learn.policy.SurrogatePolicy`, opt-in via ``--learn``)
   proposes MCMC parameters by maximising Expected Improvement; decisions
   carry the model version in their provenance.  The stage declines (model
   not ready, low confidence, proposal error) by returning ``None`` and the
   ladder continues unchanged.
4. **Warm start** — the store has never seen this matrix but knows others;
   the nearest registered neighbour in standardised
   :func:`~repro.matrices.features.feature_vector` space donates its best
   parameters.
5. **Rule table** — cold start from
   :func:`~repro.matrices.features.structural_flags`:

   ========================  ==========================  =========
   structure                 family                      solver
   ========================  ==========================  =========
   SPD-like                  IC(0)                       CG
   strongly diag. dominant   Jacobi                      GMRES
   diag. dominant            Neumann series              GMRES
   usable diagonal           ILU(0)                      GMRES
   weak diagonal             MCMC (paper defaults)       GMRES
   zero/partial diagonal     SPAI                        GMRES
   ========================  ==========================  =========

Determinism
-----------
The policy works from a **snapshot** of the store taken at construction (or
at an explicit :meth:`refresh`).  Records written *while serving* therefore
never change in-flight decisions — this is what makes a seeded request
stream produce bit-identical answers whether requests are served one by one
or batched by the scheduler, regardless of completion order.  Long-running
servers call :meth:`refresh` between traffic waves to pick up what serving
has learned.
"""

from __future__ import annotations

from dataclasses import dataclass

import scipy.sparse as sp

from repro.matrices.features import structural_flags
from repro.mcmc.parameters import DEFAULT_BOUNDS, MCMCParameters, ParameterBounds
from repro.api.errors import AdmissionError, REJECT_INVALID
from repro.precond.factory import KNOWN_FAMILIES
from repro.service import ladder
from repro.service.ladder import ORIGIN_EXPLICIT, ORIGIN_RULE
from repro.service.store import ObservationStore

__all__ = ["PolicyDecision", "PreconditionerPolicy"]

#: Dominance (median |a_ii| / off-diagonal row mass) above which plain
#: Jacobi scaling is already an excellent preconditioner.
STRONG_DOMINANCE = 2.0

#: Dominance below which ILU(0) pivots are considered too fragile and the
#: policy prefers the stochastic (MCMC) inverse instead — the regime the
#: paper positions MCMCMI for.
FRAGILE_DOMINANCE = 0.5

#: Cold-start MCMC parameters: the centre of the paper's training grid.
DEFAULT_MCMC_PARAMETERS = MCMCParameters(alpha=2.0, eps=0.25, delta=0.25)


@dataclass(frozen=True)
class PolicyDecision:
    """One preconditioning decision, hashable so it can key the artifact cache.

    ``params`` is a sorted tuple of ``(name, value)`` pairs — the exact
    keyword arguments the scheduler passes to
    :func:`repro.precond.factory.make_preconditioner` (for the ``mcmc``
    family: ``alpha``, ``eps``, ``delta``, turned back into
    :class:`MCMCParameters` at build time).
    """

    family: str
    solver: str
    params: tuple[tuple[str, float | int | str], ...]
    origin: str
    rule: str = ""
    neighbour_name: str | None = None
    neighbour_distance: float | None = None
    model_version: str | None = None

    def cache_key(self, fingerprint: str) -> tuple:
        """Key of the built preconditioner in the shared artifact cache.

        Deliberately excludes provenance (origin / rule / neighbour): two
        decisions that build the same operator share one artifact.
        """
        return ("server_precond", fingerprint, self.family, self.params)

    def mcmc_parameters(self) -> MCMCParameters:
        """The ``params`` tuple as :class:`MCMCParameters` (mcmc family only)."""
        values = dict(self.params)
        return MCMCParameters(alpha=float(values["alpha"]),
                              eps=float(values["eps"]),
                              delta=float(values["delta"]),
                              solver=self.solver)


def _mcmc_params_tuple(parameters: MCMCParameters
                       ) -> tuple[tuple[str, float], ...]:
    return (("alpha", float(parameters.alpha)),
            ("delta", float(parameters.delta)),
            ("eps", float(parameters.eps)))


class PreconditionerPolicy:
    """Chooses a preconditioner family + parameters + solver per matrix.

    Parameters
    ----------
    store:
        Optional observation store consulted (via a snapshot, see the module
        docstring) for stored-reuse and warm-start decisions.
    bounds:
        Parameter box warm-started MCMC parameters are clipped into.
    surrogate:
        Optional :class:`~repro.learn.policy.SurrogatePolicy` (any object
        with a compatible ``propose``) consulted between stored reuse and
        warm start.  ``None`` (the default) keeps the ladder — and serving —
        exactly as without online learning.
    """

    def __init__(self, store: ObservationStore | None = None, *,
                 bounds: ParameterBounds = DEFAULT_BOUNDS,
                 surrogate=None) -> None:
        self.store = store
        self.bounds = bounds
        self.surrogate = surrogate
        self._snapshot = ladder.StoreSnapshot()
        self.refresh()

    def refresh(self) -> None:
        """Re-snapshot the store (new records become visible to decisions)."""
        if self.store is not None:
            self.store.reload()
            self._snapshot = ladder.StoreSnapshot(self.store)

    # -- the decision ladder ------------------------------------------------
    def decide(self, matrix: sp.spmatrix, fingerprint: str, *,
               solver: str | None = None,
               preconditioner: str | None = None) -> PolicyDecision:
        """Decide family / parameters / solver for one matrix.

        ``solver`` and ``preconditioner`` are the request's explicit choices
        (``None`` or ``"auto"`` delegate to the policy).
        """
        family = None if preconditioner in (None, "auto") else \
            preconditioner.strip().lower()
        if family is not None and family not in KNOWN_FAMILIES:
            raise AdmissionError(
                REJECT_INVALID,
                f"unknown preconditioner family {preconditioner!r}; "
                f"expected one of {KNOWN_FAMILIES}")

        snapshot = self._snapshot
        if family is not None:
            params: tuple = ()
            if family == "mcmc":
                tuned = next(
                    ladder.stored(snapshot, fingerprint, solver=solver), None)
                params = _mcmc_params_tuple(
                    tuned.parameters if tuned is not None
                    else DEFAULT_MCMC_PARAMETERS)
            return PolicyDecision(
                family=family, solver=solver or "gmres", params=params,
                origin=ORIGIN_EXPLICIT)

        proposal = next(
            ladder.stored(snapshot, fingerprint, solver=solver), None)
        if proposal is None and self.surrogate is not None:
            proposal = self.surrogate.propose(
                matrix, fingerprint, solver=solver,
                matrix_name=snapshot.names.get(fingerprint))
        if proposal is None:
            proposal = next(ladder.warm_start(
                snapshot, matrix, fingerprint, bounds=self.bounds), None)
        if proposal is None:
            return self._rule_decision(matrix, solver)
        return PolicyDecision(
            family="mcmc",
            solver=solver or proposal.parameters.solver,
            params=_mcmc_params_tuple(proposal.parameters),
            origin=proposal.origin,
            neighbour_name=proposal.neighbour_name,
            neighbour_distance=proposal.neighbour_distance,
            model_version=proposal.model_version)

    def _rule_decision(self, matrix: sp.spmatrix,
                       solver: str | None) -> PolicyDecision:
        flags = structural_flags(matrix)
        if flags["spd_like"]:
            return PolicyDecision(
                family="ic0", solver=solver or "cg", params=(),
                origin=ORIGIN_RULE, rule="spd")
        if flags["diag_dominant"]:
            if flags["dominance"] >= STRONG_DOMINANCE:
                return PolicyDecision(
                    family="jacobi", solver=solver or "gmres", params=(),
                    origin=ORIGIN_RULE, rule="strong_diagonal_dominance")
            return PolicyDecision(
                family="neumann", solver=solver or "gmres",
                params=(("terms", 4),),
                origin=ORIGIN_RULE, rule="diagonal_dominance")
        if flags["nonzero_diagonal"]:
            if flags["dominance"] >= FRAGILE_DOMINANCE:
                return PolicyDecision(
                    family="ilu0", solver=solver or "gmres", params=(),
                    origin=ORIGIN_RULE, rule="general")
            return PolicyDecision(
                family="mcmc", solver=solver or "gmres",
                params=_mcmc_params_tuple(DEFAULT_MCMC_PARAMETERS),
                origin=ORIGIN_RULE, rule="fragile_pivots")
        # No usable diagonal: every splitting-based family is out; the
        # pattern-based sparse approximate inverse still applies.
        return PolicyDecision(
            family="spai", solver=solver or "gmres", params=(),
            origin=ORIGIN_RULE, rule="zero_diagonal")
