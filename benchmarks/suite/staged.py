"""A solve request replayed as a staged pipeline of public calls.

The traced pass cannot put spans inside :class:`repro.server.SolveServer`
(the benchmark touches nothing under ``src/``), so it re-runs each request
through the same public functions in the scheduler's order — wire decode,
fingerprint, policy decision, preconditioner build or cache hit, multi-rhs
solve, wire encode — with one span around each.  The replay is only a valid
account of the served request if it does the same arithmetic, which is
checked by the caller: every replayed request must reproduce the iteration
count the server returned.
"""

from __future__ import annotations

import json
from contextlib import nullcontext

import numpy as np

from repro.api.schemas import PolicyProvenance, SolveRequestV1, SolveResponseV1
from repro.core.evaluation import SolverSettings
from repro.krylov.solve import solve_many
from repro.matrices.registry import get_matrix
from repro.mcmc.preconditioner import MCMCPreconditioner
from repro.mcmc.walks import TransitionTable
from repro.obs.phases import record_phases
from repro.precond.factory import make_preconditioner
from repro.server.policy import PreconditionerPolicy
from repro.sparse.csr import validate_square
from repro.sparse.fingerprint import matrix_fingerprint
from repro.sparse.splitting import jacobi_splitting

from .trace import SpanRecorder

__all__ = ["StagedPipeline", "fingerprint_seed"]


def fingerprint_seed(fingerprint: str) -> int:
    """The scheduler's documented MCMC build seed: a function of the matrix
    identity alone, so batched and synchronous serving share one build."""
    return int(fingerprint[:8], 16) % (2 ** 31 - 1)


class StagedPipeline:
    """Serve requests one at a time from public calls, a span around each.

    ``wire=True`` adds the JSON encode/decode of request and response that
    the HTTP transports pay; ``wire=False`` is the in-process path.  Built
    preconditioners are kept per ``PolicyDecision.cache_key`` exactly like
    the server's artifact cache, so a warm replay builds nothing.
    """

    def __init__(self, recorder: SpanRecorder, *, wire: bool) -> None:
        self.recorder = recorder
        self.wire = wire
        self.policy = PreconditionerPolicy(None)
        self._built: dict[tuple, tuple] = {}
        self._registry: dict[str, object] = {}

    def serve(self, request: SolveRequestV1, request_id: str) -> int:
        """Replay one request; returns its Krylov iteration count."""
        rec = self.recorder
        with rec.span("request", request=request_id):
            if self.wire:
                with rec.span("api.request_encode"):
                    body = json.dumps(request.to_json_dict())
                rec.count("api.request_bytes", len(body))
                with rec.span("api.request_decode"):
                    request = SolveRequestV1.from_json_dict(json.loads(body))
            if isinstance(request.matrix, str):
                name = request.matrix
                if name not in self._registry:
                    self._registry[name] = get_matrix(name)
                matrix = self._registry[name]
            else:
                matrix = validate_square(request.matrix)
            with rec.span("sparse.fingerprint"):
                fingerprint = matrix_fingerprint(matrix)
            with rec.span("server.policy_decide"):
                decision = self.policy.decide(
                    matrix, fingerprint, solver=request.solver,
                    preconditioner=request.preconditioner)
            key = decision.cache_key(fingerprint)
            if key not in self._built:
                self._built[key] = self._build(matrix, fingerprint, decision)
            preconditioner = self._built[key]
            n = matrix.shape[0]
            rhs = (np.ones(n) if request.rhs is None
                   else np.asarray(request.rhs, dtype=np.float64).ravel())
            kwargs = SolverSettings(
                rtol=float(request.rtol), maxiter=int(request.maxiter),
            ).solver_kwargs(decision.solver, n)
            # The solvers' phase timers cost about a tenth of a warm solve,
            # so like the spans they only run in the traced pass.
            with rec.span("krylov.solve"):
                with (record_phases() if rec.enabled
                      else nullcontext()) as phases:
                    result, = solve_many(
                        matrix, [rhs], solver=decision.solver,
                        preconditioner=preconditioner, mode="loop", **kwargs)
            rec.count("krylov.iterations", result.iterations)
            rec.count("krylov.matvecs", result.matvecs)
            if phases is not None:
                for phase, seconds in phases.as_dict().items():
                    rec.count(f"krylov.{phase}_ms", seconds * 1e3)
            if self.wire:
                response = SolveResponseV1(
                    tag=request.tag, job_id=0, fingerprint=fingerprint,
                    solution=result.solution, converged=result.converged,
                    iterations=result.iterations,
                    final_residual=result.final_residual,
                    solver=decision.solver,
                    provenance=PolicyProvenance.from_decision(
                        decision, decision.family),
                    batch_size=1, batch_mode="loop", trace_id=None)
                with rec.span("api.response_encode"):
                    body = json.dumps(response.to_json_dict())
                with rec.span("api.response_decode"):
                    SolveResponseV1.from_json_dict(json.loads(body))
        return int(result.iterations)

    def _build(self, matrix, fingerprint: str, decision):
        rec = self.recorder
        if decision.family != "mcmc":
            with rec.span(f"precond.build.{decision.family}"):
                return make_preconditioner(decision.family, matrix,
                                           **dict(decision.params))
        parameters = decision.mcmc_parameters()
        with rec.span("mcmc.build"):
            with rec.span("mcmc.table_build"):
                table = TransitionTable(jacobi_splitting(
                    matrix, parameters.alpha).iteration_matrix)
            built = MCMCPreconditioner(
                matrix, parameters, seed=fingerprint_seed(fingerprint),
                transition_table=table)
        count_mcmc_build(rec, built)
        return built


def count_mcmc_build(recorder: SpanRecorder, built: MCMCPreconditioner) -> None:
    """Record the exact work counts of one MCMC build from its report."""
    report = built.report
    recorder.count("mcmc.builds")
    recorder.count("mcmc.walks", report.statistics.n_walks)
    recorder.count("mcmc.total_steps", report.statistics.total_steps)
    recorder.count("mcmc.nnz_inverse", report.nnz_after_truncation)
