"""Fingerprint-batched execution of admitted solve jobs.

The economics of the serving layer: concurrent requests over the *same*
matrix should pay for the expensive per-matrix work — preconditioner
assembly, MCMC transition tables — exactly once.  The scheduler therefore
groups the jobs of a batch by ``(matrix fingerprint, requested solver,
requested preconditioner, rtol, maxiter)``:

* one **policy decision** per group (see
  :class:`~repro.server.policy.PreconditionerPolicy`),
* one **preconditioner build** per group, shared process-wide through the
  :class:`~repro.service.cache.ArtifactCache` under
  :meth:`PolicyDecision.cache_key` — a later batch (or a synchronous call)
  over the same matrix is a cache hit, not a rebuild,
* one **multi-rhs solve** (:func:`repro.krylov.solve_many`) over the group's
  stacked right-hand sides.

Groups run one after another; a group that raises fails its own jobs while
every other group still completes.

Determinism
-----------
Every response is a deterministic function of its request alone: the policy
decides from a store snapshot, shared builds are seeded from the matrix
fingerprint (never from request seeds or arrival order), and — in the
default ``batch_mode="loop"`` — the multi-rhs solve is arithmetically
identical to independent single-rhs solves.  Serving a seeded request stream
synchronously or through the queue therefore yields bit-identical solutions.

``batch_mode="block"``/``"auto"`` opt a group into the block-Krylov path
(:mod:`repro.krylov.block`): one shared subspace for the whole batch, far
fewer total matvecs, answers that agree with the loop path to the solve
tolerance but depend on which requests were batched together.  The mode
actually used is recorded on every response (``batch_mode`` provenance) and
in the ``solve.block_used`` / ``solve.deflated_columns`` /
``solve.matvecs_total`` telemetry.

When an :class:`~repro.service.store.ObservationStore` is attached, MCMC
solves additionally measure the unpreconditioned baseline (cached per
``(fingerprint, solver, regime)``) and persist a
:class:`~repro.core.evaluation.PerformanceRecord` — online traffic keeps
making the tuning layer's future recommendations cheaper.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from repro.api.schemas import PolicyProvenance, SolveResponseV1
from repro.core.evaluation import (
    PerformanceRecord,
    SolverSettings,
    measurement_regime,
)
from repro.exceptions import ParameterError, PreconditionerError
from repro.krylov.block import BLOCK_SOLVERS, block_summary, total_matvecs
from repro.krylov.solve import BATCH_MODES, solve, solve_many
from repro.logging_utils import get_logger
from repro.matrices.features import feature_vector
from repro.matrices.registry import get_matrix
from repro.mcmc.preconditioner import MCMCPreconditioner
from repro.mcmc.walks import TransitionTable
from repro.obs.metrics import MetricsRegistry
from repro.obs.phases import record_phases
from repro.obs.trace import NULL_TRACER
from repro.precond.factory import make_preconditioner
from repro.server.policy import PolicyDecision, PreconditionerPolicy
from repro.server.queue import Job
from repro.service.cache import ArtifactCache, transition_table_key
from repro.service.store import ObservationStore
from repro.sparse.csr import validate_square
from repro.sparse.fingerprint import matrix_fingerprint
from repro.sparse.splitting import jacobi_splitting

__all__ = ["Scheduler", "end_job_trace"]

_LOG = get_logger("server.scheduler")


def end_job_trace(tracer, job: Job, **attributes) -> None:
    """Close a job's request root span exactly once (no-op when untraced).

    The root span is detached from the job before ending so the scheduler's
    completion path and the server's failure-fallback path cannot both
    record it.
    """
    root = job.root_span
    if root is None:
        return
    job.root_span = None
    tracer.end(root, **attributes)


@dataclass
class _Group:
    """Jobs sharing (fingerprint, solver, preconditioner, rtol, maxiter,
    batch mode)."""

    fingerprint: str
    matrix: sp.csr_matrix
    name: str
    solver: str | None
    preconditioner: str | None
    rtol: float
    maxiter: int
    batch_mode: str = "loop"
    jobs: list[Job] = field(default_factory=list)


def _fingerprint_seed(fingerprint: str) -> int:
    """Deterministic build seed derived from the matrix identity.

    Shared artifacts must not be seeded from request seeds: two requests
    batched together share one build, so the build may depend only on the
    matrix — this is what keeps batched and synchronous serving
    bit-identical.
    """
    return int(fingerprint[:8], 16) % (2 ** 31 - 1)


class Scheduler:
    """Executes job batches: group, decide, build once, multi-rhs solve.

    Parameters
    ----------
    policy:
        The preconditioner policy (auto-selection + provenance).
    cache:
        Shared artifact cache for preconditioners, transition tables,
        resolved registry matrices and baseline iteration counts.
    telemetry:
        Metrics registry fed by every execution.
    store:
        Optional observation store: MCMC solves are measured against the
        cached unpreconditioned baseline and persisted.
    batch_mode:
        Default multi-rhs execution mode of a group
        (:func:`repro.krylov.solve_many`'s ``mode``), overridable per
        request via :attr:`SolveRequestV1.batch_mode`.  ``"loop"`` (the
        default) keeps batched serving bit-identical to synchronous
        serving; ``"block"``/``"auto"`` share one Krylov subspace across a
        group — far fewer matvecs, answers identical to the solve
        tolerance rather than to the bit.  Requests demanding block mode
        for a solver without a block implementation are served through the
        loop path (recorded in the ``solve.block_unsupported`` counter).
    matrix_bank:
        Optional :class:`~repro.learn.trainer.MatrixBank` (anything with a
        ``put(name, matrix)``): every matrix that produces a store record
        is banked under the record's ``matrix_name`` so the online trainer
        can rebuild graphs for non-registry matrices.  ``None`` when
        learning is off — the scheduler never imports :mod:`repro.learn`.
    shadow_eval:
        When ``True`` (the ``--learn`` serving mode), every loop-served
        solve feeds the ``policy.regret`` histogram, labelled by decision
        origin: the iteration excess over the best count any policy stage
        has achieved for the same ``(fingerprint, solver, rtol, maxiter)``
        slot.  A surrogate that beats the incumbent records zero regret
        *and* lowers the bar for the rule/warm-start stages it shadows.
    """

    def __init__(self, *, policy: PreconditionerPolicy, cache: ArtifactCache,
                 telemetry: MetricsRegistry | None = None,
                 store: ObservationStore | None = None,
                 record_observations: bool = True,
                 batch_mode: str = "loop",
                 tracer=None,
                 matrix_bank=None,
                 shadow_eval: bool = False) -> None:
        self.policy = policy
        self.cache = cache
        self.telemetry = telemetry if telemetry is not None else MetricsRegistry()
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.store = store
        self.record_observations = record_observations
        if batch_mode not in BATCH_MODES:
            raise ParameterError(
                f"unknown batch_mode {batch_mode!r}; "
                f"expected one of {BATCH_MODES}")
        self.batch_mode = batch_mode
        self.matrix_bank = matrix_bank
        self.shadow_eval = bool(shadow_eval)
        self._incumbent_iterations: dict[tuple, int] = {}
        self._shadow_lock = threading.Lock()

    # -- batch execution ----------------------------------------------------
    def execute(self, jobs: list[Job]) -> None:
        """Run a batch of jobs to completion, finishing every job.

        Jobs whose group fails (unresolvable matrix, solver error) finish
        with that exception; the remaining groups are unaffected.
        """
        if not jobs:
            return
        groups = self._group(jobs)
        self.telemetry.histogram("scheduler.groups_per_batch").observe(len(groups))
        for group in groups:
            try:
                self._run_group(group)
            except Exception as error:  # noqa: BLE001 - surfaced on the jobs
                _LOG.warning("group %s failed: %s", group.fingerprint[:8], error)
                for job in group.jobs:
                    if not job.done():
                        self.telemetry.counter("jobs_failed").add(1)
                        job._finish(error=error)
                    end_job_trace(self.tracer, job, outcome="error",
                                  error=str(error))

    def _group(self, jobs: list[Job]) -> list[_Group]:
        groups: dict[tuple, _Group] = {}
        for job in jobs:
            request = job.request
            try:
                matrix, name = self._resolve_matrix(request.matrix)
                fingerprint = self._fingerprint(matrix)
            except Exception as error:  # noqa: BLE001 - surfaced on the job
                self.telemetry.counter("jobs_failed").add(1)
                job._finish(error=error)
                end_job_trace(self.tracer, job, outcome="error",
                              error=str(error))
                continue
            batch_mode = (self.batch_mode if request.batch_mode is None
                          else str(request.batch_mode).strip().lower())
            key = (fingerprint, request.solver, request.preconditioner,
                   float(request.rtol), int(request.maxiter), batch_mode)
            if key not in groups:
                groups[key] = _Group(
                    fingerprint=fingerprint, matrix=matrix, name=name,
                    solver=request.solver,
                    preconditioner=request.preconditioner,
                    rtol=float(request.rtol), maxiter=int(request.maxiter),
                    batch_mode=batch_mode)
            groups[key].jobs.append(job)
        return list(groups.values())

    def _resolve_matrix(self, matrix: sp.spmatrix | str
                        ) -> tuple[sp.csr_matrix, str]:
        if isinstance(matrix, str):
            resolved = self.cache.get_or_build(
                ("registry_matrix", matrix), lambda: get_matrix(matrix))
            return resolved, matrix
        return validate_square(matrix), ""

    def _fingerprint(self, matrix: sp.csr_matrix) -> str:
        # id()-keyed memo would be unsound across gc; fingerprinting is one
        # pass over the non-zeros and stays far below a solve's cost.
        return matrix_fingerprint(matrix)

    # -- one group ----------------------------------------------------------
    def _run_group(self, group: _Group) -> None:
        tr = self.tracer
        start = time.perf_counter()
        # Group-shared spans (policy, preconditioner, solve) hang off the
        # first traced job's request root: a group exists because its jobs
        # share this work, so the leader's trace carries it once.  Each job
        # still gets its own queue-wait span under its own root.
        leader = next((job.root_span for job in group.jobs
                       if job.root_span is not None), None)
        if tr.enabled:
            for job in group.jobs:
                if (job.root_span is not None and job.submitted_at is not None
                        and job.started_at is not None):
                    tr.span_at("queue.wait", job.submitted_at, job.started_at,
                               parent=job.root_span, job_id=job.id)

        with tr.span("policy.decide", parent=leader,
                     fingerprint=group.fingerprint[:12]) as policy_span:
            decision = self.policy.decide(
                group.matrix, group.fingerprint,
                solver=group.solver, preconditioner=group.preconditioner)
            policy_span.set_attribute("family", decision.family)
            policy_span.set_attribute("solver", decision.solver)
            policy_span.set_attribute("origin", decision.origin)
            if decision.rule:
                policy_span.set_attribute("rule", decision.rule)
            if decision.neighbour_name is not None:
                policy_span.set_attribute("neighbour", decision.neighbour_name)
        preconditioner, built_family = self._preconditioner(
            group, decision, parent=leader)
        settings = SolverSettings(rtol=group.rtol, maxiter=group.maxiter)
        kwargs = settings.solver_kwargs(decision.solver, group.matrix.shape[0])

        n = group.matrix.shape[0]
        columns = [np.ones(n) if job.request.rhs is None
                   else np.asarray(job.request.rhs, dtype=np.float64).ravel()
                   for job in group.jobs]
        call_mode = group.batch_mode
        if call_mode == "block" and decision.solver not in BLOCK_SOLVERS:
            # The policy (or the request) picked a solver without a block
            # implementation; serving must degrade to the loop path rather
            # than fail the whole group.
            self.telemetry.counter("solve.block_unsupported").add(1)
            call_mode = "loop"

        def run_solve():
            return solve_many(group.matrix, columns, solver=decision.solver,
                              preconditioner=preconditioner, mode=call_mode,
                              **kwargs)

        if tr.enabled:
            with tr.span("solve", parent=leader, solver=decision.solver,
                         mode=call_mode,
                         batch_size=len(group.jobs)) as solve_span:
                with record_phases() as recorder:
                    results = run_solve()
                # Group-shared span: every reason in the batch and the worst
                # true residual (each request's own pair closes its root).
                solve_span.set_attribute("termination", ",".join(sorted(
                    {result.termination for result in results})))
                solve_span.set_attribute("true_residual", float(np.max(
                    [result.true_residual for result in results])))
                # Per-phase wall time: on the span for this request's trace,
                # and aggregated per matrix fingerprint for fleet-level
                # "where does this matrix spend its time" queries.
                for phase, seconds in recorder.as_dict().items():
                    solve_span.set_attribute(f"phase.{phase}_ms",
                                             seconds * 1e3)
                    self.telemetry.histogram(
                        "solve.phase_ms", phase=phase,
                        fingerprint=group.fingerprint[:12]).observe(
                            seconds * 1e3)
        else:
            results = run_solve()
        elapsed_ms = (time.perf_counter() - start) * 1e3

        summary = block_summary(results)
        used_block = summary is not None
        batch_mode_used = "block" if used_block else "loop"
        if used_block:
            self.telemetry.counter("solve.block_used").add(1)
            self.telemetry.counter("solve.deflated_columns").add(
                summary.deflated_columns)
        self.telemetry.counter("solve.matvecs_total").add(
            total_matvecs(results))

        if self.shadow_eval and not used_block:
            # Block iteration counts are shared across the batch and not
            # comparable with single-rhs incumbents; only loop-served solves
            # feed the regret signal (mirrors the store-feedback gate below).
            self._record_regret(group, decision, [
                result.measured_iterations for result in results])

        provenance = PolicyProvenance.from_decision(decision, built_family)
        batch = len(group.jobs)
        self.telemetry.histogram("solve.batch_size").observe(batch)
        self.telemetry.counter("solve.completed", solver=decision.solver,
                               preconditioner=built_family,
                               batch_mode=batch_mode_used).add(batch)
        for job, column, result in zip(group.jobs, columns, results):
            response = SolveResponseV1(
                tag=job.request.tag,
                job_id=job.id,
                fingerprint=group.fingerprint,
                solution=result.solution,
                converged=result.converged,
                iterations=result.iterations,
                final_residual=result.final_residual,
                solver=decision.solver,
                provenance=provenance,
                batch_size=batch,
                batch_mode=batch_mode_used,
                trace_id=job.trace_id,
                termination=result.termination,
                true_residual=result.true_residual,
            )
            self.telemetry.counter("solves_total").add(1)
            self.telemetry.counter("solve.terminated",
                                   reason=result.termination).add(1)
            if not result.converged:
                self.telemetry.counter("solves_not_converged").add(1)
            self.telemetry.histogram("solve.iterations").observe(result.iterations)
            # Per-fingerprint iteration counts: what block-auto width
            # selection and the surrogate-policy loop consume.
            self.telemetry.histogram(
                "solve.iterations", solver=decision.solver,
                fingerprint=group.fingerprint[:12]).observe(result.iterations)
            # Every caller in the group waited for the whole group, so the
            # honest per-request latency is the full elapsed time; the
            # batching win shows up in the amortised-cost histogram.
            self.telemetry.histogram("solve.latency_ms").observe(elapsed_ms)
            self.telemetry.histogram(
                "solve.amortised_cost_ms").observe(elapsed_ms / batch)
            if not used_block:
                # Block iteration counts are shared across the batch and not
                # comparable with the single-rhs baseline the performance
                # metric divides by; only loop-served solves feed the store.
                self._record_observation(group, decision, built_family,
                                         settings, column,
                                         result.measured_iterations)
            job.finished_at = time.perf_counter()
            job._finish(result=response)
            end_job_trace(tr, job, outcome="ok", solver=decision.solver,
                          converged=bool(result.converged),
                          iterations=int(result.iterations),
                          termination=result.termination,
                          true_residual=result.true_residual)

    # -- preconditioner assembly (shared through the cache) ------------------
    def _preconditioner(self, group: _Group, decision: PolicyDecision,
                        parent=None):
        """The built preconditioner for this decision, building at most once.

        The cache entry stores ``(preconditioner, built_family)``;
        ``built_family`` differs from ``decision.family`` when construction
        broke down and the deterministic identity fallback was used.
        """
        self.telemetry.counter("precond.requests").add(1)
        tr = self.tracer
        build_ran = []

        def build():
            build_ran.append(True)
            self.telemetry.counter("precond.builds").add(1)
            # Child of the enclosing "preconditioner" span via the ambient
            # context (get_or_build runs the builder in the calling thread).
            with tr.span("precond.build", family=decision.family):
                try:
                    return self._build(group, decision), decision.family
                except PreconditionerError as error:
                    # Deterministic fallback: same decision -> same failure ->
                    # same identity operator, so cached and fresh paths agree.
                    self.telemetry.counter("precond.fallbacks").add(1)
                    _LOG.warning("%s build failed for %s (%s); "
                                 "falling back to identity",
                                 decision.family, group.fingerprint[:8], error)
                    return None, "none"

        with tr.span("preconditioner", parent=parent,
                     family=decision.family,
                     fingerprint=group.fingerprint[:12]) as span:
            preconditioner, built_family = self.cache.get_or_build(
                decision.cache_key(group.fingerprint), build)
            cache_hit = not build_ran
            span.set_attribute("cache_hit", cache_hit)
            span.set_attribute("built_family", built_family)
        self.telemetry.counter(
            "precond.cache", outcome="hit" if cache_hit else "miss").add(1)
        return preconditioner, built_family

    def _build(self, group: _Group, decision: PolicyDecision):
        if decision.family == "mcmc":
            parameters = decision.mcmc_parameters()
            table = self.cache.get_or_build(
                transition_table_key(group.fingerprint, parameters.alpha),
                lambda: TransitionTable(
                    jacobi_splitting(group.matrix,
                                     parameters.alpha).iteration_matrix))
            return MCMCPreconditioner(
                group.matrix, parameters,
                seed=_fingerprint_seed(group.fingerprint),
                transition_table=table)
        return make_preconditioner(decision.family, group.matrix,
                                   **dict(decision.params))

    # -- shadow evaluation (online-learning mode) ----------------------------
    def _record_regret(self, group: _Group, decision: PolicyDecision,
                       iteration_counts: list[int]) -> None:
        """Feed ``policy.regret{origin=...}`` against the running incumbent.

        The incumbent is the best iteration count *any* decision origin has
        achieved on this ``(fingerprint, solver, rtol, maxiter)`` slot since
        the server started; regret is the (clamped-at-zero) excess over it.
        A consistently-zero surrogate series against a positive rule series
        is the online win signal ``tests/test_learn_ab.py`` asserts offline.
        Counts are ``SolveResult.measured_iterations``, so a solve that did
        not converge weighs its whole budget and never lowers the incumbent.
        """
        key = (group.fingerprint, decision.solver, group.rtol, group.maxiter)
        with self._shadow_lock:
            incumbent = self._incumbent_iterations.get(key)
            for iterations in iteration_counts:
                regret = (0 if incumbent is None
                          else max(0, iterations - incumbent))
                incumbent = (iterations if incumbent is None
                             else min(incumbent, iterations))
                self.telemetry.histogram(
                    "policy.regret", origin=decision.origin).observe(regret)
            self._incumbent_iterations[key] = incumbent

    # -- store feedback ------------------------------------------------------
    def _record_observation(self, group: _Group, decision: PolicyDecision,
                            built_family: str, settings: SolverSettings,
                            rhs: np.ndarray, iterations: int) -> None:
        """Persist an MCMC solve as a performance record (store feedback).

        Only genuine MCMC builds are recorded — they are the observations
        the tuning layer consumes.  The unpreconditioned baseline is cached
        per ``(fingerprint, solver, regime)`` so a traffic wave pays for it
        once.  ``iterations`` is ``SolveResult.measured_iterations`` — what
        ``MatrixEvaluator`` would have stored for the same solve.
        """
        if (self.store is None or not self.record_observations
                or built_family != "mcmc"):
            return
        regime = measurement_regime(settings, rhs)
        baseline = self.cache.get_or_build(
            ("server_baseline", group.fingerprint, decision.solver, regime),
            lambda: self._baseline(group, decision.solver, settings, rhs))
        if not self.store.has_matrix(group.fingerprint):
            self.store.register_matrix(group.fingerprint,
                                       group.name or group.fingerprint[:12],
                                       feature_vector(group.matrix))
        if self.matrix_bank is not None:
            # Bank under the record's matrix_name so the trainer can resolve
            # graphs for matrices that are not in the registry.
            self.matrix_bank.put(group.name or group.fingerprint[:12],
                                 group.matrix)
        record = PerformanceRecord(
            parameters=decision.mcmc_parameters(),
            matrix_name=group.name or group.fingerprint[:12],
            baseline_iterations=baseline,
            preconditioned_iterations=[iterations],
            y_values=[iterations / baseline],
        )
        if self.store.put_record(group.fingerprint, record,
                                 context=f"{regime}:server"):
            self.telemetry.counter("store.records_written").add(1)

    def _baseline(self, group: _Group, solver: str,
                  settings: SolverSettings, rhs: np.ndarray) -> int:
        kwargs = settings.solver_kwargs(solver, group.matrix.shape[0])
        return solve(group.matrix, rhs, solver=solver,
                     **kwargs).measured_iterations
