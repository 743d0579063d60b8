"""The :class:`SolveServer` facade: submit / await / drain / shutdown.

This is the front door the rest of the stack (CLI, examples, benchmarks,
embedding applications) talks to.  It wires together the four server parts —
admission queue, fingerprint-batching scheduler, preconditioner policy and
telemetry — on top of the PR-2 service layer (artifact cache + observation
store).

Two serving modes, same arithmetic:

* **Synchronous** — :meth:`solve` executes the request immediately in the
  calling thread (through the same scheduler path, batch of one).
* **Queued** — :meth:`submit` admits the request and returns a
  :class:`~repro.server.queue.Job`; a background worker (started lazily, or
  explicitly with :meth:`start`) pops priority-ordered batches and executes
  them.  :meth:`drain` gracefully quiesces: admission pauses, everything
  admitted completes, admission re-opens.

Because policy decisions come from a store snapshot and shared builds are
seeded from matrix fingerprints, a seeded request stream produces
bit-identical solutions in either mode — batching is purely an efficiency
lever, never a semantic one: a batch shares the policy decision and the
preconditioner build, and each request is still its own single-rhs solve.
"""

from __future__ import annotations

import os
import threading
import time
import uuid
from contextlib import nullcontext

from repro.api.schemas import SolveRequestV1, SolveResponseV1
from repro.api.versioning import SCHEMA_VERSION, version_stamp
from repro.exceptions import ParameterError
from repro.logging_utils import get_logger
from repro.mcmc.parameters import DEFAULT_BOUNDS, ParameterBounds
from repro.obs.metrics import MetricsRegistry
from repro.obs.prometheus import render_prometheus
from repro.obs.trace import NULL_TRACER, current_trace_id, new_trace_id
from repro.server.policy import PreconditionerPolicy
from repro.server.queue import Job, JobQueue
from repro.server.scheduler import Scheduler, end_job_trace
from repro.service.cache import ArtifactCache, global_cache
from repro.service.store import ObservationStore

__all__ = ["SolveServer"]

_LOG = get_logger("server")


def _requested_names(request: SolveRequestV1) -> dict[str, str]:
    """The solver and family a request names (``"auto"``: the policy's)."""
    return {"solver": request.solver or "auto",
            "preconditioner": request.preconditioner or "auto"}


class SolveServer:
    """In-process solve service with admission control and batched scheduling.

    Every scheduling round pops everything pending, so same-fingerprint
    requests admitted together share one round.

    Parameters
    ----------
    store:
        Observation store (path or open store) for policy reuse and online
        feedback; ``None`` disables both.
    cache:
        Shared artifact cache; the process-wide cache when ``None``.
    max_queue_depth:
        Admission bound of the queue (backpressure threshold).
    bounds:
        Parameter box for warm-started MCMC parameters.
    background:
        When True (default) :meth:`submit` lazily starts a background
        worker that consumes the queue.  When False, admitted jobs wait
        until :meth:`drain` executes them inline — queued requests then
        accumulate first and batch maximally, which is both the
        deterministic mode tests rely on and the highest-throughput mode
        for offline bulk serving.
    tracer:
        A :class:`repro.obs.trace.Tracer` to record per-request span trees
        (admission → queue wait → policy → preconditioner → solve).
        ``None`` (the default) installs the no-op tracer: the request path
        then performs no id generation, no clock reads and no buffering,
        and solutions are bit-identical either way.
    learn:
        Opt into the online learning loop (``repro-serve --learn``): a
        :class:`~repro.learn.trainer.SurrogateTrainer` trains the GNN
        surrogate from this server's observation store in the background
        and publishes versioned models to ``model_dir``; the policy gains
        a surrogate stage that proposes MCMC parameters by Expected
        Improvement (decisions carry ``origin="surrogate"`` and the model
        version); the scheduler shadow-evaluates every decision origin
        through the ``policy.regret`` histogram.  Default ``False`` keeps
        serving bit-identical to a learning-free server —
        :mod:`repro.learn` is then never even imported.
    model_dir:
        Root of the :class:`~repro.learn.registry.ModelRegistry`
        (required when ``learn=True``).  A registry that already holds a
        published model is restored at boot, so a restarted server serves
        surrogate decisions before its first retrain.
    learn_config:
        Optional :class:`~repro.learn.trainer.LearnConfig` overriding the
        training cadence/budget defaults.
    """

    def __init__(self, *, store: ObservationStore | str | None = None,
                 cache: ArtifactCache | None = None,
                 max_queue_depth: int = 256,
                 bounds: ParameterBounds = DEFAULT_BOUNDS,
                 background: bool = True,
                 telemetry: MetricsRegistry | None = None,
                 tracer=None,
                 learn: bool = False,
                 model_dir: str | None = None,
                 learn_config=None) -> None:
        # Stable identity of *this server instance*: a restarted replica
        # gets a fresh id (and a later started_at), which is how the fleet
        # router detects silent restarts — the restarted replica's
        # fingerprint-shard cache is cold even though the URL is unchanged.
        self.replica_id = uuid.uuid4().hex[:16]
        self.started_at = time.time()
        self.store = (ObservationStore(store)
                      if isinstance(store, (str, bytes)) or hasattr(store, "__fspath__")
                      else store)
        self.cache = cache if cache is not None else global_cache()
        self.telemetry = telemetry if telemetry is not None else MetricsRegistry()
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.learn_enabled = bool(learn)
        self.trainer = None
        self.surrogate = None
        self.model_registry = None
        self._matrix_bank = None
        if self.learn_enabled:
            self._init_learning(model_dir, learn_config, bounds)
        self.policy = PreconditionerPolicy(self.store, bounds=bounds,
                                           surrogate=self.surrogate)
        self.queue = JobQueue(max_depth=max_queue_depth)
        self.scheduler = Scheduler(
            policy=self.policy, cache=self.cache,
            telemetry=self.telemetry, store=self.store, tracer=self.tracer,
            matrix_bank=self._matrix_bank,
            shadow_eval=self.learn_enabled)
        self._background = bool(background)
        self._worker: threading.Thread | None = None
        self._stop = threading.Event()
        self._lock = threading.Lock()
        if self.trainer is not None:
            # Background retraining starts only after the server is fully
            # wired; the synchronous warm-store bootstrap already ran.
            self.trainer.start()

    def _init_learning(self, model_dir, learn_config, bounds) -> None:
        """Construct the online-learning loop (``learn=True`` only).

        Imports :mod:`repro.learn` lazily so a learning-free server never
        pays for (or depends on) the subsystem.  When the store is already
        warm enough, the first generation trains *synchronously* here —
        a deterministic bootstrap the CI smoke test and the A/B test
        rely on (no sleeping until a background tick fires).
        """
        from repro.learn import (
            LearnConfig,
            MatrixBank,
            ModelRegistry,
            SurrogatePolicy,
            SurrogateTrainer,
        )

        if self.store is None:
            raise ParameterError("learn=True requires an observation store")
        if model_dir is None:
            raise ParameterError("learn=True requires model_dir")
        config = learn_config if learn_config is not None else LearnConfig()
        registry = ModelRegistry(model_dir)
        self.model_registry = registry
        self._matrix_bank = MatrixBank()
        surrogate = SurrogatePolicy(
            bounds=bounds, max_sigma=config.max_sigma,
            telemetry=self.telemetry)
        self.surrogate = surrogate
        self.trainer = SurrogateTrainer(
            self.store, registry, bank=self._matrix_bank, config=config,
            telemetry=self.telemetry, tracer=self.tracer,
            on_publish=lambda model, dataset, version, meta:
                surrogate.update(model, dataset, version, meta))
        if registry.current_version() is not None:
            try:
                if surrogate.restore(registry, self.store,
                                     bank=self._matrix_bank):
                    _LOG.info("restored surrogate model %s",
                              surrogate.model_version)
            except Exception:  # noqa: BLE001 - serving must boot regardless
                _LOG.exception("surrogate restore failed; serving without it")
        if not surrogate.ready and self.trainer.should_train():
            try:
                self.trainer.train_generation()
            except Exception:  # noqa: BLE001 - serving must boot regardless
                _LOG.exception("bootstrap training failed; serving without it")

    # -- synchronous serving -------------------------------------------------
    def solve(self, request: SolveRequestV1) -> SolveResponseV1:
        """Serve one request immediately in the calling thread.

        Runs through the exact scheduler path a queued batch takes (policy,
        shared cache, multi-rhs solve of a batch of one), so the answer is
        bit-identical to the queued route.
        """
        job = self._admit(request)
        # Claim jobs for inline execution.  Under a running background
        # worker this may also pick up other pending jobs — they would have
        # been served next anyway; serving them here just shortens the queue.
        batch = self.queue.pop_batch()
        self._execute(batch)
        # If the background worker raced us to the batch, result() waits.
        return job.result()

    # -- queued serving ------------------------------------------------------
    def submit(self, request: SolveRequestV1) -> Job:
        """Admit a request into the queue and return its job handle.

        Raises :class:`~repro.server.queue.AdmissionError` (with a reason)
        when the request is invalid, the queue is full, draining or closed.
        The job is executed by the background worker (started lazily) —
        call :meth:`drain` to force completion of everything admitted.
        """
        job = self._admit(request)
        if self._background:
            self._ensure_worker()
        return job

    def submit_many(self, requests: list[SolveRequestV1]) -> list[Job]:
        """Submit several requests as one batch.

        The whole list is admitted before the worker may pop any of it, so
        requests over one matrix share one group (one policy decision, one
        build).  An admission failure aborts the remainder; what was
        admitted before it is still served.
        """
        jobs: list[Job] = []
        try:
            with self.queue.admit_together():
                for request in requests:
                    jobs.append(self._admit(request))
        finally:
            if jobs and self._background:
                self._ensure_worker()
        return jobs

    # -- lifecycle -----------------------------------------------------------
    def start(self) -> None:
        """Start the background worker explicitly (submit also starts it)."""
        self._ensure_worker()

    def drain(self, timeout: float | None = None) -> bool:
        """Complete everything admitted; pause admission while waiting.

        Returns True when the server went idle within ``timeout``.  With no
        background worker running, pending jobs are executed inline in the
        calling thread — a deterministic, thread-free mode tests and batch
        scripts rely on.
        """
        if self._worker is not None and self._worker.is_alive():
            return self.queue.drain(timeout=timeout)
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            batch = self.queue.pop_batch()
            if batch:
                self._execute(batch)
                continue
            # queue.drain pauses admission while it confirms idleness, so a
            # submission racing the empty pop above either loses (rejected
            # as "draining") or was admitted first — in which case drain
            # reports non-idle and the loop goes back to executing it.
            if self.queue.drain(timeout=0):
                return True
            if deadline is not None and time.monotonic() >= deadline:
                return False
            # Not idle but nothing poppable: another thread holds in-flight
            # jobs (e.g. a concurrent solve()); yield instead of spinning.
            time.sleep(0.001)

    def shutdown(self, timeout: float | None = 30.0) -> None:
        """Close admission, finish admitted work, stop the worker."""
        if self.trainer is not None:
            # Stop retraining first: a mid-training abort leaves (at most) an
            # atomic checkpoint behind, which the next boot resumes from.
            self.trainer.stop()
        self.queue.close()
        self.drain(timeout=timeout)
        self._stop.set()
        worker = self._worker
        if worker is not None and worker.is_alive():
            worker.join(timeout=5.0)
        self._worker = None
        _LOG.info("server shut down (%d jobs served)",
                  self.telemetry.counter("solves_total").value)

    def __enter__(self) -> "SolveServer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    # -- observability -------------------------------------------------------
    def telemetry_snapshot(self) -> dict:
        """Metrics snapshot including queue state and artifact-cache stats."""
        self._observe_depth()
        snapshot = self.telemetry.snapshot()
        snapshot["queue"] = {
            "depth": self.queue.depth,
            "inflight": self.queue.inflight,
            "admitted": self.queue.admitted,
            "max_depth": self.queue.max_depth,
            "closed": self.queue.closed,
        }
        snapshot["artifact_cache"] = self.cache.stats.as_dict()
        return snapshot

    def prometheus_metrics(self) -> str:
        """:meth:`telemetry_snapshot` in Prometheus text-exposition format
        (``GET /v1/metrics?format=prometheus``)."""
        return render_prometheus(self.telemetry_snapshot())

    def refresh_policy(self) -> None:
        """Re-snapshot the store so decisions see records written since."""
        self.policy.refresh()

    def learn_status(self) -> dict:
        """Admin view of the online learning loop (``GET /v1/learn``).

        ``{"enabled": False}`` on a learning-free server; otherwise the
        trainer's status (state, model version, record counters, last train
        wall time) plus what the *serving* policy currently holds — the two
        can differ transiently between a publish and the hand-off.
        """
        payload = version_stamp("learn")
        if self.trainer is None:
            payload["enabled"] = False
            return payload
        payload.update(self.trainer.status())
        payload["policy_model_version"] = self.surrogate.model_version
        payload["policy_ready"] = self.surrogate.ready
        payload["banked_matrices"] = (0 if self._matrix_bank is None
                                      else len(self._matrix_bank))
        return payload

    def health_snapshot(self) -> dict:
        """Liveness + queue state, the single source of every transport's
        health answer (``GET /v1/healthz`` and ``InProcessClient.health``)."""
        from repro.version import __version__

        payload = version_stamp("health")
        payload.update({
            "status": "closed" if self.queue.closed else "ok",
            "server_version": __version__,
            "schema_version": SCHEMA_VERSION,
            "queue_depth": self.queue.depth,
            "inflight": self.queue.inflight,
            "replica_id": self.replica_id,
            "started_at": self.started_at,
            "pid": os.getpid(),
        })
        return payload

    # -- internals -----------------------------------------------------------
    def _admit(self, request: SolveRequestV1) -> Job:
        tracer = self.tracer
        root = None
        trace_id = None
        if tracer.enabled:
            # Reuse the caller's ambient trace id (the HTTP adapter pins the
            # X-Repro-Trace-Id header) so one id follows the request across
            # the wire, the queue and the worker thread.
            trace_id = current_trace_id() or new_trace_id()
            root = tracer.begin("request", trace_id=trace_id,
                                priority=int(request.priority),
                                **_requested_names(request))
        admission = tracer.begin("admission", parent=root)
        try:
            # A traced request's root span names what was admitted; the
            # queue lock keeps the worker from ending it before that.
            with nullcontext() if root is None else self.queue.admit_together():
                job = self.queue.submit(request, trace_id=trace_id,
                                        root_span=root)
                if root is not None:
                    root.attributes.update(_requested_names(job.request))
        except Exception as error:
            reason = getattr(error, "reason", "error")
            self.telemetry.counter("solve.rejected", reason=reason).add(1)
            tracer.end(admission, outcome="rejected", reason=reason)
            if root is not None:
                tracer.end(root, outcome="rejected", reason=reason)
            raise
        tracer.end(admission, outcome="admitted", job_id=job.id)
        self.telemetry.counter("requests_admitted").add(1)
        self._observe_depth()
        return job

    def _observe_depth(self) -> None:
        self.telemetry.gauge("queue.depth").set(self.queue.depth)
        self.telemetry.gauge("queue.inflight").set(self.queue.inflight)

    def _execute(self, batch: list[Job]) -> None:
        if not batch:
            return
        try:
            self.scheduler.execute(batch)
        except Exception as error:  # noqa: BLE001 - must fail the jobs
            # An error escaping the scheduler (one raised outside a group,
            # e.g. while grouping or recording telemetry) must fail the
            # affected jobs; falling through would mark them DONE with a
            # None result.
            _LOG.exception("batch execution failed")
            for job in batch:
                if not job.done():
                    self.telemetry.counter("jobs_failed").add(1)
                    job._finish(error=error)
                end_job_trace(self.tracer, job, outcome="error",
                              error=str(error))
        finally:
            for job in batch:
                self.queue.finish(job)
            self.telemetry.counter("batches_executed").add(1)
            self._observe_depth()

    def _ensure_worker(self) -> None:
        with self._lock:
            if self._worker is not None and self._worker.is_alive():
                return
            self._stop.clear()
            self._worker = threading.Thread(
                target=self._worker_loop, name="solve-server-worker",
                daemon=True)
            self._worker.start()

    def _worker_loop(self) -> None:
        while not self._stop.is_set():
            batch = self.queue.pop_batch(timeout=0.05)
            if batch:
                self._execute(batch)
            elif self.queue.closed and self.queue.idle():
                return
            else:
                # pop_batch already waited on the condition; yield briefly to
                # avoid a hot loop when the queue stays empty.
                time.sleep(0.001)
