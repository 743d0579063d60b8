"""Solve-server subsystem: the serving layer on top of kernels + tuning.

The third layer of the stack (kernels → tuning service → **solve server**):
a service that accepts a stream of
:class:`~repro.api.schemas.SolveRequestV1`\\ s, admits or sheds them at a
bounded queue, groups in-flight work by matrix content fingerprint so
concurrent requests share one preconditioner build and one multi-rhs solve,
auto-selects the preconditioner per matrix with full provenance, and exposes
its behaviour through a metrics registry.  The request/response surface is
the versioned, transport-agnostic :mod:`repro.api` schema package, so the
same engine serves in-process callers (:class:`repro.client.InProcessClient`)
and HTTP/JSON traffic (:mod:`repro.server.http` +
:class:`repro.client.HTTPClient`) bit-identically.

* :mod:`repro.server.queue` — :class:`JobQueue` (admission control,
  priorities, backpressure, graceful drain), :class:`Job`.
* :mod:`repro.server.scheduler` — :class:`Scheduler` (fingerprint-batched
  execution, one group after another).
* :mod:`repro.server.policy` — :class:`PreconditionerPolicy`
  (stored reuse → warm start → rule table, deterministic via store
  snapshots).
* :mod:`repro.obs.metrics` — :class:`MetricsRegistry` (counters, gauges,
  latency/iteration histograms — optionally labeled — and the JSON
  snapshot both ``/v1/metrics`` formats are served from), re-exported here.
* :mod:`repro.server.server` — :class:`SolveServer`, the facade with
  submit / await / drain / shutdown semantics.
* :mod:`repro.server.http` — :class:`SolveHTTPServer`, the stdlib
  HTTP/JSON adapter (``POST /v1/solve``, ``POST /v1/submit``,
  ``GET /v1/jobs/<id>``, ``GET /v1/metrics``, ``GET /v1/healthz``).
* :mod:`repro.server.cli` — the ``repro-serve`` console entry point
  (one-shot solves, or ``--http`` to serve the wire protocol).

Requests and responses are the :mod:`repro.api` schemas
(:class:`~repro.api.SolveRequestV1`, :class:`~repro.api.SolveResponseV1`).
"""

from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    render_label_key,
)
from repro.server.queue import (
    AdmissionError,
    Job,
    JobQueue,
    REJECT_CLOSED,
    REJECT_DRAINING,
    REJECT_INVALID,
    REJECT_QUEUE_FULL,
)
from repro.server.policy import PolicyDecision, PreconditionerPolicy
from repro.server.scheduler import Scheduler
from repro.server.server import SolveServer
from repro.server.http import SolveHTTPServer, TRACE_HEADER

__all__ = [
    "AdmissionError",
    "Job",
    "JobQueue",
    "REJECT_CLOSED",
    "REJECT_DRAINING",
    "REJECT_INVALID",
    "REJECT_QUEUE_FULL",
    "PolicyDecision",
    "PreconditionerPolicy",
    "Scheduler",
    "SolveServer",
    "SolveHTTPServer",
    "TRACE_HEADER",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "render_label_key",
]
