"""Observability: span tracing, solver phase timers, metrics.

Building blocks the serving stack threads through the request path — stdlib
plus numpy only, importing nothing else of :mod:`repro` but its exceptions,
so any layer (the Krylov solvers included) may depend on them:

* :mod:`repro.obs.trace` — :class:`Span`/:class:`Tracer` with parent/child
  nesting, per-request trace IDs, JSONL streaming, and Chrome trace-event
  export.  :data:`NULL_TRACER` is the zero-cost default when tracing is off.
* :mod:`repro.obs.phases` — ambient per-solve phase timers (matvec,
  preconditioner apply, orthogonalization) for the Krylov solvers.
* :mod:`repro.obs.metrics` — the metrics registry (counters, gauges,
  histograms, optionally labeled), its JSON snapshot, and the one label
  codec (``render_label_key`` / ``parse_label_key``).
* :mod:`repro.obs.prometheus` — the one text-exposition encoder, fed by
  that snapshot, and a matching parser.
"""

from repro.obs.phases import (
    PHASE_MATVEC,
    PHASE_ORTHO,
    PHASE_PRECOND,
    PhaseTimings,
    finish_solve_phases,
    record_phases,
    solve_phase_timings,
    timed_operator,
)
from repro.obs.prometheus import (
    PrometheusSample,
    parse_prometheus,
    render_prometheus,
)
from repro.obs.trace import (
    NULL_TRACER,
    NullTracer,
    Span,
    Tracer,
    current_span,
    current_trace_id,
    new_trace_id,
    use_trace_id,
)

__all__ = [
    "Span",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "new_trace_id",
    "current_span",
    "current_trace_id",
    "use_trace_id",
    "PHASE_MATVEC",
    "PHASE_PRECOND",
    "PHASE_ORTHO",
    "PhaseTimings",
    "record_phases",
    "solve_phase_timings",
    "finish_solve_phases",
    "timed_operator",
    "render_prometheus",
    "parse_prometheus",
    "PrometheusSample",
]
