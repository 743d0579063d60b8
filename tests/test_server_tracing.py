"""End-to-end request tracing through the serving stack.

The tentpole acceptance tests: a traced solve produces a connected span tree
(admission → queue wait → policy decision → preconditioner → solve with
per-phase timings), tracing never changes a single solution bit, trace ids
propagate across the HTTP transport, and the exports are well-formed.
"""

import json
import urllib.request

import numpy as np
import pytest

from repro.api.schemas import SolveRequestV1
from repro.client import HTTPClient, InProcessClient
from repro.client.http import TRACE_HEADER as CLIENT_TRACE_HEADER
from repro.matrices import laplacian_2d
from repro.obs.prometheus import parse_prometheus
from repro.obs.trace import Tracer, use_trace_id
from repro.server import SolveServer, TRACE_HEADER
from repro.server.http import SolveHTTPServer
from repro.service.cache import ArtifactCache


def _request(index: int = 0, tag: str = "traced") -> SolveRequestV1:
    matrix = laplacian_2d(12)
    rhs = np.random.default_rng(index).standard_normal(matrix.shape[0])
    return SolveRequestV1(matrix=matrix, rhs=rhs, tag=f"{tag}{index}")


def _span_tree(spans):
    by_id = {span.span_id: span for span in spans}
    children = {}
    for span in spans:
        if span.parent_id is not None:
            children.setdefault(span.parent_id, []).append(span)
    roots = [span for span in spans if span.parent_id is None]
    return by_id, children, roots


# -- the span tree ------------------------------------------------------------
def test_traced_solve_produces_connected_span_tree():
    tracer = Tracer()
    with SolveServer(background=False, tracer=tracer) as server:
        response = server.solve(_request(0))
    assert response.converged
    assert response.trace_id is not None

    spans = tracer.spans(trace_id=response.trace_id)
    names = {span.name for span in spans}
    assert {"request", "admission", "queue.wait", "policy.decide",
            "preconditioner", "precond.build", "solve"} <= names

    by_id, children, roots = _span_tree(spans)
    assert len(roots) == 1 and roots[0].name == "request"
    root = roots[0]
    # admission, queue.wait, policy, preconditioner, solve all hang off root
    top = {span.name for span in children[root.span_id]}
    assert {"admission", "queue.wait", "policy.decide",
            "preconditioner", "solve"} <= top
    # the build is a child of the preconditioner span
    precond = next(s for s in spans if s.name == "preconditioner")
    assert [s.name for s in children.get(precond.span_id, [])] == \
        ["precond.build"]
    # every span closed, with sane intervals
    for span in spans:
        assert span.end is not None and span.end >= span.start

    # attribute provenance on the interesting spans
    assert root.attributes["outcome"] == "ok"
    assert root.attributes["converged"] is True
    policy = next(s for s in spans if s.name == "policy.decide")
    assert "family" in policy.attributes and "origin" in policy.attributes
    assert precond.attributes["cache_hit"] is False
    solve = next(s for s in spans if s.name == "solve")
    phase_keys = [k for k in solve.attributes if k.startswith("phase.")]
    assert "phase.matvec_ms" in phase_keys
    # what the solver's exit measured, on the solve span and the closing span
    for span in (solve, root):
        assert span.attributes["termination"] == response.termination \
            == "converged"
        assert span.attributes["true_residual"] == response.true_residual


def test_cache_hit_recorded_on_repeat_request():
    tracer = Tracer()
    with SolveServer(background=False, tracer=tracer,
                     cache=ArtifactCache(max_entries=8)) as server:
        server.solve(_request(0))
        second = server.solve(_request(0))
    spans = tracer.spans(trace_id=second.trace_id)
    precond = next(s for s in spans if s.name == "preconditioner")
    assert precond.attributes["cache_hit"] is True
    assert not any(s.name == "precond.build" for s in spans)


def test_rejected_request_closes_trace_with_outcome():
    tracer = Tracer()
    with SolveServer(background=False, tracer=tracer,
                     max_queue_depth=1) as server:
        bad = SolveRequestV1(matrix="2DFDLaplace_16",
                             rhs=np.ones(3))  # wrong dimension
        with pytest.raises(Exception):
            server.solve(bad)
    rejected = [s for s in tracer.spans()
                if s.attributes.get("outcome") == "rejected"]
    assert {s.name for s in rejected} == {"admission", "request"}


def test_untraced_server_records_nothing():
    with SolveServer(background=False) as server:
        response = server.solve(_request(0))
    assert response.converged
    assert response.trace_id is None
    assert server.tracer.enabled is False
    assert server.tracer.spans() == []


# -- bit neutrality -----------------------------------------------------------
def test_tracing_is_bit_neutral():
    with SolveServer(background=False) as server:
        plain = server.solve(_request(5))
    tracer = Tracer()
    with SolveServer(background=False, tracer=tracer) as server:
        traced = server.solve(_request(5))
    assert plain.iterations == traced.iterations
    assert np.array_equal(plain.solution, traced.solution), \
        "tracing changed the arithmetic"
    assert tracer.spans(), "traced server recorded nothing"


# -- HTTP propagation ---------------------------------------------------------
def test_trace_header_constants_agree():
    assert CLIENT_TRACE_HEADER == TRACE_HEADER == "X-Repro-Trace-Id"


def test_trace_id_propagates_across_http_round_trip():
    tracer = Tracer()
    with SolveHTTPServer(port=0, background=False, tracer=tracer) as http:
        client = HTTPClient(http.url)
        with use_trace_id("0123456789abcdef0123456789abcdef"):
            response = client.solve(_request(1))
        assert response.trace_id == "0123456789abcdef0123456789abcdef"
        spans = tracer.spans(trace_id=response.trace_id)
        assert {"request", "solve"} <= {s.name for s in spans}

        # raw exchange: the header is echoed verbatim
        body = json.dumps(_request(1).to_json_dict()).encode("utf-8")
        raw = urllib.request.Request(
            http.url + "/v1/solve", data=body,
            headers={"Content-Type": "application/json",
                     TRACE_HEADER: "cafecafecafecafe"}, method="POST")
        with urllib.request.urlopen(raw, timeout=60) as reply:
            assert reply.headers[TRACE_HEADER] == "cafecafecafecafe"
            assert json.loads(reply.read())["trace_id"] == "cafecafecafecafe"


def test_server_mints_trace_id_when_client_sends_none():
    tracer = Tracer()
    with SolveHTTPServer(port=0, background=False, tracer=tracer) as http:
        response = HTTPClient(http.url).solve(_request(2))
    assert response.trace_id is not None and len(response.trace_id) == 32


def test_submit_path_propagates_trace_id():
    tracer = Tracer()
    with SolveHTTPServer(port=0, tracer=tracer) as http:
        client = HTTPClient(http.url)
        with use_trace_id("feedfacefeedface"):
            job_id = client.submit(_request(3))
        result = client.result(job_id, timeout=120.0)
    assert result.trace_id == "feedfacefeedface"
    spans = tracer.spans(trace_id="feedfacefeedface")
    assert {"request", "queue.wait", "solve"} <= {s.name for s in spans}


def test_untraced_http_server_omits_trace_id():
    with SolveHTTPServer(port=0, background=False) as http:
        response = HTTPClient(http.url).solve(_request(4))
    assert response.trace_id is None


def test_http_and_inprocess_traced_solves_bit_identical():
    request = _request(6)
    with InProcessClient(background=False,
                         tracer=Tracer()) as client:
        local = client.solve(request)
    with SolveHTTPServer(port=0, background=False, tracer=Tracer()) as http:
        remote = HTTPClient(http.url).solve(request)
    assert local.iterations == remote.iterations
    assert np.array_equal(local.solution, remote.solution)


# -- exports ------------------------------------------------------------------
def test_traced_request_exports_valid_chrome_trace(tmp_path):
    tracer = Tracer()
    with SolveServer(background=False, tracer=tracer) as server:
        response = server.solve(_request(7))
    path = tracer.export_chrome(tmp_path / "trace.json")
    chrome = json.loads(path.read_text())
    assert chrome["displayTimeUnit"] == "ms"
    events = chrome["traceEvents"]
    assert events
    for event in events:
        assert event["ph"] == "X"
        assert isinstance(event["ts"], float) and event["dur"] >= 0
        assert {"name", "pid", "tid", "args"} <= set(event)
    request_events = [e for e in events
                      if e["args"].get("trace_id") == response.trace_id]
    assert {"request", "solve"} <= {e["name"] for e in request_events}


# -- metrics surfaces ---------------------------------------------------------
def test_prometheus_endpoint_round_trips_over_http():
    tracer = Tracer()
    with SolveHTTPServer(port=0, background=False, tracer=tracer) as http:
        client = HTTPClient(http.url)
        client.solve(_request(8))
        text = client.metrics_prometheus()
        snapshot = client.metrics()  # the JSON endpoint still answers
    samples, families = parse_prometheus(text)
    names = {s.name for s in samples}
    assert "repro_requests_admitted_total" in names
    assert "repro_queue_depth" in names
    assert "repro_artifact_cache_hits" in names
    assert any(s.name == "repro_solve_latency_ms" and "quantile" in s.labels
               for s in samples)
    assert snapshot.counters["requests_admitted"] >= 1


def test_labeled_solve_metrics_recorded_per_fingerprint():
    tracer = Tracer()
    with SolveServer(background=False, tracer=tracer) as server:
        response = server.solve(_request(9))
    snapshot = server.telemetry.snapshot()
    fingerprint = response.fingerprint[:12]
    iteration_keys = [key for key in snapshot["histograms"]
                      if key.startswith("solve.iterations{")
                      and fingerprint in key]
    assert iteration_keys, snapshot["histograms"].keys()
    phase_keys = [key for key in snapshot["histograms"]
                  if key.startswith("solve.phase_ms{")]
    assert any("matvec" in key for key in phase_keys)
