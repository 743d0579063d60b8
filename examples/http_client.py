"""The solve server over the wire: HTTP/JSON end to end.

Talks the versioned wire protocol through :class:`repro.client.HTTPClient`:

1. solve a registry matrix synchronously (``POST /v1/solve``),
2. ship a raw CSR matrix through the fingerprinted base64 codec, then solve
   it twice more: the server holds a matrix from its second inline request
   on and says so, so the third request names it by fingerprint
   (``{"ref": ...}``) — the server's ``api.matrix_refs`` counter shows it —
   and gets the same solution,
3. submit a queued job and poll it to completion
   (``POST /v1/submit`` + ``GET /v1/jobs/<id>``),
4. pin a trace id (``X-Repro-Trace-Id``) and observe the server echo it —
   against a traced server the request's span tree lands in its trace file,
5. print each response's policy provenance, then the server's telemetry
   (``GET /v1/metrics``), a Prometheus exposition preview
   (``GET /v1/metrics?format=prometheus``), and liveness
   (``GET /v1/healthz``).

Run standalone (starts its own in-process HTTP server on an ephemeral
port)::

    PYTHONPATH=src python examples/http_client.py

or against an already-running ``repro-serve --http`` instance (the CI smoke
job does exactly this)::

    repro-serve --http --port 8080 &
    PYTHONPATH=src python examples/http_client.py --url http://127.0.0.1:8080
"""

from __future__ import annotations

import argparse
import json

import numpy as np

from repro.api import SolveRequestV1
from repro.client import HTTPClient
from repro.matrices import pdd_real_sparse
from repro.obs.trace import new_trace_id, use_trace_id
from repro.server.http import SolveHTTPServer


def run(client: HTTPClient) -> None:
    health = client.health()
    print(f"server: {health['status']} "
          f"(schema v{health['schema_version']}, "
          f"version {health['server_version']})")

    print("\n== POST /v1/solve (registry matrix) ==")
    response = client.solve(SolveRequestV1(
        matrix="2DFDLaplace_16", tag="laplace/wire"))
    print(f"{response.tag}: converged={response.converged} "
          f"iterations={response.iterations} solver={response.solver} "
          f"termination={response.termination} "
          f"true_residual={response.true_residual:.3e}")
    print(f"provenance: {json.dumps(response.provenance.to_json_dict())}")

    print("\n== POST /v1/solve (raw CSR through the codec) ==")
    matrix = pdd_real_sparse(64, density=0.1, dominance=3.0, seed=2)
    rhs = np.random.default_rng(0).standard_normal(64)
    response = client.solve(SolveRequestV1(matrix=matrix, rhs=rhs,
                                           tag="pdd/wire"))
    print(f"{response.tag}: converged={response.converged} "
          f"iterations={response.iterations} "
          f"fingerprint={response.fingerprint[:12]}…")
    print(f"provenance: {json.dumps(response.provenance.to_json_dict())}")

    print("\n== POST /v1/solve (the same raw CSR twice more) ==")
    # The second inline request makes the server hold the matrix, and its
    # reply says so, so the third carries only the fingerprint (or, if the
    # server has since let the matrix go, is re-sent inline within the
    # same call).
    refs = 'api.matrix_refs{outcome="held"}'
    before = client.metrics().counters.get(refs, 0)
    for attempt in ("pdd/wire/again", "pdd/wire/ref"):
        again = client.solve(SolveRequestV1(matrix=matrix, rhs=rhs,
                                            tag=attempt))
    by_ref = client.metrics().counters.get(refs, 0) > before
    identical = np.array_equal(again.solution, response.solution)
    print(f"{again.tag}: sent by ref={by_ref}, "
          f"solution bit-identical={identical}")
    if not identical:
        raise SystemExit("the repeated matrix got a different solution")

    print("\n== POST /v1/submit + GET /v1/jobs/<id> ==")
    job_id = client.submit(SolveRequestV1(matrix="2DFDLaplace_16",
                                          tag="queued/wire"))
    print(f"submitted job {job_id}: state={client.job(job_id).state}")
    queued = client.result(job_id, timeout=120.0)
    print(f"job {job_id} finished: converged={queued.converged} "
          f"iterations={queued.iterations} "
          f"origin={queued.provenance['origin']}")

    print("\n== traced POST /v1/solve (X-Repro-Trace-Id) ==")
    trace_id = new_trace_id()
    with use_trace_id(trace_id):
        traced = client.solve(SolveRequestV1(matrix="2DFDLaplace_16",
                                             tag="traced/wire"))
    if traced.trace_id is not None:
        print(f"{traced.tag}: sent trace id {trace_id[:12]}…, "
              f"response echoes {traced.trace_id[:12]}…")
    else:
        print(f"{traced.tag}: sent trace id {trace_id[:12]}…, "
              f"server tracing is off (no trace_id in the response)")

    print("\n== GET /v1/metrics ==")
    metrics = client.metrics()
    print(json.dumps({"counters": metrics.counters,
                      "queue": metrics.queue,
                      "artifact_cache": metrics.artifact_cache}, indent=2))

    print("\n== GET /v1/metrics?format=prometheus (first lines) ==")
    exposition = client.metrics_prometheus()
    print("\n".join(exposition.splitlines()[:12]))


def main() -> None:
    parser = argparse.ArgumentParser(
        description="Exercise the solve server's HTTP/JSON wire protocol.")
    parser.add_argument("--url", default=None,
                        help="base URL of a running repro-serve --http "
                             "instance (default: start one in-process)")
    args = parser.parse_args()

    if args.url is not None:
        run(HTTPClient(args.url))
        return
    with SolveHTTPServer(port=0) as http_server:
        print(f"started in-process HTTP server on {http_server.url}")
        run(HTTPClient(http_server.url))
    print("\nserver drained and shut down cleanly")


if __name__ == "__main__":
    main()
