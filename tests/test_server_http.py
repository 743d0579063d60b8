"""HTTP adapter tests: all five endpoints, error mapping, cross-transport
bit-identical determinism.

Covers the PR acceptance criteria on the wire side: for a fixed seed and
matrix set, :class:`InProcessClient` and :class:`HTTPClient` return
identical solutions, iteration counts and policy provenance; and every
failure mode (each admission reason, malformed JSON, wrong schema version,
unknown endpoint/job) maps to the correct HTTP status + typed envelope.
"""

from __future__ import annotations

import json
import threading
import time
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.api import (
    AdmissionError,
    ErrorEnvelope,
    RemoteSolveError,
    SolveRequestV1,
    SolveResponseV1,
    versioning,
)
from repro.client import HTTPClient, InProcessClient
from repro.matrices import laplacian_2d, pdd_real_sparse, unsteady_advection_diffusion
from repro.server.http import SolveHTTPServer
from repro.service.cache import ArtifactCache


def _http_server(**kwargs) -> SolveHTTPServer:
    kwargs.setdefault("cache", ArtifactCache(max_entries=32))
    return SolveHTTPServer(port=0, **kwargs)


def _raw_exchange(url: str, path: str, body: bytes | None = None,
                  method: str | None = None):
    """Raw HTTP exchange returning (status, parsed JSON body)."""
    request = urllib.request.Request(
        url + path, data=body, method=method or ("POST" if body else "GET"),
        headers={"Content-Type": "application/json"})
    try:
        with urllib.request.urlopen(request, timeout=30) as reply:
            return reply.status, json.loads(reply.read().decode())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read().decode())


class TestEndpoints:
    def test_healthz(self):
        with _http_server(background=False) as http_server:
            status, payload = _raw_exchange(http_server.url, "/v1/healthz")
        assert status == 200
        assert payload["status"] == "ok"
        assert payload["schema"] == versioning.SCHEMA_FAMILY
        assert payload["schema_version"] == versioning.SCHEMA_VERSION

    def test_solve_submit_jobs_and_metrics(self):
        matrix = laplacian_2d(6)
        with _http_server() as http_server:
            client = HTTPClient(http_server.url)
            # POST /v1/solve (sync)
            rhs = np.random.default_rng(0).standard_normal(matrix.shape[0])
            response = client.solve(SolveRequestV1(matrix=matrix, rhs=rhs,
                                                   tag="sync"))
            assert response.converged
            np.testing.assert_allclose(matrix @ response.solution, rhs,
                                       atol=1e-5)
            # POST /v1/submit + GET /v1/jobs/<id> (background worker runs it)
            job_id = client.submit(SolveRequestV1(matrix="2DFDLaplace_16",
                                                  tag="queued"))
            queued = client.result(job_id, timeout=60.0)
            assert queued.converged and queued.tag == "queued"
            assert client.job(job_id).state == "done"
            # GET /v1/metrics
            metrics = client.metrics()
            assert metrics.counters["solves_total"] == 2
            assert metrics.queue["admitted"] == 2
            assert "solve.latency_ms" in metrics.histograms

    def test_provenance_travels_the_wire(self):
        with _http_server(background=False) as http_server:
            client = HTTPClient(http_server.url)
            explicit = client.solve(SolveRequestV1(
                matrix=laplacian_2d(5), preconditioner="jacobi", solver="cg"))
            auto = client.solve(SolveRequestV1(matrix=laplacian_2d(5)))
        assert explicit.provenance.origin == "explicit"
        assert explicit.provenance.built_family == "jacobi"
        assert auto.provenance.origin == "rule"
        assert auto.provenance.rule == "spd"


class TestErrorMapping:
    def test_invalid_request_is_400_with_reason(self):
        with _http_server(background=False) as http_server:
            client = HTTPClient(http_server.url)
            with pytest.raises(AdmissionError) as excinfo:
                client.solve(SolveRequestV1(matrix="no_such_matrix"))
            assert excinfo.value.reason == "invalid"
            # and the raw status is 400 with a typed envelope
            body = SolveRequestV1(matrix="no_such_matrix").to_json_dict()
            status, payload = _raw_exchange(
                http_server.url, "/v1/solve", json.dumps(body).encode())
        assert status == 400
        assert ErrorEnvelope.from_json_dict(payload).code == "invalid"

    def test_nan_rhs_is_rejected_over_the_wire(self):
        # encode a NaN rhs by hand (the client-side schema would happily
        # encode it; the *server* boundary must reject it)
        matrix = laplacian_2d(4)
        body = SolveRequestV1(
            matrix=matrix, rhs=np.full(matrix.shape[0], np.nan)).to_json_dict()
        with _http_server(background=False) as http_server:
            status, payload = _raw_exchange(
                http_server.url, "/v1/solve", json.dumps(body).encode())
        assert status == 400
        assert ErrorEnvelope.from_json_dict(payload).code == "invalid"

    def test_queue_full_is_429(self):
        with _http_server(background=False, max_queue_depth=1) as http_server:
            client = HTTPClient(http_server.url)
            client.submit(SolveRequestV1(matrix="2DFDLaplace_16"))
            status, payload = _raw_exchange(
                http_server.url, "/v1/submit",
                json.dumps(SolveRequestV1(
                    matrix="2DFDLaplace_16").to_json_dict()).encode())
            assert status == 429
            assert ErrorEnvelope.from_json_dict(payload).code == "queue_full"
            http_server.solve_server.drain(timeout=30.0)

    def test_closed_is_503(self):
        with _http_server(background=False) as http_server:
            http_server.solve_server.queue.close()
            status, payload = _raw_exchange(
                http_server.url, "/v1/submit",
                json.dumps(SolveRequestV1(
                    matrix="2DFDLaplace_16").to_json_dict()).encode())
            assert status == 503
            assert ErrorEnvelope.from_json_dict(payload).code == "closed"

    def test_draining_is_503(self):
        with _http_server(background=False) as http_server:
            queue = http_server.solve_server.queue
            held = queue.submit(SolveRequestV1(matrix="2DFDLaplace_16"))
            [popped] = queue.pop_batch()
            drainer = threading.Thread(target=queue.drain,
                                       kwargs={"timeout": 10.0})
            drainer.start()
            try:
                body = json.dumps(SolveRequestV1(
                    matrix="2DFDLaplace_16").to_json_dict()).encode()
                deadline = time.monotonic() + 5.0
                status, payload = 0, {}
                while time.monotonic() < deadline:
                    status, payload = _raw_exchange(
                        http_server.url, "/v1/submit", body)
                    if status == 503:
                        break
                    time.sleep(0.01)
            finally:
                queue.finish(popped)
                drainer.join()
            assert status == 503
            assert ErrorEnvelope.from_json_dict(payload).code == "draining"
            assert held.done()

    def test_malformed_json_is_400_bad_request(self):
        with _http_server(background=False) as http_server:
            status, payload = _raw_exchange(
                http_server.url, "/v1/solve", b"{not json!")
        assert status == 400
        assert ErrorEnvelope.from_json_dict(payload).code == "bad_request"

    def test_wrong_schema_version_is_400_unsupported_version(self):
        body = SolveRequestV1(matrix="2DFDLaplace_16").to_json_dict()
        body["version"] = versioning.SCHEMA_VERSION + 7
        with _http_server(background=False) as http_server:
            status, payload = _raw_exchange(
                http_server.url, "/v1/solve", json.dumps(body).encode())
        assert status == 400
        assert ErrorEnvelope.from_json_dict(payload).code == \
            "unsupported_version"

    def test_unknown_endpoint_and_job_are_404(self):
        with _http_server(background=False) as http_server:
            status, payload = _raw_exchange(http_server.url, "/v2/solve",
                                            b"{}")
            assert status == 404
            assert ErrorEnvelope.from_json_dict(payload).code == "not_found"
            status, payload = _raw_exchange(http_server.url, "/v1/jobs/999")
            assert status == 404
            assert ErrorEnvelope.from_json_dict(payload).code == "not_found"
            client = HTTPClient(http_server.url)
            with pytest.raises(RemoteSolveError) as excinfo:
                client.job(999)
            assert excinfo.value.envelope.code == "not_found"

    def test_malformed_scalar_field_is_400_not_500(self):
        body = SolveRequestV1(matrix="2DFDLaplace_16").to_json_dict()
        body["rtol"] = None
        with _http_server(background=False) as http_server:
            status, payload = _raw_exchange(
                http_server.url, "/v1/solve", json.dumps(body).encode())
        assert status == 400
        assert ErrorEnvelope.from_json_dict(payload).code == "bad_request"

    def test_malformed_binary_block_is_400_not_500(self):
        body = SolveRequestV1(matrix=laplacian_2d(4),
                              rhs=np.ones(9)).to_json_dict()
        # base64 of 7 bytes: not a multiple of the float64 element size
        import base64

        body["rhs"]["data"] = base64.b64encode(b"1234567").decode()
        with _http_server(background=False) as http_server:
            status, payload = _raw_exchange(
                http_server.url, "/v1/solve", json.dumps(body).encode())
        assert status == 400
        assert ErrorEnvelope.from_json_dict(payload).code == "bad_request"

    def test_keep_alive_survives_an_unknown_endpoint_post(self):
        # A 404 that leaves the POST body unread would desync the next
        # request on a keep-alive connection.
        import http.client

        body = json.dumps(
            SolveRequestV1(matrix="2DFDLaplace_16").to_json_dict())
        with _http_server(background=False) as http_server:
            connection = http.client.HTTPConnection("127.0.0.1",
                                                    http_server.port,
                                                    timeout=30)
            try:
                connection.request("POST", "/v1/nope", body=body,
                                   headers={"Content-Type":
                                            "application/json"})
                first = connection.getresponse()
                assert first.status == 404
                first.read()
                connection.request("GET", "/v1/healthz")
                second = connection.getresponse()
                assert second.status == 200
                assert json.loads(second.read())["status"] == "ok"
            finally:
                connection.close()

    def test_non_integer_job_id_is_400(self):
        with _http_server(background=False) as http_server:
            status, payload = _raw_exchange(http_server.url, "/v1/jobs/abc")
        assert status == 400
        assert ErrorEnvelope.from_json_dict(payload).code == "bad_request"

    def test_tampered_payload_is_400(self):
        body = SolveRequestV1(matrix=laplacian_2d(4),
                              rhs=np.ones(9)).to_json_dict()
        body["rhs"]["fingerprint"] = "0" * 32
        with _http_server(background=False) as http_server:
            status, payload = _raw_exchange(
                http_server.url, "/v1/solve", json.dumps(body).encode())
        assert status == 400
        assert ErrorEnvelope.from_json_dict(payload).code == "bad_request"


class TestJobRegistryBound:
    def test_finished_jobs_evicted_beyond_the_bound(self, monkeypatch):
        monkeypatch.setattr("repro.server.queue.MAX_TRACKED_JOBS", 2)
        with _http_server(background=False) as http_server:
            client = HTTPClient(http_server.url)
            job_ids = [client.submit(SolveRequestV1(matrix="2DFDLaplace_16",
                                                    tag=f"j{index}"))
                       for index in range(3)]
            http_server.solve_server.drain(timeout=60.0)
            # a fourth submit pushes the registry over its bound and evicts
            # the oldest finished jobs
            extra = client.submit(SolveRequestV1(matrix="2DFDLaplace_16",
                                                 tag="extra"))
            http_server.solve_server.drain(timeout=60.0)
            assert client.job(extra).state == "done"
            evicted = 0
            for job_id in job_ids:
                try:
                    client.job(job_id)
                except RemoteSolveError as error:
                    assert error.envelope.code == "not_found"
                    evicted += 1
            assert evicted >= 1  # retention is bounded, oldest went first


class TestCrossTransportDeterminism:
    """The headline guarantee: transport is never a numerical choice."""

    def _stream(self) -> list[SolveRequestV1]:
        matrices = [
            laplacian_2d(8),                                   # spd -> ic0/cg
            pdd_real_sparse(40, density=0.2, dominance=3.0, seed=1),  # jacobi
            unsteady_advection_diffusion(6, order=1, seed=3),  # general
        ]
        rng = np.random.default_rng(42)
        requests = []
        for round_index in range(2):
            for matrix_index, matrix in enumerate(matrices):
                rhs = rng.standard_normal(matrix.shape[0])
                requests.append(SolveRequestV1(
                    matrix=matrix, rhs=rhs, maxiter=400,
                    tag=f"m{matrix_index}round{round_index}"))
        # one explicit-override request and one registry-name request
        requests.append(SolveRequestV1(matrix=laplacian_2d(8),
                                       preconditioner="jacobi", solver="cg",
                                       tag="explicit"))
        requests.append(SolveRequestV1(matrix="2DFDLaplace_16",
                                       tag="registry"))
        return requests

    def test_http_round_trip_is_bit_identical_to_in_process(self):
        with InProcessClient(cache=ArtifactCache(max_entries=32),
                             background=False) as in_process:
            local = [in_process.solve(request) for request in self._stream()]

        with _http_server(background=False) as http_server:
            client = HTTPClient(http_server.url)
            remote = [client.solve(request) for request in self._stream()]

        assert len(local) == len(remote)
        for ours, theirs in zip(local, remote):
            assert ours.tag == theirs.tag
            assert ours.converged and theirs.converged
            assert ours.iterations == theirs.iterations, ours.tag
            assert ours.solver == theirs.solver
            assert ours.fingerprint == theirs.fingerprint
            assert ours.provenance == theirs.provenance, ours.tag
            assert np.array_equal(ours.solution, theirs.solution), ours.tag
            assert ours.termination == theirs.termination == "converged"
            assert ours.true_residual == theirs.true_residual < 1e-7

    def test_block_batch_matches_in_process_across_transports(self):
        """An HTTP batch of k same-fingerprint requests served in block mode
        returns the same solutions (within tolerance) and the same
        ``batch_mode`` provenance as the in-process client."""
        matrix = laplacian_2d(8)
        k = 6
        rng = np.random.default_rng(7)
        rhs_columns = [rng.standard_normal(matrix.shape[0])
                       for _ in range(k)]

        def stream():
            return [SolveRequestV1(matrix=matrix, rhs=rhs, solver="cg",
                                   preconditioner="none", tag=f"col{index}")
                    for index, rhs in enumerate(rhs_columns)]

        with InProcessClient(cache=ArtifactCache(max_entries=8),
                             background=False,
                             batch_mode="block") as in_process:
            job_ids = [in_process.submit(request) for request in stream()]
            assert in_process.drain(timeout=60.0)
            local = [in_process.result(job_id) for job_id in job_ids]

        with _http_server(background=False,
                          batch_mode="block") as http_server:
            client = HTTPClient(http_server.url)
            job_ids = [client.submit(request) for request in stream()]
            http_server.solve_server.drain(timeout=60.0)
            remote = [client.result(job_id) for job_id in job_ids]

        assert len(local) == len(remote) == k
        for index, (ours, theirs) in enumerate(zip(local, remote)):
            assert ours.converged and theirs.converged
            assert ours.batch_mode == theirs.batch_mode == "block"
            assert ours.batch_size == theirs.batch_size == k
            scale = max(float(np.linalg.norm(ours.solution)), 1.0)
            assert np.linalg.norm(ours.solution - theirs.solution) \
                <= 1e-8 * scale, f"col{index}"
            # every column still meets the requested tolerance end to end
            residual = np.linalg.norm(
                matrix @ theirs.solution - rhs_columns[index])
            assert residual <= 1e-7 * np.linalg.norm(rhs_columns[index])

    def test_old_schema_client_without_batch_mode_round_trips(self):
        """A client on the previous schema vintage (no ``batch_mode`` field)
        must keep working through the versioning migration hooks, and a
        response without the field must parse as the historical loop mode."""
        # a hypothetical version-0 request spelled the matrix name flat and
        # predates batch_mode entirely; the hook lifts it into the v1 shape
        def upgrade(payload: dict) -> dict:
            payload["matrix"] = {"name": payload.pop("matrix_name")}
            return payload

        versioning.register_migration("solve_request", 0, upgrade)
        try:
            payload = versioning.version_stamp("solve_request", version=0)
            payload.update({"matrix_name": "2DFDLaplace_16", "tag": "legacy"})
            request = SolveRequestV1.from_json_dict(payload)
            assert request.batch_mode is None  # means "server default"

            with _http_server(background=False,
                              batch_mode="block") as http_server:
                status, answer = _raw_exchange(
                    http_server.url, "/v1/solve",
                    json.dumps(request.to_json_dict()).encode())
            assert status == 200
            response = SolveResponseV1.from_json_dict(answer)
            assert response.converged
            # a batch of one cannot share a subspace: honest loop provenance
            assert response.batch_mode == "loop"

            # and a pre-batch_mode *response* payload parses as loop
            stripped = dict(answer)
            stripped.pop("batch_mode")
            assert SolveResponseV1.from_json_dict(
                stripped).batch_mode == "loop"
        finally:
            versioning.clear_migrations()

    def test_mcmc_build_is_deterministic_across_transports(self):
        # Fragile pivots route to the stochastic MCMC build; its seed comes
        # from the matrix fingerprint, so even this family must match bit
        # for bit across transports.
        rng = np.random.default_rng(0)
        dense = rng.standard_normal((30, 30))
        np.fill_diagonal(dense, 0.05)
        import scipy.sparse as sp

        matrix = sp.csr_matrix(dense)
        request = SolveRequestV1(matrix=matrix, maxiter=200, tag="mcmc")

        with InProcessClient(cache=ArtifactCache(max_entries=8),
                             background=False) as in_process:
            local = in_process.solve(request)
        with _http_server(background=False) as http_server:
            remote = HTTPClient(http_server.url).solve(request)
        assert local.provenance["family"] == "mcmc"
        assert local.provenance == remote.provenance
        assert local.iterations == remote.iterations
        assert np.array_equal(local.solution, remote.solution)
        assert (local.termination, local.true_residual) == (
            remote.termination, remote.true_residual)
