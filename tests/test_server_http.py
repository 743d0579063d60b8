"""HTTP adapter tests: all five endpoints, error mapping, cross-transport
bit-identical determinism.

Covers the PR acceptance criteria on the wire side: for a fixed seed and
matrix set, :class:`InProcessClient` and :class:`HTTPClient` return
identical solutions, iteration counts and policy provenance; and every
failure mode (each admission reason, malformed JSON, wrong schema version,
unknown endpoint/job) maps to the correct HTTP status + typed envelope.
"""

from __future__ import annotations

import contextlib
import json
import threading
import time
import urllib.error
import urllib.request

import numpy as np
import pytest
import scipy.sparse as sp

from repro.api import (
    AdmissionError,
    ErrorEnvelope,
    RemoteSolveError,
    SolveRequestV1,
    SolveResponseV1,
    versioning,
)
from repro.client import HTTPClient, InProcessClient
from repro.fleet.replica import InProcessReplica, ReplicaFleet
from repro.fleet.router import FleetRouter
from repro.matrices import laplacian_2d, pdd_real_sparse, unsteady_advection_diffusion
from repro.server import SolveServer
from repro.server.http import SolveHTTPServer
from repro.service.cache import ArtifactCache
from repro.sparse.fingerprint import matrix_fingerprint


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

            with _http_server(background=False) as http_server:
                status, answer = _raw_exchange(
                    http_server.url, "/v1/solve",
                    json.dumps(request.to_json_dict()).encode())
            assert status == 200
            response = SolveResponseV1.from_json_dict(answer)
            assert response.converged
            assert response.batch_mode == "loop"

            # and a pre-batch_mode *response* payload parses as loop
            stripped = dict(answer)
            stripped.pop("batch_mode")
            assert SolveResponseV1.from_json_dict(
                stripped).batch_mode == "loop"
        finally:
            versioning.clear_migrations()

    @pytest.mark.parametrize("retired", ["block", "auto", "loop", "vectorised"])
    def test_retired_request_batch_mode_key_is_ignored(self, retired):
        """A v1 request that still carries the retired ``"batch_mode"`` key
        — any value, even one admission used to reject — is answered, in
        process and over HTTP, bit for bit like the same request without
        it, by the loop."""
        matrix = laplacian_2d(8)
        rhs = np.random.default_rng(11).standard_normal(matrix.shape[0])
        plain = SolveRequestV1(matrix=matrix, rhs=rhs, solver="cg",
                               preconditioner="none", tag="compat"
                               ).to_json_dict()
        legacy = dict(plain, batch_mode=retired)

        with InProcessClient(cache=ArtifactCache(max_entries=8),
                             background=False,
                             wire_fidelity=True) as in_process:
            local = [in_process.solve(SolveRequestV1.from_json_dict(payload))
                     .to_json_dict() for payload in (plain, legacy)]
        with _http_server(background=False) as http_server:
            remote = []
            for payload in (plain, legacy):
                status, answer = _raw_exchange(
                    http_server.url, "/v1/solve", json.dumps(payload).encode())
                assert status == 200
                remote.append(answer)

        for answers in (local, remote):
            for answer in answers:
                answer.pop("job_id")
            without_key, with_key = answers
            assert with_key == without_key
            assert with_key["batch_mode"] == "loop"
        assert local == remote

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


@contextlib.contextmanager
def _transport(kind: str):
    """A client of ``kind`` and the :class:`SolveServer` that serves it; the
    server queues without a worker, so the test's drain forms the batch."""
    cache = ArtifactCache(max_entries=8)
    if kind == "in_process":
        with InProcessClient(cache=cache, background=False) as client:
            yield client, client.server
    elif kind == "http":
        with SolveHTTPServer(port=0, cache=cache,
                             background=False) as http_server:
            yield HTTPClient(http_server.url), http_server.solve_server
    else:
        replica = InProcessReplica("r0", cache=cache, background=False)
        fleet = ReplicaFleet([replica], health_interval=30.0, restart=False)
        fleet.start()
        router = FleetRouter(fleet).start()
        try:
            yield HTTPClient(router.url), replica.http_server.solve_server
        finally:
            router.shutdown()
            fleet.drain()


@pytest.mark.parametrize("transport", ["in_process", "http", "fleet"])
def test_gmres_batch_is_served_by_the_loop_on_every_transport(transport):
    """A same-matrix GMRES batch answers ``batch_mode="loop"``, bit-identical
    to synchronous serving, whichever transport carried it."""
    matrix = pdd_real_sparse(40, density=0.2, dominance=3.0, seed=1)
    rng = np.random.default_rng(2)
    requests = [SolveRequestV1(matrix=matrix,
                               rhs=rng.standard_normal(matrix.shape[0]),
                               solver="gmres", preconditioner="jacobi",
                               tag=f"r{index}")
                for index in range(3)]
    synchronous = SolveServer(cache=ArtifactCache(max_entries=32),
                              background=False)
    reference = [synchronous.solve(request) for request in requests]
    synchronous.shutdown()

    with _transport(transport) as (client, server):
        job_ids = [client.submit(request) for request in requests]
        assert server.drain(timeout=60.0)
        responses = [client.result(job_id, timeout=60.0)
                     for job_id in job_ids]

    for response, expected in zip(responses, reference):
        assert response.converged
        assert response.batch_size == 3
        assert response.batch_mode == "loop"
        assert response.iterations == expected.iterations
        assert np.array_equal(response.solution, expected.solution)


class TestConnectionReuse:
    """One client, one kept-alive connection per concurrent caller."""

    def test_exchanges_through_one_client_share_one_connection(
            self, connection_log):
        request = SolveRequestV1(matrix="2DFDLaplace_16")
        with _http_server(background=False) as http_server:
            client = HTTPClient(http_server.url)
            client.health()
            client.solve(request)
            job_id = client.submit(request)
            assert http_server.solve_server.drain(timeout=60.0)
            assert client.result(job_id, timeout=60.0).converged
            client.metrics()
            client.metrics_prometheus()
            client.close()
        assert connection_log.connections(http_server) == 1

    def test_accepted_connections_set_tcp_nodelay(self, connection_log):
        with _http_server(background=False) as http_server:
            with HTTPClient(http_server.url) as client:
                client.health()
        assert [nodelay for owner, _, nodelay in connection_log.accepted
                if owner is http_server] == [True]

    def test_concurrent_callers_never_share_a_connection(
            self, connection_log):
        """Each thread's replies name its own requests, and the pool never
        holds more connections than there were callers at once."""
        import sys

        callers, exchanges = 8, 25
        errors: list = []
        with _http_server(background=False) as http_server:
            client = HTTPClient(http_server.url)

            def call(index: int) -> None:
                try:
                    for step in range(exchanges):
                        job_id = index * 1000 + step
                        reply = client.exchange_raw("GET",
                                                    f"/v1/jobs/{job_id}")
                        message = json.loads(reply.body)["message"]
                        assert (reply.status, message) == (
                            404, f"no such job {job_id}")
                except Exception as error:  # noqa: BLE001 - recorded
                    errors.append(error)

            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-5)
            try:
                threads = [threading.Thread(target=call, args=(index,))
                           for index in range(callers)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60.0)
            finally:
                sys.setswitchinterval(interval)
            assert not any(thread.is_alive() for thread in threads)
            client.close()
        assert not errors, errors[:3]
        assert 1 <= connection_log.connections(http_server) <= callers

    def test_shutdown_releases_idle_kept_alive_connections(
            self, connection_log):
        """A pooled connection does not keep its handler thread waiting
        out the idle timeout once the server shuts down."""
        http_server = _http_server(background=False).start()
        with HTTPClient(http_server.url) as client:
            client.health()
            started = time.monotonic()
            http_server.shutdown()
            assert connection_log.wait_closed(http_server, timeout=5.0)
            assert time.monotonic() - started < 5.0
            with pytest.raises(RemoteSolveError) as excinfo:
                client.health()
        assert excinfo.value.envelope.detail["kind"] == "connection"


@pytest.mark.parametrize("spelling", ["AUTO", " Auto "])
@pytest.mark.parametrize("transport", ["in_process", "wire_fidelity", "http"])
def test_auto_in_any_spelling_delegates_to_the_policy(transport, spelling):
    """``"auto"`` is admitted in any case and padding, like a family name,
    and answered exactly like a request that names no family."""
    matrix = pdd_real_sparse(40, density=0.2, dominance=3.0, seed=1)
    rhs = np.random.default_rng(3).standard_normal(matrix.shape[0])

    @contextlib.contextmanager
    def client_of(kind: str):
        cache = ArtifactCache(max_entries=8)
        if kind == "http":
            with _http_server(cache=cache, background=False) as http_server:
                with HTTPClient(http_server.url) as client:
                    yield client
        else:
            with InProcessClient(cache=cache, background=False,
                                 wire_fidelity=kind == "wire_fidelity"
                                 ) as client:
                yield client

    with client_of(transport) as client:
        policy = client.solve(SolveRequestV1(matrix=matrix, rhs=rhs))
        spelled = client.solve(SolveRequestV1(matrix=matrix, rhs=rhs,
                                              preconditioner=spelling))
    assert spelled.provenance == policy.provenance
    assert spelled.provenance["origin"] == "rule"
    assert spelled.iterations == policy.iterations
    assert np.array_equal(spelled.solution, policy.solution)


def _payload_kinds(client: HTTPClient) -> list[str]:
    """Spy on ``client``'s exchanges: for each request body it sends,
    ``"ref"`` or ``"inline"`` (raw matrices) or ``"name"``."""
    kinds: list[str] = []
    exchange_raw = client.exchange_raw

    def recording(method, path, *, body=None, headers=None):
        if body is not None:
            matrix = json.loads(body)["matrix"]
            kinds.append("name" if "name" in matrix else
                         "ref" if "ref" in matrix["csr"] else "inline")
        return exchange_raw(method, path, body=body, headers=headers)

    client.exchange_raw = recording
    return kinds


def _matrix_hashes(monkeypatch) -> list[str]:
    """Record every matrix fingerprint computed from here on."""
    import repro.sparse.fingerprint as fingerprint_module

    hashes: list[str] = []
    content_hash = fingerprint_module.content_hash

    def recording(*parts):
        digest = content_hash(*parts)
        if isinstance(parts[0], str) and parts[0].startswith("csr:"):
            hashes.append(digest)
        return digest

    monkeypatch.setattr(fingerprint_module, "content_hash", recording)
    return hashes


def _ref_counts(http_server: SolveHTTPServer) -> dict[str, int]:
    counters = http_server.solve_server.telemetry.snapshot()["counters"]
    return {outcome: counters.get(f'api.matrix_refs{{outcome="{outcome}"}}', 0)
            for outcome in ("held", "unknown")}


class TestMatrixByRef:
    """A matrix the server holds (from its second inline request on) is not
    sent again; later requests name it."""

    @staticmethod
    def _requests(matrix, n: int = 3) -> list[SolveRequestV1]:
        rng = np.random.default_rng(5)
        return [SolveRequestV1(matrix=matrix,
                               rhs=rng.standard_normal(matrix.shape[0]),
                               tag=f"r{index}") for index in range(n)]

    def test_header_names_match(self):
        from repro.client import http as client_http
        from repro.server import http as server_http

        assert client_http.MATRIX_HELD_HEADER == \
            server_http.MATRIX_HELD_HEADER

    def test_repeat_requests_go_by_ref_and_answer_bit_identically(self):
        matrix = pdd_real_sparse(40, density=0.2, dominance=3.0, seed=1)
        requests = self._requests(matrix, 4)
        with SolveServer(cache=ArtifactCache(max_entries=8),
                         background=False) as server:
            local = [server.solve(request) for request in requests]
        with _http_server(background=False) as http_server:
            client = HTTPClient(http_server.url)
            kinds = _payload_kinds(client)
            remote = [client.solve(request) for request in requests[:3]]
            job_id = client.submit(requests[3])
            assert http_server.solve_server.drain(timeout=60.0)
            remote.append(client.result(job_id, timeout=60.0))
            refs = _ref_counts(http_server)
            client.close()
        assert kinds == ["inline", "inline", "ref", "ref"]
        assert refs == {"held": 2, "unknown": 0}
        for ours, theirs in zip(local, remote):
            assert np.array_equal(ours.solution, theirs.solution)
            assert ours.iterations == theirs.iterations
            assert ours.fingerprint == theirs.fingerprint
            assert ours.provenance == theirs.provenance

    def test_server_hashes_an_inline_matrix_once_and_a_ref_never(
            self, monkeypatch):
        matrix = pdd_real_sparse(40, density=0.2, dominance=3.0, seed=1)
        request = self._requests(matrix, 1)[0]
        fingerprint = matrix_fingerprint(matrix)
        inline = json.dumps(request.to_json_dict()).encode()
        ref = json.dumps(request.to_json_dict({fingerprint})).encode()
        with _http_server(background=False) as http_server:
            with HTTPClient(http_server.url) as client:
                hashes = _matrix_hashes(monkeypatch)
                replies = [client.exchange_raw("POST", "/v1/solve",
                                               body=inline)]
                assert hashes == [fingerprint]
                replies.append(client.exchange_raw("POST", "/v1/solve",
                                                   body=inline))
                assert hashes == [fingerprint] * 2
                replies.append(client.exchange_raw("POST", "/v1/solve",
                                                   body=ref))
                assert hashes == [fingerprint] * 2
        assert [reply.status for reply in replies] == [200] * 3
        # Held from the second inline request on.
        assert [reply.headers.get("x-repro-matrix-held")
                for reply in replies] == [None, fingerprint, fingerprint]
        solutions = [json.loads(reply.body)["solution"] for reply in replies]
        assert solutions[0] == solutions[1] == solutions[2]

    def test_registry_matrix_reply_carries_no_held_header(self):
        body = json.dumps(SolveRequestV1(
            matrix="2DFDLaplace_16").to_json_dict()).encode()
        with _http_server(background=False) as http_server:
            with HTTPClient(http_server.url) as client:
                reply = client.exchange_raw("POST", "/v1/solve", body=body)
        assert reply.status == 200
        assert "x-repro-matrix-held" not in reply.headers

    def test_unknown_ref_is_404_unknown_matrix(self):
        fingerprint = "0123456789abcdef" * 2
        payload = SolveRequestV1(matrix=laplacian_2d(4)).to_json_dict()
        payload["matrix"] = {"csr": {"ref": fingerprint}}
        with _http_server(background=False) as http_server:
            status, body = _raw_exchange(http_server.url, "/v1/solve",
                                         json.dumps(payload).encode())
            refs = _ref_counts(http_server)
        assert status == 404
        assert body["code"] == "unknown_matrix"
        assert body["detail"] == {"fingerprint": fingerprint}
        assert refs == {"held": 0, "unknown": 1}

    @pytest.mark.parametrize("ref", [7, None, "A" * 32, "0" * 31, "prefix"])
    def test_malformed_ref_is_400_bad_request(self, ref):
        payload = SolveRequestV1(matrix=laplacian_2d(4)).to_json_dict()
        payload["matrix"] = {"csr": {"ref": ref}}
        with _http_server(background=False) as http_server:
            status, body = _raw_exchange(http_server.url, "/v1/solve",
                                         json.dumps(payload).encode())
        assert (status, body["code"]) == (400, "bad_request")

    def test_metric_label_prefix_of_a_held_fingerprint_does_not_resolve(self):
        matrix = laplacian_2d(4)
        with _http_server(background=False) as http_server:
            with HTTPClient(http_server.url) as client:
                for _ in range(2):
                    client.solve(SolveRequestV1(matrix=matrix))
                held = list(client._held)
            payload = SolveRequestV1(matrix=matrix).to_json_dict()
            payload["matrix"] = {"csr": {"ref": held[0][:12]}}
            status, body = _raw_exchange(http_server.url, "/v1/solve",
                                         json.dumps(payload).encode())
        assert held == [matrix_fingerprint(matrix)]
        assert (status, body["code"]) == (400, "bad_request")

    def test_eviction_answers_unknown_and_the_client_resends_inline_once(
            self, monkeypatch):
        from repro.server import http as server_http

        first = pdd_real_sparse(40, density=0.2, dominance=3.0, seed=1)
        second = pdd_real_sparse(40, density=0.2, dominance=3.0, seed=2)
        monkeypatch.setattr(server_http, "MAX_HELD_MATRIX_BYTES", max(
            m.data.nbytes + m.indices.nbytes + m.indptr.nbytes
            for m in (first, second)))
        with SolveServer(cache=ArtifactCache(max_entries=8),
                         background=False) as server:
            reference = server.solve(self._requests(first, 1)[0])
        with _http_server(background=False) as http_server:
            client = HTTPClient(http_server.url)
            kinds = _payload_kinds(client)
            for matrix in (first, first, second, second):  # evicts the first
                client.solve(self._requests(matrix, 1)[0])
            assert len(http_server.held_matrices) == 1
            again = client.solve(self._requests(first, 1)[0])
            refs = _ref_counts(http_server)
            held = list(client._held)
            client.close()
        assert kinds == ["inline"] * 4 + ["ref", "inline"]
        assert refs == {"held": 0, "unknown": 1}
        # An evicted matrix counts as seen: its inline re-send holds it again.
        assert held == [matrix_fingerprint(second), matrix_fingerprint(first)]
        assert np.array_equal(again.solution, reference.solution)
        assert again.iterations == reference.iterations

    def test_store_is_bounded_by_bytes(self):
        from repro.obs.metrics import MetricsRegistry
        from repro.server.http import HeldMatrices

        matrices = [pdd_real_sparse(40, density=0.2, dominance=3.0, seed=seed)
                    for seed in range(4)]
        sizes = [m.data.nbytes + m.indices.nbytes + m.indptr.nbytes
                 for m in matrices]
        store = HeldMatrices(sizes[0] + sizes[1] + sizes[2] // 2,
                             MetricsRegistry())
        for matrix in matrices:
            assert not store.hold(matrix_fingerprint(matrix), matrix)
            assert store.hold(matrix_fingerprint(matrix), matrix)
        assert len(store) == 2
        assert store.nbytes == sizes[2] + sizes[3] <= store.max_bytes
        assert store.resolve(matrix_fingerprint(matrices[3])) is matrices[3]
        assert store.resolve(matrix_fingerprint(matrices[0])) is None
        big = laplacian_2d(20)  # larger than the whole bound
        for _ in range(2):
            assert not store.hold(matrix_fingerprint(big), big)
        assert store.resolve(matrix_fingerprint(big)) is None
        assert len(store) == 2

    def test_matrices_that_never_repeat_are_not_held(self, monkeypatch):
        from repro.obs.metrics import MetricsRegistry
        from repro.server import http as server_http

        monkeypatch.setattr(server_http, "MAX_SEEN_FINGERPRINTS", 2)
        matrices = [pdd_real_sparse(40, density=0.2, dominance=3.0, seed=seed)
                    for seed in range(3)]
        store = server_http.HeldMatrices(1 << 20, MetricsRegistry())
        for matrix in matrices:
            assert not store.hold(matrix_fingerprint(matrix), matrix)
        assert len(store) == 0 and store.nbytes == 0
        # Only the two most recently seen fingerprints are remembered.
        assert not store.hold(matrix_fingerprint(matrices[0]), matrices[0])
        assert store.hold(matrix_fingerprint(matrices[2]), matrices[2])
        assert len(store) == 1

    def test_a_rejected_request_leaves_its_matrix_unheld(self):
        non_square = sp.csr_matrix(np.ones((3, 4)))
        payload = SolveRequestV1(matrix=non_square).to_json_dict()
        with _http_server(background=False) as http_server:
            status, body = _raw_exchange(http_server.url, "/v1/solve",
                                         json.dumps(payload).encode())
            held = len(http_server.held_matrices)
        assert (status, body["code"]) == (400, "invalid")
        assert held == 0

    def test_server_that_never_sends_the_header_never_gets_a_ref(
            self, monkeypatch):
        """An older server (no held header) only ever sees inline bodies."""
        from repro.server import http as server_http

        reply_headers = server_http._Handler._reply_headers

        def without_held(handler, request, trace_id):
            headers = reply_headers(handler, request, trace_id)
            headers.pop(server_http.MATRIX_HELD_HEADER, None)
            return headers

        monkeypatch.setattr(server_http._Handler, "_reply_headers",
                            without_held)
        matrix = laplacian_2d(6)
        with _http_server(background=False) as http_server:
            client = HTTPClient(http_server.url)
            kinds = _payload_kinds(client)
            for request in self._requests(matrix):
                client.solve(request)
            refs = _ref_counts(http_server)
            held = list(client._held)
            client.close()
        assert kinds == ["inline"] * 3
        assert held == []
        assert refs == {"held": 0, "unknown": 0}

    def test_client_held_set_is_bounded(self, monkeypatch):
        from repro.client import http as client_http

        monkeypatch.setattr(client_http, "MAX_HELD_FINGERPRINTS", 3)
        matrices = [laplacian_2d(3 + index) for index in range(5)]
        with _http_server(background=False) as http_server:
            with HTTPClient(http_server.url) as client:
                for matrix in matrices:
                    for _ in range(2):
                        client.solve(SolveRequestV1(matrix=matrix))
                held = list(client._held)
        assert held == [matrix_fingerprint(m) for m in matrices[-3:]]

    def test_unknown_matrix_code_is_typed(self):
        from repro.api import (
            ERROR_CODES,
            HTTP_STATUS_BY_CODE,
            UnknownMatrixError,
        )

        assert "unknown_matrix" in ERROR_CODES
        assert HTTP_STATUS_BY_CODE["unknown_matrix"] == 404
        envelope = ErrorEnvelope.from_exception(UnknownMatrixError("0" * 32))
        assert envelope.code == "unknown_matrix"
        assert envelope.http_status == 404
