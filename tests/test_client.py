"""Tests of the transport-blind client layer (ABC + InProcessClient) and
the HTTP client's reachability contract (timeouts, bounded retry, typed
``unavailable`` errors)."""

from __future__ import annotations

import socket
import threading
import time

import numpy as np
import pytest

from repro.api import (
    AdmissionError,
    RemoteSolveError,
    SolveRequestV1,
    TelemetrySnapshot,
)
from repro.client import Client, InProcessClient
from repro.matrices import laplacian_2d, pdd_real_sparse
from repro.service.cache import ArtifactCache


def _client(**kwargs) -> InProcessClient:
    kwargs.setdefault("cache", ArtifactCache(max_entries=32))
    kwargs.setdefault("background", False)
    return InProcessClient(**kwargs)


class TestClientABC:
    def test_cannot_instantiate_the_abc(self):
        with pytest.raises(TypeError):
            Client()

    def test_inprocess_client_is_a_client(self):
        with _client() as client:
            assert isinstance(client, Client)


class TestInProcessClient:
    def test_solve_round_trip(self):
        matrix = laplacian_2d(6)
        rhs = np.random.default_rng(0).standard_normal(matrix.shape[0])
        with _client() as client:
            response = client.solve(SolveRequestV1(matrix=matrix, rhs=rhs,
                                                   tag="x"))
        assert response.converged
        assert response.tag == "x"
        np.testing.assert_allclose(matrix @ response.solution, rhs, atol=1e-5)

    def test_submit_job_and_result(self):
        with _client() as client:
            job_id = client.submit(SolveRequestV1(matrix="2DFDLaplace_16"))
            assert client.job(job_id).state == "pending"
            client.drain(timeout=30.0)
            status = client.job(job_id)
            assert status.state == "done"
            assert status.error is None
            response = client.result(job_id, timeout=5.0)
            assert response.converged

    def test_unknown_job_raises_not_found(self):
        with _client() as client:
            with pytest.raises(RemoteSolveError) as excinfo:
                client.job(10_000)
            assert excinfo.value.envelope.code == "not_found"

    def test_admission_rejection_is_the_same_exception(self):
        with _client(max_queue_depth=1) as client:
            client.submit(SolveRequestV1(matrix="2DFDLaplace_16"))
            with pytest.raises(AdmissionError) as excinfo:
                client.submit(SolveRequestV1(matrix="2DFDLaplace_16"))
            assert excinfo.value.reason == "queue_full"
            client.drain(timeout=30.0)

    def test_metrics_and_health(self):
        with _client() as client:
            client.solve(SolveRequestV1(matrix=laplacian_2d(5)))
            metrics = client.metrics()
            assert isinstance(metrics, TelemetrySnapshot)
            assert metrics.counters["solves_total"] == 1
            assert metrics.queue["admitted"] == 1
            health = client.health()
            assert health["status"] == "ok"
            assert health["kind"] == "health"

    def test_wire_fidelity_round_trip_changes_nothing(self):
        matrix = pdd_real_sparse(40, density=0.2, dominance=3.0, seed=1)
        rhs = np.random.default_rng(1).standard_normal(40)
        request = SolveRequestV1(matrix=matrix, rhs=rhs)
        with _client(wire_fidelity=True) as codec_client:
            through_codec = codec_client.solve(request)
        with _client(wire_fidelity=False) as direct_client:
            direct = direct_client.solve(request)
        assert np.array_equal(through_codec.solution, direct.solution)
        assert through_codec.iterations == direct.iterations
        assert through_codec.provenance == direct.provenance
        assert (through_codec.termination, through_codec.true_residual) == (
            direct.termination, direct.true_residual)
        assert direct.termination == "converged"

    def test_borrowed_server_is_not_shut_down(self):
        from repro.server import SolveServer

        server = SolveServer(cache=ArtifactCache(max_entries=8),
                             background=False)
        client = InProcessClient(server)
        client.solve(SolveRequestV1(matrix=laplacian_2d(4)))
        client.close()
        assert not server.queue.closed  # still usable by its real owner
        server.shutdown()

    def test_failed_job_surfaces_error_envelope(self, monkeypatch):
        with _client() as client:
            job_id = client.submit(SolveRequestV1(matrix="2DFDLaplace_16"))

            def boom(batch):
                raise RuntimeError("scheduler exploded")

            monkeypatch.setattr(client.server.scheduler, "execute", boom)
            client.drain(timeout=10.0)
            status = client.job(job_id)
            assert status.state == "failed"
            assert status.error is not None
            assert status.error.code == "internal"
            with pytest.raises(RemoteSolveError):
                client.result(job_id, timeout=5.0)


class TestHTTPClientReachability:
    """The hardening satellite: every way a server can be unreachable must
    surface as a typed ``unavailable`` :class:`RemoteSolveError` naming the
    target address — never a raw socket exception or an infinite hang."""

    def _free_port(self) -> int:
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            return probe.getsockname()[1]

    def test_rejects_bad_urls_and_negative_retries(self):
        from repro.client import HTTPClient
        from repro.exceptions import ParameterError

        with pytest.raises(ParameterError):
            HTTPClient("ftp://example.com")
        with pytest.raises(ParameterError):
            HTTPClient("not a url")
        with pytest.raises(ParameterError):
            HTTPClient("http://127.0.0.1:1", connect_retries=-1)

    def test_connection_refused_is_typed_with_the_target_address(self):
        from repro.client import HTTPClient

        url = f"http://127.0.0.1:{self._free_port()}"
        client = HTTPClient(url, connect_timeout=2.0, connect_retries=0)
        with pytest.raises(RemoteSolveError) as excinfo:
            client.health()
        envelope = excinfo.value.envelope
        assert envelope.code == "unavailable"
        assert envelope.detail["kind"] == "connection"
        assert envelope.detail["url"] == url
        assert url in envelope.message

    def test_refused_retry_budget_is_bounded(self):
        from repro.client import HTTPClient

        url = f"http://127.0.0.1:{self._free_port()}"
        # connect_retries=1 dials twice, then surfaces the typed error
        # rather than spinning.
        client = HTTPClient(url, connect_timeout=2.0, connect_retries=1)
        with pytest.raises(RemoteSolveError) as excinfo:
            client.health()
        assert excinfo.value.envelope.code == "unavailable"

    def test_hung_server_trips_the_read_timeout(self):
        from repro.client import HTTPClient

        # A listener that accepts and then never answers: the connect
        # succeeds, so only the *read* timeout can save the caller.
        listener = socket.socket()
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)
        port = listener.getsockname()[1]
        accepted: list[socket.socket] = []

        def accept_and_stall():
            try:
                conn, _ = listener.accept()
                accepted.append(conn)
            except OSError:
                pass

        stall = threading.Thread(target=accept_and_stall, daemon=True)
        stall.start()
        try:
            client = HTTPClient(f"http://127.0.0.1:{port}", timeout=0.3,
                                connect_timeout=2.0, connect_retries=0)
            with pytest.raises(RemoteSolveError) as excinfo:
                client.health()
            assert excinfo.value.envelope.code == "unavailable"
            assert excinfo.value.envelope.detail["kind"] == "timeout"
        finally:
            listener.close()
            for conn in accepted:
                conn.close()

    def test_server_dying_mid_request_is_a_connection_failure(self):
        from repro.client import HTTPClient

        # Accept, read a little, then slam the socket shut with RST: the
        # client must classify it as kind="connection" (the fleet router's
        # failover signal), not crash with a raw socket error.
        listener = socket.socket()
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)
        port = listener.getsockname()[1]

        def accept_and_reset():
            conn, _ = listener.accept()
            conn.recv(64)
            conn.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER,
                            b"\x01\x00\x00\x00\x00\x00\x00\x00")
            conn.close()

        resetter = threading.Thread(target=accept_and_reset, daemon=True)
        resetter.start()
        try:
            client = HTTPClient(f"http://127.0.0.1:{port}", timeout=5.0,
                                connect_timeout=2.0, connect_retries=0)
            with pytest.raises(RemoteSolveError) as excinfo:
                client.health()
            assert excinfo.value.envelope.code == "unavailable"
            assert excinfo.value.envelope.detail["kind"] == "connection"
        finally:
            listener.close()


class TestResultWaits:
    """``Client.result`` waits through one hook, and paces only a
    transport that answers at once."""

    def test_in_process_result_blocks_on_the_job(self, monkeypatch):
        with _client() as client:
            job_id = client.submit(SolveRequestV1(matrix="2DFDLaplace_16"))
            asks: list[float] = []
            await_job = client._await_job

            def counting(job_id, wait):
                asks.append(wait)
                return await_job(job_id, wait)

            monkeypatch.setattr(client, "_await_job", counting)
            drainer = threading.Timer(0.3, client.drain)
            drainer.start()
            response = client.result(job_id, timeout=30.0, poll_interval=0.01)
            drainer.join()
        assert response.converged
        assert len(asks) == 1 and 29.0 < asks[0] <= 30.0

    def test_result_times_out_without_a_finished_job(self):
        with _client() as client:
            job_id = client.submit(SolveRequestV1(matrix="2DFDLaplace_16"))
            started = time.monotonic()
            with pytest.raises(TimeoutError):
                client.result(job_id, timeout=0.2)
            assert 0.2 <= time.monotonic() - started < 2.0

    def test_a_server_that_ignores_wait_is_polled_at_the_interval(
            self, monkeypatch):
        """An older server answers every job request at once: ``result``
        still completes, asking about once per ``poll_interval``."""
        from repro.client import HTTPClient
        from repro.server.http import SolveHTTPServer

        monkeypatch.setattr(SolveHTTPServer.handler_class, "_job_wait",
                            staticmethod(lambda query: 0.0))
        with SolveHTTPServer(port=0, cache=ArtifactCache(max_entries=8),
                             background=False) as http_server:
            with HTTPClient(http_server.url) as client:
                job_id = client.submit(SolveRequestV1(matrix="2DFDLaplace_16"))
                asks: list[float] = []
                exchange_raw = client.exchange_raw

                def recording(method, path, **kwargs):
                    if path.startswith("/v1/jobs/"):
                        asks.append(time.monotonic())
                    return exchange_raw(method, path, **kwargs)

                monkeypatch.setattr(client, "exchange_raw", recording)
                drainer = threading.Timer(
                    0.5, http_server.solve_server.drain)
                drainer.start()
                response = client.result(job_id, timeout=30.0,
                                         poll_interval=0.05)
                drainer.join()
        assert response.converged
        gaps = np.diff(asks)
        assert 2 <= len(asks) <= 16, len(asks)
        assert gaps.min() >= 0.045, gaps.min()
