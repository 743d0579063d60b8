"""HTTP implementation of the :class:`~repro.client.base.Client` ABC.

Speaks the versioned wire protocol of :mod:`repro.api` over stdlib
``http.client`` — no new dependencies — against the endpoints served by
:class:`repro.server.http.SolveHTTPServer` (or the fleet router, which
exposes the same schema).  Error envelopes returned by the server are
re-raised as the same exceptions an in-process caller would see
(:class:`~repro.api.errors.AdmissionError` for admission rejections,
:class:`~repro.api.errors.RemoteSolveError` otherwise), so a caller's
``except`` clauses are transport-blind too.

Reachability is part of the contract: the client separates the *connect*
timeout (how long to wait for the server to accept) from the *read* timeout
(how long to wait for an answer — a synchronous solve holds the response
until the solve finishes), retries exactly once on connection-refused (the
server may be mid-restart; nothing was sent, so the retry is safe for any
method), and surfaces every connection-level failure as a typed
:class:`~repro.api.errors.RemoteSolveError` whose envelope carries the
``unavailable`` code, the target address and a ``kind`` of ``"connection"``
or ``"timeout"`` — a hung replica can no longer hang the caller forever.
The fleet router keys its failover decision on exactly this surface.

Connections are reused: an exchange that ends with the server keeping the
HTTP/1.1 connection open returns it to a small pool
(:data:`MAX_IDLE_CONNECTIONS`), and the next exchange — from any thread —
takes it back out, so one connection is never used by two threads at once.
A server may close an idle connection at any time (its idle timeout, a
restart).  A *reused* connection that fails before any reply arrives is
therefore stale, not a sign of an unreachable server: the exchange is sent
once more on a fresh connection, and only that fresh attempt's failure is
reported — so a stale connection never reads as ``kind="connection"`` and
never makes the router fail over from a live replica.
:meth:`HTTPClient.close` closes the pooled connections.

A raw matrix that repeats is not sent again.  A server that holds a
request's matrix (it does from the matrix's second inline request on) says
so in the reply's ``X-Repro-Matrix-Held`` header, and the client remembers
that fingerprint (at most :data:`MAX_HELD_FINGERPRINTS`, least recently used
out) and sends later requests over the same matrix as
``{"ref": fingerprint}`` instead of its CSR blocks.  A reply without the
header makes the client forget the fingerprint again.  When the server no
longer holds a ref'd matrix — evicted, restarted, or the fleet moved the
shard to another replica — it answers ``unknown_matrix``, and the client
sends the request once more with the matrix inline, within the same call: a
caller never sees that code.  A server that never sends the header never
receives a ref.

A client fingerprints each matrix object once (:class:`MatrixFingerprints`):
a later request over the same object reuses the fingerprint, so a by-ref
request does not read the matrix at all and an inline one only encodes it.
The memo checks cheaply that the object is unchanged (the same object, its
arrays at the same addresses, the same values at a sample of entries), so
**a matrix must not be changed in place once it has been sent**: send a new
matrix object instead.  A change the check misses would send a stale
fingerprint — inline, the server's integrity check refuses the request; by
ref, the server solves the matrix it holds under that fingerprint.

:meth:`~repro.client.base.Client.result` collects a queued job with one
long poll, ``GET /v1/jobs/<id>?wait=<s>``: the server holds the reply until
the job finishes (up to its own cap), so a job costs one exchange, not a
poll every ``poll_interval``.  The wait asked for is the rest of the
caller's timeout, capped at :data:`MAX_WAIT_SHARE` of the read timeout so
the reply always arrives before the socket gives up.  A server that ignores
``wait`` answers at once and is polled as before; :meth:`HTTPClient.job`
never waits.
"""

from __future__ import annotations

import http.client
import json
import threading
import time
import weakref
from typing import NamedTuple
from urllib.parse import urlsplit

import numpy as np
import scipy.sparse as sp

from repro.api.errors import (
    ERROR_UNAVAILABLE,
    ERROR_UNKNOWN_MATRIX,
    ErrorEnvelope,
    RemoteSolveError,
    SchemaError,
)
from repro.api.schemas import (
    JobStatusV1,
    SolveRequestV1,
    SolveResponseV1,
    TelemetrySnapshot,
)
from repro.client.base import Client
from repro.exceptions import ParameterError
from repro.obs.trace import current_trace_id
from repro.service.cache import ArtifactCache

__all__ = ["HTTPClient", "MatrixFingerprints", "RawReply"]

#: Mirror of :data:`repro.server.http.TRACE_HEADER` — repeated here so the
#: client stays a pure wire-protocol speaker with no server-package import
#: (equality is asserted in ``tests/test_server_tracing.py``).
TRACE_HEADER = "X-Repro-Trace-Id"

#: Mirror of :data:`repro.server.http.MATRIX_HELD_HEADER`, for the same
#: reason.
MATRIX_HELD_HEADER = "X-Repro-Matrix-Held"

#: Pause before the single connection-refused retry, giving a restarting
#: server a beat to bind without turning the retry into a spin.
RETRY_BACKOFF_S = 0.05

#: Idle keep-alive connections one client holds for reuse; an exchange that
#: finds the pool full closes its connection instead.
MAX_IDLE_CONNECTIONS = 8

#: Fingerprints of matrices the server said it holds, remembered per client.
MAX_HELD_FINGERPRINTS = 256

#: Matrix objects whose fingerprints one client remembers.
MAX_MEMO_MATRICES = 256

#: About how many entries of each array a remembered fingerprint's check
#: compares.
MEMO_SAMPLES = 32

#: Share of the read timeout a job request may ask the server to wait
#: (``?wait=``); the rest is the margin for its reply to arrive in.
MAX_WAIT_SHARE = 0.5


def _sample(array: np.ndarray) -> bytes:
    """The bytes of about :data:`MEMO_SAMPLES` entries spread evenly over
    ``array`` (all of them in a small one)."""
    return array.flat[::max(array.size // MEMO_SAMPLES, 1)].tobytes()


def _memo_check(matrix) -> tuple | None:
    """What must be unchanged for a remembered fingerprint of ``matrix`` to
    hold: shape, dtype, the arrays' addresses and a sample of their entries.
    ``None`` for a matrix kind the memo does not take (only CSR and dense
    arrays)."""
    if isinstance(matrix, np.ndarray):
        arrays = (matrix,)
    elif sp.issparse(matrix) and matrix.format == "csr":
        arrays = (matrix.data, matrix.indices, matrix.indptr)
    else:
        return None
    return (matrix.shape, matrix.dtype.str,
            tuple((array.ctypes.data, array.shape, array.strides,
                   _sample(array)) for array in arrays))


class MatrixFingerprints:
    """Fingerprints of the matrix objects a client has sent, at most
    :data:`MAX_MEMO_MATRICES`, least recently used out.

    A fingerprint is kept with a weak reference to its matrix object and
    :func:`_memo_check` of it, and returned only while both still match:
    the same object, its arrays at the same addresses and shapes, the same
    bytes at about :data:`MEMO_SAMPLES` entries of each.  That check is
    cheap and not a proof: a matrix must not be changed in place once it
    has been sent.
    """

    def __init__(self, max_entries: int = MAX_MEMO_MATRICES) -> None:
        # id(matrix) -> (weak reference, check, fingerprint)
        self._entries = ArtifactCache(max_entries)

    def get(self, matrix) -> str | None:
        """The remembered fingerprint of ``matrix``, if it still holds."""
        entry = self._entries.get(id(matrix))
        if entry is None:
            return None
        reference, check, fingerprint = entry
        if reference() is not matrix or _memo_check(matrix) != check:
            return None
        return fingerprint

    def put(self, matrix, fingerprint: str) -> None:
        """Remember ``fingerprint`` for ``matrix`` as it stands now."""
        check = _memo_check(matrix)
        if check is not None:
            self._entries.put(id(matrix),
                              (weakref.ref(matrix), check, fingerprint))


class _StaleConnection(Exception):
    """A reused connection failed before any reply: the server closed it."""


class RawReply(NamedTuple):
    """One raw HTTP exchange: status, lower-cased headers, body bytes."""

    status: int
    headers: dict[str, str]
    body: bytes


class HTTPClient(Client):
    """Talk to a solve server (or fleet router) over HTTP/JSON.

    Parameters
    ----------
    base_url:
        The server's base URL, e.g. ``"http://127.0.0.1:8080"`` (a trailing
        slash is tolerated).
    timeout:
        *Read* timeout in seconds: how long to wait for the response once
        connected.  Synchronous ``/v1/solve`` calls hold the response until
        the solve finishes, so this also bounds solve time.
    connect_timeout:
        How long to wait for the server to accept the connection.  Kept
        separate from ``timeout`` so an unreachable server fails fast even
        when long solves are allowed.
    connect_retries:
        Bounded retry budget for *connection-refused* failures only (the
        request was never sent, so a retry cannot double-execute anything).
        ``1`` (the default) retries once after :data:`RETRY_BACKOFF_S`;
        ``0`` fails immediately — the fleet router uses ``0`` and handles
        failover itself through the ring.
    """

    def __init__(self, base_url: str, *, timeout: float = 300.0,
                 connect_timeout: float = 10.0,
                 connect_retries: int = 1) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout = float(timeout)
        self.connect_timeout = float(connect_timeout)
        if connect_retries < 0:
            raise ParameterError(
                f"connect_retries must be >= 0, got {connect_retries}")
        self.connect_retries = int(connect_retries)
        parts = urlsplit(self.base_url)
        if parts.scheme not in ("http", "https") or parts.hostname is None:
            raise ParameterError(
                f"base_url must be an http(s) URL with a host, "
                f"got {base_url!r}")
        self._scheme = parts.scheme
        self._host = parts.hostname
        self._port = parts.port or (443 if parts.scheme == "https" else 80)
        self._path_prefix = parts.path.rstrip("/")
        self._idle: list[http.client.HTTPConnection] = []
        self._idle_lock = threading.Lock()
        self._closed = False
        # Fingerprints the server holds, least recently confirmed first.
        self._held = ArtifactCache(MAX_HELD_FINGERPRINTS)
        self._fingerprints = MatrixFingerprints()

    # -- reachability failures ----------------------------------------------
    def _unavailable(self, kind: str, error: BaseException) -> RemoteSolveError:
        return RemoteSolveError(ErrorEnvelope(
            code=ERROR_UNAVAILABLE,
            message=f"{self.base_url} unreachable: {error} "
                    f"({type(error).__name__})",
            detail={"url": self.base_url, "kind": kind,
                    "error": type(error).__name__}))

    # -- connections ---------------------------------------------------------
    def _connect(self) -> http.client.HTTPConnection:
        connection_cls = (http.client.HTTPSConnection
                          if self._scheme == "https"
                          else http.client.HTTPConnection)
        connection = connection_cls(self._host, self._port,
                                    timeout=self.connect_timeout)
        try:
            connection.connect()
        except BaseException:
            connection.close()
            raise
        # Connected: further socket waits are governed by the read timeout
        # (a sync solve legitimately takes a while).
        connection.sock.settimeout(self.timeout)
        return connection

    def _take_idle(self) -> http.client.HTTPConnection | None:
        # Most recently pooled first: the one least likely to have idled
        # past the server's timeout.
        with self._idle_lock:
            return self._idle.pop() if self._idle else None

    def _release(self, connection: http.client.HTTPConnection) -> None:
        with self._idle_lock:
            if not self._closed and len(self._idle) < MAX_IDLE_CONNECTIONS:
                self._idle.append(connection)
                return
        connection.close()

    def _send(self, connection: http.client.HTTPConnection, method: str,
              path: str, body: bytes | None, headers: dict[str, str], *,
              reused: bool) -> RawReply:
        """One request and its reply on ``connection``.

        The connection goes back to the pool when the server keeps it open
        and is closed otherwise.  A *reused* connection that fails before
        the reply's status line and headers are read raises
        :class:`_StaleConnection`: the server closed it while it idled.
        """
        try:
            try:
                connection.request(method, self._path_prefix + path,
                                   body=body, headers=headers)
                reply = connection.getresponse()
            except ConnectionError as error:
                if reused:
                    raise _StaleConnection() from error
                raise
            data = reply.read()
        except BaseException:
            connection.close()
            raise
        if reply.will_close:
            connection.close()
        else:
            self._release(connection)
        return RawReply(reply.status,
                        {key.lower(): value
                         for key, value in reply.getheaders()},
                        data)

    def _one_exchange(self, method: str, path: str, body: bytes | None,
                      headers: dict[str, str]) -> RawReply:
        connection = self._take_idle()
        if connection is not None:
            try:
                return self._send(connection, method, path, body, headers,
                                  reused=True)
            except _StaleConnection:
                pass  # nothing was answered: send again on a fresh one
        return self._send(self._connect(), method, path, body, headers,
                          reused=False)

    def exchange_raw(self, method: str, path: str, *,
                     body: bytes | None = None,
                     headers: dict[str, str] | None = None) -> RawReply:
        """One raw HTTP exchange with the reachability contract applied.

        Returns the reply whatever its status (callers map error envelopes
        themselves — the fleet router proxies 4xx/5xx bodies verbatim).
        Raises :class:`~repro.api.errors.RemoteSolveError` with the
        ``unavailable`` envelope when the server cannot be reached at all:
        connection refused (after the bounded retry), connection reset /
        dropped mid-exchange (``kind="connection"``), or a connect/read
        timeout (``kind="timeout"``).  A pooled connection the server closed
        while it idled is none of these: the exchange goes out again on a
        fresh connection, and only that attempt's failure is reported.
        """
        headers = dict(headers or {})
        attempts = self.connect_retries + 1
        for attempt in range(attempts):
            try:
                return self._one_exchange(method, path, body, headers)
            except ConnectionRefusedError as error:
                if attempt + 1 < attempts:
                    time.sleep(RETRY_BACKOFF_S)
                    continue
                raise self._unavailable("connection", error) from error
            except TimeoutError as error:
                raise self._unavailable("timeout", error) from error
            except (ConnectionError, http.client.HTTPException) as error:
                # Reset / remote-disconnected / garbled status line: the
                # server died mid-exchange.  Not retried here — whether a
                # re-send is safe is the caller's call (the router only
                # retries idempotent requests, against another replica).
                raise self._unavailable("connection", error) from error
            except OSError as error:
                raise self._unavailable("connection", error) from error
        raise AssertionError("unreachable")  # pragma: no cover

    def _exchange_reply(self, method: str, path: str,
                        payload: dict | None = None) -> RawReply:
        headers = {"Content-Type": "application/json"}
        # Propagate the ambient trace id so a traced server joins the
        # caller's trace instead of minting a fresh one per request.
        trace_id = current_trace_id()
        if trace_id is not None:
            headers[TRACE_HEADER] = trace_id
        body = (None if payload is None
                else json.dumps(payload).encode("utf-8"))
        reply = self.exchange_raw(method, path, body=body, headers=headers)
        if reply.status >= 400:
            try:
                envelope = ErrorEnvelope.from_json_dict(
                    json.loads(reply.body.decode("utf-8")))
            except Exception:
                raise SchemaError(
                    f"server answered HTTP {reply.status} without a "
                    f"parseable error envelope: {reply.body[:200]!r}")
            envelope.raise_()
        return reply

    @staticmethod
    def _json(body: bytes) -> dict:
        try:
            return json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            raise SchemaError(
                f"server answer is not valid JSON ({error}): {body[:200]!r}")

    def _exchange(self, method: str, path: str, payload: dict | None = None
                  ) -> dict:
        return self._json(self._exchange_reply(method, path, payload).body)

    # -- matrices by ref ------------------------------------------------------
    def _post_request(self, path: str, request: SolveRequestV1) -> dict:
        """POST a solve request, its matrix by ref when the server holds it.

        An ``unknown_matrix`` answer to a ref re-sends the request once with
        the matrix inline.  The reply's held-matrix header then records
        whether the server holds the matrix now.
        """
        matrix = request.matrix
        fingerprint = (None if isinstance(matrix, str)
                       else self._fingerprints.get(matrix))
        payload = request.to_json_dict(self._held, fingerprint)
        block = payload["matrix"].get("csr")
        if block is not None and fingerprint is None:
            fingerprint = block.get("ref") or block["fingerprint"]
            self._fingerprints.put(matrix, fingerprint)
        try:
            reply = self._exchange_reply("POST", path, payload)
        except RemoteSolveError as error:
            if (block is None or "ref" not in block
                    or error.envelope.code != ERROR_UNKNOWN_MATRIX):
                raise
            self._held.pop(block["ref"])
            payload = request.to_json_dict((), fingerprint)
            block = payload["matrix"]["csr"]
            reply = self._exchange_reply("POST", path, payload)
        if block is not None:
            if reply.headers.get(MATRIX_HELD_HEADER.lower()) == fingerprint:
                self._held.put(fingerprint, True)
            else:
                self._held.pop(fingerprint)
        return self._json(reply.body)

    # -- Client API ----------------------------------------------------------
    def solve(self, request: SolveRequestV1) -> SolveResponseV1:
        """``POST /v1/solve``: serve one request synchronously."""
        payload = self._post_request("/v1/solve", request)
        return SolveResponseV1.from_json_dict(payload)

    def submit(self, request: SolveRequestV1) -> int:
        """``POST /v1/submit``: queue one request, returning its job id."""
        payload = self._post_request("/v1/submit", request)
        return JobStatusV1.from_json_dict(payload).job_id

    def _await_job(self, job_id: int, wait: float) -> JobStatusV1:
        """``GET /v1/jobs/<id>`` (``?wait=<s>`` when waiting), ``wait``
        capped at :data:`MAX_WAIT_SHARE` of the read timeout."""
        path = f"/v1/jobs/{int(job_id)}"
        wait = min(wait, self.timeout * MAX_WAIT_SHARE)
        if wait > 0:
            path += f"?wait={wait:.3f}"
        return JobStatusV1.from_json_dict(self._exchange("GET", path))

    def metrics(self) -> TelemetrySnapshot:
        """``GET /v1/metrics``: the server's telemetry snapshot."""
        payload = self._exchange("GET", "/v1/metrics")
        return TelemetrySnapshot.from_json_dict(payload)

    def metrics_prometheus(self) -> str:
        """``GET /v1/metrics?format=prometheus``: text exposition format."""
        reply = self._exchange_reply("GET", "/v1/metrics?format=prometheus")
        return reply.body.decode("utf-8")

    def health(self) -> dict:
        """``GET /v1/healthz``: liveness + queue state."""
        return self._exchange("GET", "/v1/healthz")

    def close(self) -> None:
        """Close the pooled idle connections.

        The client stays usable, but stops pooling: a later exchange opens
        a fresh connection and closes it when it ends, and so does an
        exchange that was in flight in another thread.
        """
        with self._idle_lock:
            self._closed = True
            idle, self._idle = self._idle, []
        for connection in idle:
            connection.close()
