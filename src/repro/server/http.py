"""HTTP/JSON transport for the solve server (stdlib only).

Exposes a running :class:`~repro.server.server.SolveServer` over the
versioned wire protocol of :mod:`repro.api`, using nothing beyond
``http.server.ThreadingHTTPServer`` — no new dependencies.  The adapter is a
thin shell: every request is decoded into the same
:class:`~repro.api.schemas.SolveRequestV1` the in-process path admits, runs
through the *untouched* queue/scheduler/policy, and the response is encoded
losslessly — an HTTP round-trip under a fixed seed is bit-identical to the
in-process path (tested in ``tests/test_server_http.py``).

Endpoints
---------
=======  =================  ===================================================
method   path               body / answer
=======  =================  ===================================================
POST     ``/v1/solve``      ``solve_request`` → ``solve_response`` (sync)
POST     ``/v1/submit``     ``solve_request`` → ``job_status`` (queued, 202)
GET      ``/v1/jobs/<id>``  → ``job_status`` (result / error once finished;
                             ``?wait=<s>`` holds the reply until the job
                             finishes, at most :data:`MAX_JOB_WAIT_S`)
GET      ``/v1/metrics``    → ``telemetry`` snapshot
                             (``?format=prometheus`` → text exposition)
GET      ``/v1/healthz``    → liveness + queue state
GET      ``/v1/learn``      → online-learning status (trainer state, model
                             version, record counters; ``enabled: false``
                             on a learning-free server)
=======  =================  ===================================================

Tracing: a client may send an ``X-Repro-Trace-Id`` header on solve/submit;
the server pins it as the ambient trace id for the request (so a traced
server's spans join the caller's trace) and echoes the id — the client's, or
the server-generated one when tracing is on — on the response header and in
``SolveResponseV1.trace_id``.

Matrices by reference: a raw matrix that comes inline a second time is
kept, in a store bounded by bytes (:class:`HeldMatrices`, keyed by the
fingerprint the decode verified) — a stream of matrices that never repeat
keeps none of them — and a 200/202 reply to a request over a raw matrix
carries ``X-Repro-Matrix-Held: <fingerprint>`` when the store holds it.
A client that saw the header may send ``{"ref": <fingerprint>}`` in place
of the CSR blocks; the ref is resolved at decode, so a queued job holds the
matrix itself.  A ref the store does not hold (evicted, or never sent here)
answers ``unknown_matrix`` (404) and the client sends the request inline.
The ``api.matrix_refs`` counter, labelled ``outcome`` (``held`` /
``unknown``), counts the refs resolved and missed.

Waiting for a job: ``wait`` must be a finite number of seconds >= 0 (else
``bad_request``) and is clamped to :data:`MAX_JOB_WAIT_S`.  The handler
waits on the job through :meth:`~repro.server.queue.Job.wait` in slices of
:data:`JOB_WAIT_SLICE_S`, and answers the job's current state as soon as the
listener shuts down, so a held reply never holds up a shutdown.

Connections are HTTP/1.1 keep-alive: every accepted socket has
``TCP_NODELAY`` set, an idle one is closed after :data:`IDLE_TIMEOUT_S`, and
shutting a listener down half-closes every open one, so idle handler
threads exit at once while replies in flight still go out.

Failures travel as :class:`~repro.api.errors.ErrorEnvelope` bodies under the
HTTP status of their code: admission rejections keep their structured reason
(``invalid`` → 400, ``queue_full`` → 429, ``draining``/``closed`` → 503),
malformed JSON and schema violations map to ``bad_request`` (400), version
mismatches to ``unsupported_version`` (400), unknown jobs/paths to
``not_found`` (404), an unheld matrix ref to ``unknown_matrix`` (404), and
anything unexpected to ``internal`` (500).
"""

from __future__ import annotations

import json
import math
import socket
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs

import scipy.sparse as sp

from repro.api.errors import (
    AdmissionError,
    ErrorEnvelope,
    ERROR_NOT_FOUND,
    SchemaError,
)
from repro.api.schemas import SolveRequestV1, TelemetrySnapshot
from repro.logging_utils import get_logger
from repro.obs.metrics import MetricsRegistry
from repro.obs.prometheus import render_prometheus
from repro.obs.trace import use_trace_id
from repro.server.queue import JobRegistry, job_status
from repro.server.server import SolveServer
from repro.service.cache import ArtifactCache
from repro.version import __version__

__all__ = ["SolveHTTPServer", "WireHandler", "WireListener", "HeldMatrices",
           "TRACE_HEADER", "MATRIX_HELD_HEADER"]

_LOG = get_logger("server.http")

#: Request bodies beyond this size are rejected (``bad_request``) before any
#: decoding work happens — a wire server must bound what it buffers.
MAX_BODY_BYTES = 256 * 1024 * 1024

#: Header propagating a request's trace id in both directions.
TRACE_HEADER = "X-Repro-Trace-Id"

#: Reply header naming the fingerprint of a request's raw matrix while the
#: server holds that matrix, so the client may send it by ref next time.
MATRIX_HELD_HEADER = "X-Repro-Matrix-Held"

#: Bytes of CSR arrays a server keeps for requests by ref.  Bounded by bytes,
#: not entries: one inline body may be up to :data:`MAX_BODY_BYTES`.  Only
#: matrices that came inline twice are kept, so the bound is what traffic
#: sending each matrix exactly twice costs: the store fills with matrices
#: never asked for again.  8 MiB holds about 30 of the 2500-row, 265 kB
#: matrices of the ``wire_fleet`` benchmark (which repeats 3 of them), or one
#: matrix of about 700,000 nonzeros; a full store adds about 1.6 times its
#: size to the process's RSS (two stores: 117 -> 144 MB, measured with
#: 1200 such matrices sent twice each).
MAX_HELD_MATRIX_BYTES = 8 * 1024 * 1024

#: Fingerprints of raw matrices seen inline once and not (or no longer)
#: held; the second inline request over one of them holds its matrix.
MAX_SEEN_FINGERPRINTS = 1024

#: Longest accepted inbound trace id (anything longer is ignored — the
#: header is client-controlled and must not become an amplification vector
#: for span attributes and logs).
MAX_TRACE_ID_CHARS = 128

#: Seconds a keep-alive connection may sit idle between requests before its
#: handler thread closes it.  Clients reuse connections (see
#: :mod:`repro.client.http`), so without a bound every client that went
#: away without closing would pin a handler thread for good.
IDLE_TIMEOUT_S = 30.0

#: Longest a ``GET /v1/jobs/<id>?wait=`` holds its reply for an unfinished
#: job; a longer ``wait`` is clamped to it.  The client asks again when the
#: job is still unfinished, so this bounds only how long one handler thread
#: waits, never how long a caller may wait.
MAX_JOB_WAIT_S = 5.0

#: A waiting job request checks for the listener's shutdown this often, so
#: shutting down answers it within one slice instead of at the cap.
JOB_WAIT_SLICE_S = 0.05


class WireHandler(BaseHTTPRequestHandler):
    """Transport plumbing shared by every ``/v1/*`` JSON wire handler.

    Owns the parts of speaking the wire protocol that are independent of
    *what* is being served: JSON/text responses with correct framing, typed
    :class:`~repro.api.errors.ErrorEnvelope` answers, bounded body reading,
    keep-alive-safe body draining, trace-header extraction, the
    ``/v1/metrics`` answer in both formats and the exception-to-envelope
    dispatch.  :class:`SolveHTTPServer`'s handler and
    the fleet router's front end (:mod:`repro.fleet.router`) both subclass
    this, so the two wire surfaces cannot drift apart.
    """

    protocol_version = "HTTP/1.1"
    server_version = f"repro-serve/{__version__}"

    #: ``TCP_NODELAY`` on every accepted connection.  A reply goes out as
    #: headers, then body; with Nagle on, a reused connection holds the body
    #: back until the client's delayed ACK of the headers, some 40 ms a reply.
    disable_nagle_algorithm = True

    #: Socket timeout of the connection: bounds how long it idles between
    #: requests (and any single read or write within one).
    timeout = IDLE_TIMEOUT_S

    #: Logger of the concrete handler (subclasses override for their own
    #: channel).
    wire_log = _LOG

    # -- plumbing ------------------------------------------------------------
    def log_message(self, format: str, *args) -> None:  # noqa: A002
        self.wire_log.debug("%s - %s", self.address_string(), format % args)

    def parse_request(self) -> bool:
        parsed = super().parse_request()
        if parsed and self.server.closing:
            # Read after shutdown began, so not in flight: it goes unanswered,
            # as if the connection had closed first, and the client sends it
            # again elsewhere (a stale pooled connection, or a failover).
            self.close_connection = True
            return False
        return parsed

    def end_headers(self) -> None:
        # Tell a keep-alive client when this reply ends the connection (an
        # unread or unframed body, a listener shutting down), so it does not
        # pool a closing socket.
        if self.close_connection or self.server.closing:
            self.send_header("Connection", "close")
        super().end_headers()

    def _send_json(self, status: int, payload: dict,
                   headers: dict[str, str] | None = None) -> None:
        body = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def _send_text(self, status: int, text: str,
                   content_type: str = "text/plain; charset=utf-8") -> None:
        body = text.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _send_error_envelope(self, envelope: ErrorEnvelope) -> None:
        self._send_json(envelope.http_status, envelope.to_json_dict())

    def _body_length(self) -> int:
        try:
            return int(self.headers.get("Content-Length", 0))
        except (TypeError, ValueError):
            return -1

    def _drain_body(self) -> None:
        """Consume an unread request body so keep-alive framing stays intact.

        Replying without reading the body would leave its bytes on the
        connection, where a keep-alive client's *next* request line would be
        parsed out of them.  Unknown or unreasonable lengths instead mark
        the connection for closing.
        """
        length = self._body_length()
        if length < 0 or length > MAX_BODY_BYTES:
            self.close_connection = True
            return
        while length > 0:
            chunk = self.rfile.read(min(length, 1 << 20))
            if not chunk:
                self.close_connection = True
                return
            length -= len(chunk)

    def _request_trace_id(self) -> str | None:
        """The caller's trace id from ``X-Repro-Trace-Id``, if plausible."""
        raw = self.headers.get(TRACE_HEADER)
        if raw is None:
            return None
        raw = raw.strip()
        if not raw or len(raw) > MAX_TRACE_ID_CHARS:
            return None
        return raw

    def _split_path(self) -> tuple[str, dict[str, list[str]]]:
        """``self.path`` split into the route and its parsed query string
        (a blank value is kept, to be rejected like any malformed one)."""
        route, _, query = self.path.partition("?")
        return route, parse_qs(query, keep_blank_values=True)

    @staticmethod
    def _job_id(route: str) -> int:
        """The integer ``<id>`` of a ``/v1/jobs/<id>`` route."""
        token = route[len("/v1/jobs/"):]
        try:
            return int(token)
        except ValueError:
            raise SchemaError(f"job id {token!r} is not an integer") from None

    @staticmethod
    def _job_wait(query: dict[str, list[str]]) -> float:
        """Seconds of the ``?wait=`` of a job request (0 without one):
        a finite number >= 0, else a ``bad_request``."""
        values = query.get("wait")
        if not values:
            return 0.0
        try:
            wait = float(values[-1])
        except ValueError:
            wait = float("nan")
        if not math.isfinite(wait) or wait < 0:
            raise SchemaError(f"wait must be a finite number of seconds "
                              f">= 0, got {values[-1]!r}")
        return wait

    def _send_metrics(self, query: dict[str, list[str]],
                      take_snapshot) -> None:
        """Answer ``GET /v1/metrics``: one snapshot, in the ``?format=`` the
        scrape asked for — ``json`` (default) or ``prometheus``."""
        fmt = (query.get("format") or ["json"])[-1].lower()
        if fmt not in ("json", "prometheus"):
            raise SchemaError(f"unknown metrics format {fmt!r} "
                              "(expected 'json' or 'prometheus')")
        snapshot = take_snapshot()
        if fmt == "prometheus":
            self._send_text(
                200, render_prometheus(snapshot),
                content_type="text/plain; version=0.0.4; charset=utf-8")
        else:
            self._send_json(
                200, TelemetrySnapshot.from_snapshot(snapshot).to_json_dict())

    def _read_body(self) -> bytes:
        """The request body, bounded by :data:`MAX_BODY_BYTES`."""
        length = self._body_length()
        if length < 0:
            self.close_connection = True
            raise SchemaError("Content-Length header is not an integer")
        if length == 0:
            raise SchemaError("request body is empty")
        if length > MAX_BODY_BYTES:
            # the oversized body stays unread; the connection cannot be
            # reused for a further request
            self.close_connection = True
            raise SchemaError(
                f"request body of {length} bytes exceeds the "
                f"{MAX_BODY_BYTES}-byte bound")
        return self.rfile.read(length)

    def _dispatch(self, handler) -> None:
        try:
            handler()
        except (AdmissionError, SchemaError) as error:
            self._send_error_envelope(ErrorEnvelope.from_exception(error))
        except BrokenPipeError:
            pass  # client went away mid-answer; nothing to send it
        except Exception as error:  # noqa: BLE001 - the wire must answer
            self.wire_log.exception("unhandled error serving %s", self.path)
            self._send_error_envelope(ErrorEnvelope.from_exception(error))


class _HTTPServer(ThreadingHTTPServer):
    """ThreadingHTTPServer that knows the listener it serves and the
    connections it holds open."""

    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, address, owner: "WireListener") -> None:
        super().__init__(address, owner.handler_class)
        self.owner = owner
        #: Set once shutdown begins: requests read after it go unanswered.
        self.closing = False
        self._connections: set[socket.socket] = set()
        self._connections_lock = threading.Lock()

    def process_request(self, request, client_address) -> None:
        with self._connections_lock:
            self._connections.add(request)
        super().process_request(request, client_address)

    def shutdown_request(self, request) -> None:
        with self._connections_lock:
            self._connections.discard(request)
        super().shutdown_request(request)

    def half_close_connections(self) -> None:
        """Stop reading from every open connection (``SHUT_RD``).

        A handler waiting for a keep-alive client's next request reads end
        of stream and exits, closing its socket; one still computing a
        reply writes it and exits after.  Either way the client's next use
        of the connection fails before a reply, as against a stopped server.
        """
        with self._connections_lock:
            connections = list(self._connections)
        for connection in connections:
            try:
                connection.shutdown(socket.SHUT_RD)
            except OSError:
                pass  # its handler closed it meanwhile


class WireListener:
    """Listener lifecycle shared by every ``/v1/*`` front end.

    Binds lazily (so ``port=0`` resolves on first use), serves from a daemon
    thread (:meth:`start`) or the calling one (:meth:`serve_forever`), and
    closes the socket on the way out.  A front end names its
    :attr:`handler_class` and :attr:`thread_name`, describes itself in
    :meth:`_banner`, and overrides :meth:`_close_owned` when something it
    owns must be closed once the socket is.
    """

    handler_class: type[WireHandler]
    thread_name: str

    def __init__(self, host: str, port: int) -> None:
        self._requested_address = (host, int(port))
        self._httpd: _HTTPServer | None = None
        self._thread: threading.Thread | None = None

    def _banner(self) -> str:
        """The line logged when serving starts."""
        raise NotImplementedError

    def _close_owned(self) -> None:
        """Close what this front end owns besides the socket (nothing)."""

    def _bind(self) -> _HTTPServer:
        if self._httpd is None:
            self._httpd = _HTTPServer(self._requested_address, self)
        return self._httpd

    @property
    def port(self) -> int:
        """The bound port (binds lazily, resolving an ephemeral request)."""
        return self._bind().server_address[1]

    @property
    def url(self) -> str:
        """Base URL clients should talk to."""
        return f"http://{self._requested_address[0]}:{self.port}"

    def start(self):
        """Bind and serve from a daemon thread; returns ``self``."""
        httpd = self._bind()
        if self._thread is None or not self._thread.is_alive():
            self._thread = threading.Thread(
                target=httpd.serve_forever, name=self.thread_name,
                kwargs={"poll_interval": 0.05}, daemon=True)
            self._thread.start()
        self.handler_class.wire_log.info("%s", self._banner())
        return self

    def serve_forever(self) -> None:
        """Bind and serve in the calling thread until :meth:`shutdown`."""
        httpd = self._bind()
        self.handler_class.wire_log.info("%s", self._banner())
        try:
            httpd.serve_forever(poll_interval=0.05)
        finally:
            self._close()

    def _close(self) -> None:
        if self._httpd is not None:
            self._httpd.server_close()
            self._httpd.closing = True
            self._httpd.half_close_connections()
            self._httpd = None
        self._close_owned()

    def shutdown(self) -> None:
        """Stop accepting connections, half-close the open ones, then close
        what the front end owns.

        In-flight replies still finish; handlers idling on a keep-alive
        connection exit instead of waiting out :data:`IDLE_TIMEOUT_S`, and a
        request read after this point goes unanswered, so its client treats
        it as sent to a stopped server.

        Only valid from a thread other than the one inside
        :meth:`serve_forever` (the stdlib restriction); the CLIs' blocking
        mode instead interrupts ``serve_forever`` and relies on its
        ``finally`` clause for the same cleanup.
        """
        thread = self._thread
        if self._httpd is not None and thread is not None and thread.is_alive():
            self._httpd.shutdown()
        if thread is not None:
            thread.join(timeout=5.0)
        self._thread = None
        self._close()

    def __enter__(self):
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.shutdown()


class HeldMatrices(ArtifactCache):
    """Decoded inline matrices, by verified fingerprint, within a byte bound.

    A matrix is held from its second inline request on: the first only
    notes its fingerprint (at most :data:`MAX_SEEN_FINGERPRINTS` of them),
    so matrices that never repeat cost no memory.  The store is an
    :class:`ArtifactCache` bounded by ``max_bytes`` (and, as each was seen
    first, by :data:`MAX_SEEN_FINGERPRINTS` entries); an evicted fingerprint
    counts as seen, so the inline re-send that follows a missed ref holds
    the matrix again.  A matrix
    larger than the whole bound is not kept.  Only the fingerprint a decode
    verified is ever a key, so a ref resolves to exactly the matrix sent
    under it.
    """

    def __init__(self, max_bytes: int, telemetry: MetricsRegistry) -> None:
        super().__init__(MAX_SEEN_FINGERPRINTS, max_bytes=max_bytes)
        self.telemetry = telemetry
        self._seen = ArtifactCache(MAX_SEEN_FINGERPRINTS)
        self._admission_lock = threading.Lock()

    def hold(self, fingerprint: str, matrix: sp.csr_matrix) -> bool:
        """Note ``matrix`` under its verified ``fingerprint``, holding it
        if it was seen before; whether it is held now."""
        with self._admission_lock:
            if self.get(fingerprint) is not None:
                return True
            if self._seen.pop(fingerprint) is None:
                self._seen.put(fingerprint, True)
                return False
            for evicted in self.put(fingerprint, matrix):
                self._seen.put(evicted, True)
            return fingerprint in self

    def resolve(self, fingerprint: str) -> sp.csr_matrix | None:
        """The matrix held under ``fingerprint``, else ``None``; counted as
        ``api.matrix_refs{outcome="held"|"unknown"}``."""
        matrix = self.get(fingerprint)
        self.telemetry.counter(
            "api.matrix_refs",
            outcome="unknown" if matrix is None else "held").add(1)
        return matrix


class _Handler(WireHandler):
    """Routes one HTTP exchange onto the owning :class:`SolveHTTPServer`."""

    def _read_request_schema(self) -> SolveRequestV1:
        body = self._read_body()
        try:
            payload = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            raise SchemaError(f"request body is not valid JSON ({error})")
        return SolveRequestV1.from_json_dict(
            payload, self.server.owner.held_matrices.resolve)

    def _reply_headers(self, request: SolveRequestV1,
                       trace_id: str | None) -> dict[str, str]:
        """The trace echo; and, once a raw matrix's request was admitted,
        the store holds the matrix and the held-matrix header names it."""
        headers = {} if trace_id is None else {TRACE_HEADER: trace_id}
        fingerprint = request.verified_fingerprint
        if fingerprint is not None and self.server.owner.held_matrices.hold(
                fingerprint, request.matrix):
            headers[MATRIX_HELD_HEADER] = fingerprint
        return headers

    # -- routes --------------------------------------------------------------
    def do_POST(self) -> None:  # noqa: N802 - http.server API
        route, _ = self._split_path()
        if route == "/v1/solve":
            self._dispatch(self._post_solve)
        elif route == "/v1/submit":
            self._dispatch(self._post_submit)
        else:
            self._drain_body()
            self._send_error_envelope(ErrorEnvelope(
                code=ERROR_NOT_FOUND, message=f"no such endpoint {self.path}"))

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        route, query = self._split_path()
        if route == "/v1/healthz":
            self._dispatch(self._get_healthz)
        elif route == "/v1/learn":
            self._dispatch(self._get_learn)
        elif route == "/v1/metrics":
            self._dispatch(lambda: self._send_metrics(
                query, self.server.owner.solve_server.telemetry_snapshot))
        elif route.startswith("/v1/jobs/"):
            self._dispatch(lambda: self._get_job(route, query))
        else:
            self._send_error_envelope(ErrorEnvelope(
                code=ERROR_NOT_FOUND, message=f"no such endpoint {self.path}"))

    def _post_solve(self) -> None:
        request = self._read_request_schema()
        trace_id = self._request_trace_id()
        with use_trace_id(trace_id):
            response = self.server.owner.solve_server.solve(request)
        self._send_json(200, response.to_json_dict(),
                        headers=self._reply_headers(
                            request, response.trace_id or trace_id))

    def _post_submit(self) -> None:
        request = self._read_request_schema()
        trace_id = self._request_trace_id()
        with use_trace_id(trace_id):
            job = self.server.owner.solve_server.submit(request)
        self.server.owner.jobs.track(job)
        self._send_json(202, job_status(job).to_json_dict(),
                        headers=self._reply_headers(
                            request, job.trace_id or trace_id))

    def _get_job(self, route: str, query: dict[str, list[str]]) -> None:
        job_id = self._job_id(route)
        wait = min(self._job_wait(query), MAX_JOB_WAIT_S)
        job = self.server.owner.jobs.find(job_id)
        if job is None:
            self._send_error_envelope(ErrorEnvelope(
                code=ERROR_NOT_FOUND, message=f"no such job {job_id}"))
            return
        self._wait_for_job(job, wait)
        self._send_json(200, job_status(job).to_json_dict())

    def _wait_for_job(self, job, wait: float) -> None:
        """Hold the reply until ``job`` finishes, ``wait`` seconds pass or
        the listener shuts down, whichever comes first."""
        deadline = time.monotonic() + wait
        while not self.server.closing:
            remaining = deadline - time.monotonic()
            if remaining <= 0 or job.wait(min(remaining, JOB_WAIT_SLICE_S)):
                return

    def _get_healthz(self) -> None:
        self._send_json(
            200, self.server.owner.solve_server.health_snapshot())

    def _get_learn(self) -> None:
        self._send_json(
            200, self.server.owner.solve_server.learn_status())


class SolveHTTPServer(WireListener):
    """Serve a :class:`SolveServer` over HTTP/JSON.

    Parameters
    ----------
    solve_server:
        The server to expose; a fresh one (owned, and shut down with the
        adapter) is built from ``server_kwargs`` when ``None``.
    host / port:
        Bind address; ``port=0`` picks an ephemeral port (see :attr:`port`
        after :meth:`start`).
    server_kwargs:
        Forwarded to :class:`SolveServer` when it is owned.

    Usage::

        with SolveHTTPServer(port=0) as http_server:
            client = HTTPClient(http_server.url)
            ...

    or blocking (the CLI's ``repro-serve --http`` mode)::

        SolveHTTPServer(port=8080).serve_forever()
    """

    handler_class = _Handler
    thread_name = "solve-http-server"

    def __init__(self, solve_server: SolveServer | None = None, *,
                 host: str = "127.0.0.1", port: int = 0,
                 **server_kwargs) -> None:
        super().__init__(host, port)
        self._owns_solve_server = solve_server is None
        self.solve_server = (SolveServer(**server_kwargs)
                             if solve_server is None else solve_server)
        #: Jobs behind ``GET /v1/jobs/<id>``.
        self.jobs = JobRegistry()
        #: Matrices behind requests by ref.
        self.held_matrices = HeldMatrices(MAX_HELD_MATRIX_BYTES,
                                          self.solve_server.telemetry)

    # -- lifecycle (WireListener) --------------------------------------------
    def _banner(self) -> str:
        return f"serving HTTP on {self.url}"

    def _close_owned(self) -> None:
        if self._owns_solve_server:
            self.solve_server.shutdown()
