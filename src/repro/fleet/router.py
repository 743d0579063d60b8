"""Fleet router: one wire endpoint fronting many solve-server replicas.

The router speaks exactly the ``/v1/*`` schema of a single
:class:`~repro.server.http.SolveHTTPServer` — clients point
:class:`~repro.client.http.HTTPClient` at it unchanged — and fans requests
out across a :class:`~repro.fleet.replica.ReplicaFleet`:

* **Sharding.**  Solve and submit bodies are routed by the matrix identity
  already embedded in the wire payload — the ``fingerprint`` of a raw CSR
  matrix (or the ``ref`` naming one sent before), or the registry ``name``
  — through a
  :class:`~repro.fleet.ring.HashRing` over the replica names.  Routing
  identity therefore *is* batching identity *is* cache identity: every
  request for a matrix lands on the replica whose artifact cache already
  holds that matrix's preconditioner, and whose batcher can group it with
  its siblings.
* **Passthrough.**  Proxied bodies travel as raw bytes in both directions —
  the router never decodes a matrix or re-encodes a solution — so a routed
  solve is bit-identical to the same solve against the replica directly
  (and, since replicas are ordinary solve servers, to a single-server or
  in-process solve).
* **Failover.**  A *connection*-class failure (refused, reset, died
  mid-request) marks the replica dead with the fleet and retries the
  request once against the next live replica on the key's preference walk —
  exactly the remap the ring would perform had the member been removed.
  Solve and submit are idempotent (solves are deterministic; a died
  replica's queue died with it), so the single re-send is safe.  *Timeout*
  failures are not failed over: the replica may still be computing, and a
  re-send could double work.  An ``unknown_matrix`` answer is not a
  failure of the replica: it goes back to the client, which re-sends the
  request with its matrix inline — after a failover, the new owner holds
  none of the old owner's matrices.  When a shard has no live replica left
  the router degrades honestly: a typed ``unavailable``
  :class:`~repro.api.errors.ErrorEnvelope` under HTTP 503.  The proxied hop
  reuses pooled keep-alive connections; one the replica closed while it
  idled is re-sent on a fresh connection inside
  :class:`~repro.client.http.HTTPClient` and is never a failover.
* **Aggregation.**  ``GET /v1/metrics`` merges every live replica's
  *snapshot* into one (:meth:`FleetRouter.aggregate_snapshot`): replica
  instruments gain a ``replica`` label through the label codec of
  :mod:`repro.obs.metrics`, alongside the router's own ``fleet.*``
  telemetry.  Both formats are that one merged snapshot — JSON as is,
  ``?format=prometheus`` through
  :func:`~repro.obs.prometheus.render_prometheus`, the same encoder a single
  server uses.  ``GET /v1/healthz`` reports ``ok`` / ``degraded`` /
  ``unavailable`` with per-replica detail.

Job ids are namespaced by the router: ``POST /v1/submit`` records
``router_id -> (replica, remote_id)`` and rewrites the id in job-status
responses, so asking about a job reaches the replica that queued it even
though remote ids collide across replicas.  ``GET /v1/jobs/<id>?wait=``
forwards its query string, the ``wait`` clamped below the hop's read
timeout, so a long poll is one exchange on each hop; the replica ends a
held reply when it shuts down, and the router's own shutdown does not wait
for one.

Tracing: the inbound ``X-Repro-Trace-Id`` header is forwarded on the proxied
hop and the replica's echo is forwarded back, so one trace id follows a
request through router and replica spans alike.  The replica's
``X-Repro-Matrix-Held`` header is forwarded back too, so a client behind
the router sends refs, and they reach the shard owner that holds them.
"""

from __future__ import annotations

import json
import threading
from urllib.parse import urlencode

from repro.api.errors import (
    ERROR_NOT_FOUND,
    ERROR_UNAVAILABLE,
    ErrorEnvelope,
    RemoteSolveError,
)
from repro.client.http import MAX_WAIT_SHARE, HTTPClient, RawReply
from repro.fleet.replica import ReplicaFleet
from repro.fleet.ring import DEFAULT_VNODES, HashRing
from repro.logging_utils import get_logger
from repro.obs.metrics import parse_label_key, render_label_key
from repro.server.http import (
    MATRIX_HELD_HEADER,
    TRACE_HEADER,
    WireHandler,
    WireListener,
)
from repro.server.queue import MAX_TRACKED_JOBS
from repro.version import __version__

__all__ = ["FleetRouter"]

_LOG = get_logger("fleet.router")

#: Request headers forwarded verbatim on the proxied hop.
_FORWARDED_HEADERS = ("content-type", TRACE_HEADER.lower())

#: Response headers forwarded verbatim back to the caller (besides
#: ``Content-Type``).
_RETURNED_HEADERS = (TRACE_HEADER, MATRIX_HELD_HEADER)


def shard_key_of(body: bytes) -> str | None:
    """The routing key of a solve/submit body, without decoding the matrix.

    The wire codec embeds the matrix ``fingerprint`` inside the CSR block
    — or sends it alone, as the block's ``ref`` — and registry matrices
    travel by ``name``, so the shard key (the same identity the server's
    batcher and artifact cache group by) is plain JSON field access: a ref
    routes where its inline request did.  Returns ``None`` for bodies that
    carry neither; such requests route to any live replica, which answers
    with the typed 400 the single server would have produced.
    """
    try:
        payload = json.loads(body.decode("utf-8"))
        matrix = payload["matrix"]
        if "csr" in matrix:
            block = matrix["csr"]
            if isinstance(block, dict):
                return "fp:" + str(block.get("ref") or block["fingerprint"])
            return None
        if "name" in matrix:
            return "name:" + str(matrix["name"])
    except (UnicodeDecodeError, ValueError, KeyError, TypeError):
        pass
    return None


class _RouterHandler(WireHandler):
    """Routes one HTTP exchange onto the owning :class:`FleetRouter`."""

    wire_log = _LOG
    server_version = f"repro-fleet/{__version__}"

    @property
    def router(self) -> "FleetRouter":
        return self.server.owner

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        route, _ = self._split_path()
        if route in ("/v1/solve", "/v1/submit"):
            self._dispatch(lambda: self.router.proxy_request(self, route))
        else:
            self._drain_body()
            self._send_error_envelope(ErrorEnvelope(
                code=ERROR_NOT_FOUND, message=f"no such endpoint {self.path}"))

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        route, query = self._split_path()
        if route == "/v1/healthz":
            self._dispatch(lambda: self.router.answer_health(self))
        elif route == "/v1/metrics":
            self._dispatch(lambda: self._send_metrics(
                query, self.router.aggregate_snapshot))
        elif route.startswith("/v1/jobs/"):
            self._dispatch(lambda: self.router.proxy_job(self, route, query))
        else:
            self._send_error_envelope(ErrorEnvelope(
                code=ERROR_NOT_FOUND, message=f"no such endpoint {self.path}"))

    def send_raw(self, reply: RawReply) -> None:
        """Forward a proxied reply verbatim (status, body, selected headers)."""
        self.send_response(reply.status)
        content_type = reply.headers.get("content-type",
                                         "application/json")
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(reply.body)))
        for name in _RETURNED_HEADERS:
            value = reply.headers.get(name.lower())
            if value is not None:
                self.send_header(name, value)
        self.end_headers()
        self.wfile.write(reply.body)


class FleetRouter(WireListener):
    """HTTP front end sharding the wire protocol across a replica fleet.

    Parameters
    ----------
    fleet:
        The :class:`~repro.fleet.replica.ReplicaFleet` to route over.  The
        router shares its telemetry registry, so one ``/v1/metrics`` scrape
        covers routing and fleet-health counters alike.
    host / port:
        Bind address of the front end (``port=0`` picks an ephemeral port).
    vnodes:
        Virtual nodes per replica on the hash ring.
    proxy_timeout / connect_timeout:
        Read / connect bounds of the proxied hop.  The connect timeout is
        deliberately short: a dead replica should fail over in milliseconds,
        not block for the solve budget.
    failover_retries:
        How many times a connection-class failure may be retried against
        the next replica on the preference walk (default: once).
    """

    handler_class = _RouterHandler
    thread_name = "fleet-router"

    def __init__(self, fleet: ReplicaFleet, *, host: str = "127.0.0.1",
                 port: int = 0, vnodes: int = DEFAULT_VNODES,
                 proxy_timeout: float = 300.0, connect_timeout: float = 5.0,
                 failover_retries: int = 1) -> None:
        super().__init__(host, port)
        self.fleet = fleet
        self.telemetry = fleet.telemetry
        self.ring = HashRing(fleet.ids(), vnodes=vnodes)
        self.proxy_timeout = float(proxy_timeout)
        self.connect_timeout = float(connect_timeout)
        self.failover_retries = int(failover_retries)
        self._clients: dict[str, HTTPClient] = {}
        self._clients_lock = threading.Lock()
        # Router-namespaced job ids: router_id -> (replica name, remote id).
        self._jobs: dict[int, tuple[str, int]] = {}
        self._next_job_id = 1
        self._jobs_lock = threading.Lock()

    # -- proxied hop ----------------------------------------------------------
    def _client_for(self, url: str) -> HTTPClient:
        """A cached replica client (``connect_retries=0``: the router *is*
        the retry layer — failover through the ring, not blind re-dials).

        One client per replica serves every handler thread: its pool hands
        each concurrent exchange a connection of its own."""
        with self._clients_lock:
            client = self._clients.get(url)
            if client is None:
                client = HTTPClient(url, timeout=self.proxy_timeout,
                                    connect_timeout=self.connect_timeout,
                                    connect_retries=0)
                self._clients[url] = client
            return client

    def _forward_headers(self, handler: _RouterHandler) -> dict[str, str]:
        headers = {}
        for name in _FORWARDED_HEADERS:
            value = handler.headers.get(name)
            if value is not None:
                headers[name] = value
        return headers

    def _no_live_replica(self, shard_key: str | None) -> ErrorEnvelope:
        return ErrorEnvelope(
            code=ERROR_UNAVAILABLE,
            message="no live replica can serve this request; the fleet is "
                    "unavailable for this shard — retry later",
            detail={"shard_key": shard_key,
                    "fleet_size": len(self.fleet.ids()),
                    "live": sorted(self.fleet.live_ids())})

    def proxy_request(self, handler: _RouterHandler, route: str) -> None:
        """Shard-route ``POST /v1/solve`` / ``/v1/submit`` with failover."""
        body = handler._read_body()
        shard_key = shard_key_of(body)
        headers = self._forward_headers(handler)
        # The primary over *all* members is the locality yardstick: routing
        # there means the shard's cache affinity was preserved; anywhere
        # else is a (measured) remap.
        primary = self.ring.route(shard_key) if shard_key is not None else None
        retries_left = self.failover_retries
        tried: set[str] = set()
        while True:
            target = self._pick(shard_key, tried)
            if target is None:
                envelope = self._no_live_replica(shard_key)
                handler._send_error_envelope(envelope)
                return
            name, url = target
            try:
                reply = self._client_for(url).exchange_raw(
                    "POST", route, body=body, headers=headers)
            except RemoteSolveError as error:
                kind = (error.envelope.detail or {}).get("kind")
                tried.add(name)
                if kind == "connection":
                    # The replica is gone (or going); take it out of the
                    # routing set and remap, exactly once.
                    self.fleet.mark_dead(name)
                    if retries_left > 0:
                        retries_left -= 1
                        self.telemetry.counter(
                            "fleet.failover", replica=name).add(1)
                        _LOG.warning(
                            "replica %s unreachable for %s; failing over",
                            name, route)
                        continue
                handler._send_error_envelope(error.envelope)
                return
            self.telemetry.counter("fleet.routed", replica=name).add(1)
            if shard_key is not None:
                self.telemetry.counter(
                    "fleet.shard_locality",
                    hit="true" if name == primary else "false").add(1)
            if route == "/v1/submit" and reply.status == 202:
                reply = self._record_job(name, reply)
            handler.send_raw(reply)
            return

    def _pick(self, shard_key: str | None,
              tried: set[str]) -> tuple[str, str] | None:
        """Next live, untried replica on the key's preference walk."""
        live = self.fleet.live_ids()
        if shard_key is None:
            # No routing identity: any live replica will answer (typically
            # with the typed 400 the body deserves).
            candidates = [name for name in self.fleet.ids()
                          if name in live and name not in tried]
            names = iter(candidates)
        else:
            names = (name for name in self.ring.preference(shard_key)
                     if name in live and name not in tried)
        for name in names:
            url = self.fleet.url_of(name)
            if url is not None:
                return name, url
        return None

    # -- job-id namespacing ---------------------------------------------------
    def _record_job(self, replica: str, reply: RawReply) -> RawReply:
        """Map the replica's job id into the router's namespace."""
        try:
            payload = json.loads(reply.body.decode("utf-8"))
            remote_id = int(payload["job_id"])
        except (UnicodeDecodeError, ValueError, KeyError, TypeError):
            return reply  # not a job status; pass through untouched
        with self._jobs_lock:
            router_id = self._next_job_id
            self._next_job_id += 1
            self._jobs[router_id] = (replica, remote_id)
            while len(self._jobs) > MAX_TRACKED_JOBS:
                # dicts iterate in insertion order: the first key is oldest.
                del self._jobs[next(iter(self._jobs))]
        payload["job_id"] = router_id
        return RawReply(reply.status, reply.headers,
                        json.dumps(payload).encode("utf-8"))

    def proxy_job(self, handler: _RouterHandler, route: str,
                  query: dict[str, list[str]]) -> None:
        """``GET /v1/jobs/<router-id>`` → the replica that queued the job.

        The query string goes along, its ``wait`` clamped to
        :data:`~repro.client.http.MAX_WAIT_SHARE` of :attr:`proxy_timeout`
        so the replica's answer always arrives within the hop's read
        timeout.
        """
        router_id = handler._job_id(route)
        if "wait" in query:
            wait = min(handler._job_wait(query),
                       self.proxy_timeout * MAX_WAIT_SHARE)
            query = dict(query, wait=[format(wait, "g")])
        with self._jobs_lock:
            mapping = self._jobs.get(router_id)
        if mapping is None:
            handler._send_error_envelope(ErrorEnvelope(
                code=ERROR_NOT_FOUND, message=f"no such job {router_id}"))
            return
        replica, remote_id = mapping
        url = self.fleet.url_of(replica)
        if url is None:
            # The queue died with its replica; a queued job cannot fail
            # over (its state was replica-local).  Honest answer: gone.
            handler._send_error_envelope(ErrorEnvelope(
                code=ERROR_UNAVAILABLE,
                message=f"job {router_id} was queued on replica "
                        f"{replica!r}, which is no longer live",
                detail={"replica": replica, "remote_job_id": remote_id}))
            return
        try:
            path = f"/v1/jobs/{remote_id}"
            if query:
                path += "?" + urlencode(query, doseq=True)
            reply = self._client_for(url).exchange_raw(
                "GET", path, headers=self._forward_headers(handler))
        except RemoteSolveError as error:
            if (error.envelope.detail or {}).get("kind") == "connection":
                self.fleet.mark_dead(replica)
            handler._send_error_envelope(error.envelope)
            return
        if reply.status == 200:
            try:
                payload = json.loads(reply.body.decode("utf-8"))
                payload["job_id"] = router_id
                reply = RawReply(reply.status, reply.headers,
                                 json.dumps(payload).encode("utf-8"))
            except (UnicodeDecodeError, ValueError):
                pass
        handler.send_raw(reply)

    # -- aggregation ----------------------------------------------------------
    def _live_replicas(self) -> list[tuple[str, str]]:
        live = self.fleet.live_ids()
        return [(name, url) for name in self.fleet.ids()
                if name in live
                for url in (self.fleet.url_of(name),) if url is not None]

    def aggregate_snapshot(self) -> dict:
        """Fleet-wide telemetry: router instruments plus every live
        replica's, the latter re-keyed with a ``replica`` label."""
        merged = self.telemetry.snapshot()
        queues: dict[str, dict] = {}
        caches: dict[str, dict] = {}
        for name, url in self._live_replicas():
            try:
                snapshot = self._client_for(url).metrics()
            except Exception as error:  # noqa: BLE001 - a scrape must not 500
                _LOG.warning("metrics scrape of replica %s failed: %s",
                             name, error)
                continue
            for kind in ("counters", "gauges", "histograms"):
                for key, value in snapshot[kind].items():
                    metric, labels = parse_label_key(key)
                    labels["replica"] = name
                    merged[kind][render_label_key(metric, labels)] = value
            queues[name] = dict(snapshot.queue)
            caches[name] = dict(snapshot.artifact_cache)
        merged["queue"] = queues
        merged["artifact_cache"] = caches
        return merged

    def health_snapshot(self) -> dict:
        """Fleet liveness in the shape clients already understand.

        Carries the same ``status`` / ``schema_version`` /
        ``server_version`` keys as a single server's health answer (so
        ``examples/http_client.py`` runs against the router unchanged) plus
        per-replica detail.  ``status`` is ``ok`` with the whole fleet
        live, ``degraded`` with part of it, ``unavailable`` with none.
        """
        from repro.api.versioning import SCHEMA_VERSION, version_stamp

        states = self.fleet.states()
        live = sorted(name for name, state in states.items()
                      if state["alive"])
        if len(live) == len(states):
            status = "ok"
        elif live:
            status = "degraded"
        else:
            status = "unavailable"
        payload = version_stamp("health")
        payload.update({
            "status": status,
            "role": "router",
            "server_version": __version__,
            "schema_version": SCHEMA_VERSION,
            "fleet_size": len(states),
            "live": live,
            "replicas": states,
        })
        return payload

    def answer_health(self, handler: _RouterHandler) -> None:
        payload = self.health_snapshot()
        status = 503 if payload["status"] == "unavailable" else 200
        handler._send_json(status, payload)

    # -- lifecycle (WireListener; the fleet is drained by its owner) ----------
    def _banner(self) -> str:
        return (f"fleet router serving on {self.url} "
                f"({len(self.fleet.ids())} replicas)")

    def _close_owned(self) -> None:
        """Close the replica clients' pooled connections."""
        with self._clients_lock:
            clients, self._clients = list(self._clients.values()), {}
        for client in clients:
            client.close()
