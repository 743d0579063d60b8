"""Fleet router tests: sharding, bit-identity, failover, degradation,
aggregation.

The acceptance criteria of the fleet PR live here:

* a solve routed through the router is **bit-identical** to the same solve
  against a single server — including the fingerprint-seeded MCMC
  preconditioner path;
* repeated requests for the same matrix land on the same replica
  (``fleet.shard_locality``) and hit its artifact cache;
* killing one of two replicas mid-request loses nothing: the router fails
  over (``fleet.failover``) and still returns the bit-identical solution;
* a shard with no live replica degrades to a **typed 503**
  (``unavailable`` envelope), not a hang or a raw traceback;
* a drain during traffic completes admitted work before exiting;
* ``/v1/metrics`` aggregates every replica under a ``replica`` label, in
  JSON and in strict-parseable Prometheus text.
"""

from __future__ import annotations

import contextlib
import json
import os
import signal
import threading
import time

import numpy as np
import pytest
import scipy.sparse as sp

from repro.api import RemoteSolveError, SolveRequestV1
from repro.client import HTTPClient
from repro.fleet.replica import InProcessReplica, ReplicaFleet, SubprocessReplica
from repro.fleet.router import FleetRouter, shard_key_of
from repro.matrices import laplacian_2d
from repro.obs.prometheus import parse_prometheus
from repro.server import SolveServer
from repro.server.http import SolveHTTPServer, TRACE_HEADER
from repro.service.cache import ArtifactCache
from repro.sparse.fingerprint import matrix_fingerprint
from test_server_http import _payload_kinds


@contextlib.contextmanager
def _fleet_router(n: int = 2, *, subprocess_replicas: bool = False,
                  **router_kwargs):
    """A started fleet of ``n`` replicas behind a started router."""
    if subprocess_replicas:
        replicas = [SubprocessReplica(f"r{i}") for i in range(n)]
    else:
        replicas = [InProcessReplica(f"r{i}") for i in range(n)]
    # Long interval + restart off: tests drive liveness with probe_now()
    # so every transition is deterministic.
    fleet = ReplicaFleet(replicas, health_interval=30.0, restart=False)
    fleet.start()
    router = FleetRouter(fleet, **router_kwargs).start()
    try:
        yield fleet, router
    finally:
        router.shutdown()
        fleet.drain()


def _matrix(seed: int, n: int = 24) -> sp.csr_matrix:
    rng = np.random.default_rng(seed)
    dense = rng.standard_normal((n, n)) * 0.01
    np.fill_diagonal(dense, 1.0)
    return sp.csr_matrix(dense)


def _mcmc_matrix() -> sp.csr_matrix:
    # Fragile pivots route the build to the stochastic MCMC family, whose
    # seed derives from the matrix fingerprint — the hardest determinism
    # case for routed serving.
    rng = np.random.default_rng(0)
    dense = rng.standard_normal((30, 30))
    np.fill_diagonal(dense, 0.05)
    return sp.csr_matrix(dense)


def _owner_of(router: FleetRouter, matrix) -> str:
    return router.ring.route("fp:" + matrix_fingerprint(matrix))


class TestSharding:
    def test_routed_solve_is_bit_identical_to_single_server(self):
        matrices = [laplacian_2d(6), _matrix(1), _mcmc_matrix()]
        requests = [
            SolveRequestV1(matrix=matrix,
                           rhs=np.random.default_rng(i).standard_normal(
                               matrix.shape[0]),
                           maxiter=300, tag=f"m{i}")
            for i, matrix in enumerate(matrices)
        ] + [SolveRequestV1(matrix="2DFDLaplace_16", tag="registry")]

        with SolveHTTPServer(port=0, cache=ArtifactCache(max_entries=32)) \
                as single:
            reference = [HTTPClient(single.url).solve(request)
                         for request in requests]
        with _fleet_router(2) as (fleet, router):
            routed = [HTTPClient(router.url).solve(request)
                      for request in requests]
        for single_response, fleet_response in zip(reference, routed):
            assert np.array_equal(single_response.solution,
                                  fleet_response.solution)
            assert single_response.iterations == fleet_response.iterations
            assert single_response.provenance == fleet_response.provenance
            assert (single_response.termination,
                    single_response.true_residual) == (
                fleet_response.termination, fleet_response.true_residual)
            assert fleet_response.termination is not None
        assert any(r.provenance["family"] == "mcmc" for r in routed)

    def test_same_matrix_lands_on_same_replica_and_hits_its_cache(self):
        matrices = [_matrix(seed) for seed in range(6)]
        with _fleet_router(2) as (fleet, router):
            client = HTTPClient(router.url)
            for round_index in range(2):
                for matrix in matrices:
                    client.solve(SolveRequestV1(
                        matrix=matrix, rhs=np.ones(matrix.shape[0])))
            snapshot = client.metrics()
        # Every request went to its ring primary...
        assert snapshot.counters['fleet.shard_locality{hit="true"}'] == 12
        assert 'fleet.shard_locality{hit="false"}' not in snapshot.counters
        # ...so each matrix's second solve found its preconditioner cached.
        hits = sum(stats.get("hits", 0)
                   for stats in snapshot.artifact_cache.values())
        assert hits >= len(matrices)
        # ...and no matrix was ever built twice, on either replica.
        builds = sum(stats.get("builds", 0)
                     for stats in snapshot.artifact_cache.values())
        assert builds == len(matrices)
        # Both replicas took a share of the routed traffic.
        routed = {key: value for key, value in snapshot.counters.items()
                  if key.startswith("fleet.routed")}
        assert len(routed) == 2 and sum(routed.values()) == 12

    def test_shard_key_extraction(self):
        matrix = _matrix(0)
        body = json.dumps(SolveRequestV1(
            matrix=matrix, rhs=np.ones(matrix.shape[0])
        ).to_json_dict()).encode()
        assert shard_key_of(body) == "fp:" + matrix_fingerprint(matrix)
        named = json.dumps(SolveRequestV1(
            matrix="2DFDLaplace_16").to_json_dict()).encode()
        assert shard_key_of(named) == "name:2DFDLaplace_16"
        assert shard_key_of(b"{not json") is None
        assert shard_key_of(b'{"matrix": 7}') is None
        assert shard_key_of(b'{"matrix": {"csr": "x"}}') is None
        assert shard_key_of(b'{"matrix": {"csr": [1]}}') is None
        assert shard_key_of(b'{"matrix": {"csr": 7}}') is None

    def test_a_ref_routes_where_its_inline_request_did(self):
        matrix = _matrix(0)
        fingerprint = matrix_fingerprint(matrix)
        request = SolveRequestV1(matrix=matrix, rhs=np.ones(matrix.shape[0]))
        ref = json.dumps(request.to_json_dict({fingerprint})).encode()
        assert json.loads(ref)["matrix"] == {"csr": {"ref": fingerprint}}
        assert shard_key_of(ref) == "fp:" + fingerprint

    def test_held_header_comes_back_through_the_router(self):
        matrices = [_matrix(seed) for seed in range(4)]
        with _fleet_router(2) as (fleet, router):
            with HTTPClient(router.url) as client:
                kinds = _payload_kinds(client)
                passes = [[client.solve(SolveRequestV1(
                    matrix=matrix, rhs=np.ones(matrix.shape[0])))
                    for matrix in matrices] for _ in range(3)]
                snapshot = client.metrics()
        # The second inline request over a matrix makes its owner hold it.
        assert kinds == ["inline"] * 8 + ["ref"] * 4
        for first, *again in zip(*passes):
            for other in again:
                assert np.array_equal(first.solution, other.solution)
        # Every ref reached the replica that held its matrix.
        held = sum(value for key, value in snapshot.counters.items()
                   if key.startswith('api.matrix_refs{outcome="held"'))
        assert held == 4
        assert snapshot.counters['fleet.shard_locality{hit="true"}'] == 12

    def test_unroutable_body_still_gets_the_typed_400(self):
        with _fleet_router(2) as (fleet, router):
            reply = HTTPClient(router.url).exchange_raw(
                "POST", "/v1/solve", body=b"{not json",
                headers={"Content-Type": "application/json"})
        assert reply.status == 400
        assert json.loads(reply.body)["code"] == "bad_request"

    @pytest.mark.parametrize("csr", ["x", [1], 7])
    def test_non_object_csr_block_gets_the_typed_400(self, csr):
        payload = SolveRequestV1(matrix=_matrix(0)).to_json_dict()
        payload["matrix"] = {"csr": csr}
        with _fleet_router(2) as (fleet, router):
            reply = HTTPClient(router.url).exchange_raw(
                "POST", "/v1/solve", body=json.dumps(payload).encode(),
                headers={"Content-Type": "application/json"})
        assert reply.status == 400
        assert json.loads(reply.body)["code"] == "bad_request"

    def test_trace_header_round_trips_through_the_hop(self):
        matrix = _matrix(0)
        body = json.dumps(SolveRequestV1(
            matrix=matrix, rhs=np.ones(matrix.shape[0])
        ).to_json_dict()).encode()
        with _fleet_router(2) as (fleet, router):
            reply = HTTPClient(router.url).exchange_raw(
                "POST", "/v1/solve", body=body,
                headers={"Content-Type": "application/json",
                         TRACE_HEADER: "trace-fleet-1"})
        assert reply.status == 200
        assert reply.headers.get(TRACE_HEADER.lower()) == "trace-fleet-1"


class TestJobs:
    def test_submit_polls_through_router_namespace(self):
        with _fleet_router(2) as (fleet, router):
            client = HTTPClient(router.url)
            # Two matrices owned by *different* replicas: their remote job
            # ids both start at 1, so correct answers prove the router's
            # id namespace keeps them apart.
            owners: dict[str, sp.csr_matrix] = {}
            for seed in range(32):
                matrix = _matrix(seed)
                owners.setdefault(_owner_of(router, matrix), matrix)
                if len(owners) == 2:
                    break
            assert len(owners) == 2
            job_ids = {}
            for name, matrix in owners.items():
                job_ids[name] = client.submit(SolveRequestV1(
                    matrix=matrix, rhs=np.ones(matrix.shape[0]), tag=name))
            assert sorted(job_ids.values()) == [1, 2]
            for name, job_id in job_ids.items():
                response = client.result(job_id, timeout=60.0)
                assert response.converged and response.tag == name

    def test_unknown_and_malformed_job_ids(self):
        with _fleet_router(1) as (fleet, router):
            client = HTTPClient(router.url)
            with pytest.raises(RemoteSolveError) as excinfo:
                client.job(999)
            assert excinfo.value.envelope.code == "not_found"
            reply = client.exchange_raw("GET", "/v1/jobs/xyz")
            assert reply.status == 400

    def test_job_on_a_dead_replica_answers_typed_503(self):
        matrix = _matrix(0)
        with _fleet_router(2) as (fleet, router):
            client = HTTPClient(router.url)
            owner = _owner_of(router, matrix)
            job_id = client.submit(SolveRequestV1(
                matrix=matrix, rhs=np.ones(matrix.shape[0])))
            client.result(job_id, timeout=60.0)
            fleet.mark_dead(owner)
            with pytest.raises(RemoteSolveError) as excinfo:
                client.job(job_id)
            envelope = excinfo.value.envelope
            assert envelope.code == "unavailable"
            assert envelope.detail["replica"] == owner


class TestFailover:
    def test_dead_primary_fails_over_to_bit_identical_solution(self):
        matrix = _mcmc_matrix()
        request = SolveRequestV1(matrix=matrix, maxiter=200, tag="mcmc")
        with SolveHTTPServer(port=0, cache=ArtifactCache(max_entries=8)) \
                as single:
            reference = HTTPClient(single.url).solve(request)
        with _fleet_router(2) as (fleet, router):
            owner = _owner_of(router, matrix)
            # Kill the shard's primary outright: the router's first dial is
            # refused, marks it dead, and remaps to the survivor.
            fleet._replicas[fleet.ids().index(owner)].kill()
            response = HTTPClient(router.url, timeout=120.0).solve(request)
            snapshot = HTTPClient(router.url).metrics()
        assert response.provenance["family"] == "mcmc"
        assert np.array_equal(response.solution, reference.solution)
        assert response.iterations == reference.iterations
        assert snapshot.counters[
            f'fleet.failover{{replica="{owner}"}}'] == 1
        assert snapshot.counters['fleet.shard_locality{hit="false"}'] >= 1

    def test_replica_killed_mid_request_fails_over_bit_identically(self):
        matrix = _mcmc_matrix()
        request = SolveRequestV1(matrix=matrix, maxiter=200, tag="mcmc")
        with SolveHTTPServer(port=0, cache=ArtifactCache(max_entries=8)) \
                as single:
            reference = HTTPClient(single.url).solve(request)
        with _fleet_router(2, subprocess_replicas=True) as (fleet, router):
            owner = _owner_of(router, matrix)
            victim = fleet._replicas[fleet.ids().index(owner)]
            # SIGSTOP parks the owner: the router's connect lands in the
            # kernel backlog and the request is sent but never answered.
            # SIGKILL then resets the socket mid-exchange — the router
            # must fail over and re-send to the survivor.
            os.kill(victim.process.pid, signal.SIGSTOP)
            result: dict = {}

            def call():
                client = HTTPClient(router.url, timeout=120.0)
                result["response"] = client.solve(request)

            worker = threading.Thread(target=call)
            worker.start()
            time.sleep(0.5)  # request is in flight against the owner
            assert worker.is_alive()
            victim.kill()
            worker.join(timeout=120.0)
            assert not worker.is_alive()
            snapshot = HTTPClient(router.url).metrics()
        response = result["response"]
        assert np.array_equal(response.solution, reference.solution)
        assert response.iterations == reference.iterations
        assert response.provenance == reference.provenance
        assert snapshot.counters[
            f'fleet.failover{{replica="{owner}"}}'] == 1

    def test_idle_connection_closed_by_a_live_replica_is_not_a_failover(
            self, connection_log):
        """The replica closing the router's pooled connection while it idles
        costs one fresh connection, never a failover or a dead mark."""
        matrix = _matrix(0)
        request = SolveRequestV1(matrix=matrix, rhs=np.ones(matrix.shape[0]))
        with _fleet_router(2) as (fleet, router):
            owner = _owner_of(router, matrix)
            server = fleet._replicas[fleet.ids().index(owner)].http_server
            with HTTPClient(router.url) as client:
                first = client.solve(request)
                client.solve(request)
                assert connection_log.connections(server, "/v1/solve") == 1
                server._httpd.half_close_connections()
                assert connection_log.wait_closed(server, "/v1/solve")
                third = client.solve(request)
                live = fleet.live_ids()
                snapshot = client.metrics()
        assert connection_log.connections(server, "/v1/solve") == 2
        assert np.array_equal(third.solution, first.solution)
        assert owner in live
        assert not [key for key in snapshot.counters
                    if key.startswith(("fleet.failover",
                                       "fleet.replica_marked_dead"))]

    def test_stopped_replica_behind_a_pooled_connection_fails_over_once(
            self, connection_log):
        matrix = _matrix(1)
        request = SolveRequestV1(matrix=matrix, rhs=np.ones(matrix.shape[0]))
        with _fleet_router(2) as (fleet, router):
            owner = _owner_of(router, matrix)
            replica = fleet._replicas[fleet.ids().index(owner)]
            server = replica.http_server
            with HTTPClient(router.url) as client:
                first = client.solve(request)
                client.solve(request)
                assert connection_log.connections(server, "/v1/solve") == 1
                replica.kill()
                moved = client.solve(request)
                snapshot = client.metrics()
        assert np.array_equal(moved.solution, first.solution)
        assert snapshot.counters[f'fleet.failover{{replica="{owner}"}}'] == 1
        assert snapshot.counters[
            f'fleet.replica_marked_dead{{replica="{owner}"}}'] == 1

    def test_ref_to_a_stopped_owner_fails_over_once_then_goes_inline(self):
        """The new owner does not hold the matrix: its ``unknown_matrix``
        goes back to the client (no second failover), and the client's one
        inline re-send is answered bit-identically to in-process."""
        matrix = _mcmc_matrix()
        request = SolveRequestV1(matrix=matrix, maxiter=200, tag="mcmc")
        with SolveServer(cache=ArtifactCache(max_entries=8),
                         background=False) as server:
            reference = server.solve(request)
        with _fleet_router(2) as (fleet, router):
            owner = _owner_of(router, matrix)
            with HTTPClient(router.url) as client:
                kinds = _payload_kinds(client)
                for _ in range(3):
                    client.solve(request)
                fleet._replicas[fleet.ids().index(owner)].kill()
                moved = client.solve(request)
                snapshot = client.metrics()
                live = fleet.live_ids()
        survivor = next(name for name in fleet.ids() if name != owner)
        assert kinds == ["inline", "inline", "ref", "ref", "inline"]
        failovers = {key: value for key, value in snapshot.counters.items()
                     if key.startswith("fleet.failover")}
        assert failovers == {f'fleet.failover{{replica="{owner}"}}': 1}
        assert snapshot.counters[
            f'api.matrix_refs{{outcome="unknown",replica="{survivor}"}}'] == 1
        assert live == {survivor}
        assert moved.provenance["family"] == "mcmc"
        assert np.array_equal(moved.solution, reference.solution)
        assert moved.iterations == reference.iterations
        assert moved.provenance == reference.provenance

    def test_unknown_matrix_is_answered_not_failed_over(self):
        payload = SolveRequestV1(matrix=_matrix(0)).to_json_dict()
        payload["matrix"] = {"csr": {"ref": "0" * 32}}
        with _fleet_router(2) as (fleet, router):
            with HTTPClient(router.url) as client:
                reply = client.exchange_raw(
                    "POST", "/v1/solve", body=json.dumps(payload).encode(),
                    headers={"Content-Type": "application/json"})
                snapshot = client.metrics()
                live = fleet.live_ids()
        assert reply.status == 404
        assert json.loads(reply.body)["code"] == "unknown_matrix"
        assert live == set(fleet.ids())
        assert not [key for key in snapshot.counters
                    if key.startswith(("fleet.failover",
                                       "fleet.replica_marked_dead"))]

    def test_no_request_lost_when_a_replica_dies_under_load(self):
        matrices = [_matrix(seed) for seed in range(8)]
        with _fleet_router(2, subprocess_replicas=True) as (fleet, router):
            victim = fleet._replicas[0]
            responses: list = [None] * len(matrices)
            errors: list = []

            def solve(index: int, matrix) -> None:
                try:
                    client = HTTPClient(router.url, timeout=120.0)
                    responses[index] = client.solve(SolveRequestV1(
                        matrix=matrix, rhs=np.ones(matrix.shape[0]),
                        tag=f"load-{index}"))
                except Exception as error:  # noqa: BLE001 - recorded
                    errors.append((index, error))

            workers = [threading.Thread(target=solve, args=(i, m))
                       for i, m in enumerate(matrices)]
            for worker in workers:
                worker.start()
            victim.kill()
            for worker in workers:
                worker.join(timeout=120.0)
            assert not errors
            assert all(r is not None and r.converged for r in responses)

    def test_all_replicas_dead_degrades_to_typed_503(self):
        matrix = _matrix(0)
        with _fleet_router(2) as (fleet, router):
            for replica in fleet._replicas:
                replica.kill()
            fleet.probe_now()
            client = HTTPClient(router.url)
            with pytest.raises(RemoteSolveError) as excinfo:
                client.solve(SolveRequestV1(
                    matrix=matrix, rhs=np.ones(matrix.shape[0])))
            envelope = excinfo.value.envelope
            assert envelope.code == "unavailable"
            assert envelope.detail["live"] == []
            body = json.dumps(SolveRequestV1(
                matrix=matrix, rhs=np.ones(matrix.shape[0])
            ).to_json_dict()).encode()
            reply = client.exchange_raw(
                "POST", "/v1/solve", body=body,
                headers={"Content-Type": "application/json"})
            assert reply.status == 503


class TestDrain:
    def test_drain_during_traffic_completes_admitted_work(self):
        matrix = laplacian_2d(24)
        with _fleet_router(2) as (fleet, router):
            client = HTTPClient(router.url, timeout=120.0)
            result: dict = {}

            def call():
                result["response"] = client.solve(SolveRequestV1(
                    matrix=matrix, rhs=np.ones(matrix.shape[0])))

            worker = threading.Thread(target=call)
            worker.start()
            time.sleep(0.05)
            codes = fleet.drain()
            worker.join(timeout=120.0)
            assert not worker.is_alive()
        assert codes == {"r0": 0, "r1": 0}
        assert result["response"].converged

    def test_submitted_jobs_survive_an_immediate_drain(self):
        with _fleet_router(2) as (fleet, router):
            client = HTTPClient(router.url)
            for seed in range(4):
                matrix = _matrix(seed)
                client.submit(SolveRequestV1(
                    matrix=matrix, rhs=np.ones(matrix.shape[0])))
            codes = fleet.drain()
        # Every admitted job ran to completion before the replicas exited.
        assert codes == {"r0": 0, "r1": 0}


class TestAggregation:
    def test_healthz_reports_ok_degraded_unavailable(self):
        with _fleet_router(2) as (fleet, router):
            client = HTTPClient(router.url)
            payload = client.health()
            assert payload["status"] == "ok"
            assert payload["role"] == "router"
            assert payload["fleet_size"] == 2
            assert set(payload["replicas"]) == {"r0", "r1"}
            assert payload["replicas"]["r0"]["replica_id"]

            fleet._replicas[0].kill()
            fleet.probe_now()
            assert client.health()["status"] == "degraded"

            fleet._replicas[1].kill()
            fleet.probe_now()
            reply = client.exchange_raw("GET", "/v1/healthz")
            assert reply.status == 503
            assert json.loads(reply.body)["status"] == "unavailable"

    def test_metrics_aggregate_replicas_under_a_label(self):
        matrices = [_matrix(seed) for seed in range(4)]
        with _fleet_router(2) as (fleet, router):
            client = HTTPClient(router.url)
            for matrix in matrices:
                client.solve(SolveRequestV1(
                    matrix=matrix, rhs=np.ones(matrix.shape[0])))
            snapshot = client.metrics()
            text = client.metrics_prometheus()
        # JSON: replica-side instruments re-keyed with replica="...".
        labeled = [key for key in snapshot.counters if 'replica="r' in key]
        assert any(key.startswith("requests_admitted") for key in labeled)
        assert set(snapshot.queue) <= {"r0", "r1"}
        assert set(snapshot.artifact_cache) <= {"r0", "r1"}
        # Prometheus: merged exposition stays strictly parseable, carries
        # the replica label, and never repeats a family's TYPE line.
        samples, types = parse_prometheus(text)
        assert any(sample.labels.get("replica") == "r0" or
                   sample.labels.get("replica") == "r1"
                   for sample in samples)
        assert any(sample.name.startswith("repro_fleet_routed")
                   for sample in samples)
        type_lines = [line for line in text.splitlines()
                      if line.startswith("# TYPE ")]
        assert len(type_lines) == len(set(type_lines))

    def test_router_exposition_is_the_replicas_plus_a_label(self):
        """Every transport serves both formats from one snapshot through one
        encoder: the router's exposition over one replica is that replica's
        own exposition, ``replica``-labelled, plus the router's ``fleet.*``
        families — names, labels and values."""
        with _fleet_router(1) as (fleet, router):
            client = HTTPClient(router.url)
            for seed in (0, 1, 0):
                matrix = _matrix(seed)
                client.solve(SolveRequestV1(
                    matrix=matrix, rhs=np.ones(matrix.shape[0])))
            routed, routed_types = parse_prometheus(
                client.metrics_prometheus())
            direct, direct_types = parse_prometheus(
                HTTPClient(fleet.url_of("r0")).metrics_prometheus())

        def by_series(samples):
            return {(s.name, tuple(sorted(s.labels.items()))): s.value
                    for s in samples}

        expected = {(name, tuple(sorted(labels + (("replica", "r0"),)))): value
                    for (name, labels), value in by_series(direct).items()}
        routed = by_series(routed)
        own = {series: value for series, value in routed.items()
               if series not in expected}
        assert {series: routed[series] for series in expected} == expected
        assert own and all(name.startswith("repro_fleet_")
                           for name, _ in own)
        assert own[("repro_fleet_routed_total", (("replica", "r0"),))] == 3
        assert {family: kind for family, kind in routed_types.items()
                if not family.startswith("repro_fleet_")} == direct_types

    def test_in_process_and_http_snapshots_carry_the_same_series(self):
        from repro.client import InProcessClient

        with SolveHTTPServer(port=0, background=False,
                             cache=ArtifactCache(max_entries=8)) as http:
            wire = HTTPClient(http.url)
            for seed in (0, 1, 0):
                matrix = _matrix(seed)
                wire.solve(SolveRequestV1(
                    matrix=matrix, rhs=np.ones(matrix.shape[0])))
            over_http = wire.metrics()
            in_process = InProcessClient(http.solve_server).metrics()
        assert over_http == in_process
        assert over_http.counters["solves_total"] == 3
        assert over_http.histograms["solve.latency_ms"]["sum"] > 0

    def test_unknown_metrics_format_and_endpoint(self):
        with _fleet_router(1) as (fleet, router):
            client = HTTPClient(router.url)
            reply = client.exchange_raw("GET", "/v1/metrics?format=xml")
            assert reply.status == 400
            reply = client.exchange_raw("GET", "/v1/nope")
            assert reply.status == 404
            reply = client.exchange_raw("POST", "/v1/nope", body=b"{}",
                                        headers={"Content-Type":
                                                 "application/json"})
            assert reply.status == 404
