"""Serving-layer block-mode tests: the scheduler's group-level mode
decision, telemetry, response provenance, request-level overrides, and
GMRES batches served by the loop on every transport."""

from __future__ import annotations

import contextlib

import numpy as np
import pytest

from repro.client import HTTPClient, InProcessClient
from repro.exceptions import ParameterError
from repro.fleet.replica import InProcessReplica, ReplicaFleet
from repro.fleet.router import FleetRouter
from repro.krylov import solve
from repro.matrices import laplacian_2d, pdd_real_sparse
from repro.api import SolveRequestV1
from repro.server import SolveServer
from repro.server.http import SolveHTTPServer
from repro.service.cache import ArtifactCache


def _server(**kwargs) -> SolveServer:
    kwargs.setdefault("cache", ArtifactCache(max_entries=32))
    kwargs.setdefault("background", False)
    return SolveServer(**kwargs)


def _requests(matrix, k, *, seed=0, **fields):
    rng = np.random.default_rng(seed)
    return [SolveRequestV1(matrix=matrix, rhs=rng.standard_normal(matrix.shape[0]),
                         tag=f"r{index}", **fields)
            for index in range(k)]


@pytest.fixture()
def spd_matrix():
    return laplacian_2d(10)


class TestServerBlockMode:
    def test_block_server_reports_block_provenance_and_telemetry(
            self, spd_matrix):
        server = _server(batch_mode="block")
        jobs = server.submit_many(
            _requests(spd_matrix, 4, solver="cg", preconditioner="none"))
        assert server.drain(timeout=60.0)
        responses = [job.result(timeout=1.0) for job in jobs]
        assert all(response.converged for response in responses)
        assert all(response.batch_mode == "block" for response in responses)
        assert all(response.batch_size == 4 for response in responses)
        assert server.telemetry.counter("solve.block_used").value == 1
        assert server.telemetry.counter("solve.matvecs_total").value > 0
        server.shutdown()

    def test_loop_server_stays_bit_identical_to_sequential_solves(
            self, spd_matrix):
        server = _server()  # default batch_mode="loop"
        requests = _requests(spd_matrix, 3, solver="cg",
                             preconditioner="none")
        jobs = server.submit_many(requests)
        assert server.drain(timeout=60.0)
        for request, job in zip(requests, jobs):
            response = job.result(timeout=1.0)
            assert response.batch_mode == "loop"
            reference = solve(spd_matrix, request.rhs, solver="cg",
                              rtol=request.rtol, maxiter=request.maxiter)
            assert np.array_equal(response.solution, reference.solution)
        assert server.telemetry.counter("solve.block_used").value == 0
        server.shutdown()

    def test_block_uses_fewer_matvecs_than_loop(self, spd_matrix):
        totals = {}
        for mode in ("loop", "block"):
            server = _server(batch_mode=mode)
            requests = _requests(spd_matrix, 8, solver="cg",
                                 preconditioner="none")
            jobs = server.submit_many(requests)
            assert server.drain(timeout=60.0)
            for job, request in zip(jobs, requests):
                response = job.result(timeout=1.0)
                assert response.converged
                # the saving is not bought with accuracy: every column's
                # true residual meets the requested tolerance in both modes
                residual = np.linalg.norm(
                    spd_matrix @ response.solution - request.rhs)
                assert residual <= (10 * request.rtol
                                    * np.linalg.norm(request.rhs))
            totals[mode] = server.telemetry.counter(
                "solve.matvecs_total").value
            server.shutdown()
        assert totals["block"] < totals["loop"]

    def test_block_and_loop_solutions_agree_within_tolerance(
            self, spd_matrix):
        answers = {}
        for mode in ("loop", "block"):
            server = _server(batch_mode=mode)
            jobs = server.submit_many(
                _requests(spd_matrix, 4, solver="cg", preconditioner="none"))
            assert server.drain(timeout=60.0)
            answers[mode] = [job.result(timeout=1.0).solution for job in jobs]
            server.shutdown()
        for ours, theirs in zip(answers["block"], answers["loop"]):
            scale = max(float(np.linalg.norm(theirs)), 1.0)
            assert np.linalg.norm(ours - theirs) <= 1e-5 * scale

    def test_request_level_batch_mode_overrides_server_default(
            self, spd_matrix):
        server = _server()  # loop default
        jobs = server.submit_many(
            _requests(spd_matrix, 3, solver="cg", preconditioner="none",
                      batch_mode="block"))
        assert server.drain(timeout=60.0)
        responses = [job.result(timeout=1.0) for job in jobs]
        assert all(response.batch_mode == "block" for response in responses)
        server.shutdown()

    def test_mixed_modes_split_into_separate_groups(self, spd_matrix):
        """One matrix, two requested modes: two groups, honest provenance."""
        server = _server()
        rng = np.random.default_rng(3)
        n = spd_matrix.shape[0]
        jobs = server.submit_many(
            [SolveRequestV1(matrix=spd_matrix, rhs=rng.standard_normal(n),
                          solver="cg", preconditioner="none",
                          batch_mode=mode, tag=f"{mode}{index}")
             for mode in ("loop", "block") for index in range(2)])
        assert server.drain(timeout=60.0)
        responses = [job.result(timeout=1.0) for job in jobs]
        by_tag = {response.tag: response for response in responses}
        assert by_tag["loop0"].batch_mode == "loop"
        assert by_tag["block0"].batch_mode == "block"
        # groups were split: each saw only its two requests
        assert all(response.batch_size == 2 for response in responses)
        server.shutdown()

    def test_block_with_unsupported_solver_degrades_to_loop(self):
        matrix = pdd_real_sparse(40, density=0.2, dominance=3.0, seed=1)
        for solver in ("bicgstab", "gmres"):
            server = _server(batch_mode="block")
            jobs = server.submit_many(
                _requests(matrix, 3, solver=solver, preconditioner="none"))
            assert server.drain(timeout=60.0)
            responses = [job.result(timeout=1.0) for job in jobs]
            assert all(response.converged for response in responses)
            assert all(response.batch_mode == "loop"
                       for response in responses), solver
            assert server.telemetry.counter(
                "solve.block_unsupported").value == 1, solver
            server.shutdown()

    def test_single_request_group_reports_loop(self, spd_matrix):
        """A batch of one cannot share a subspace; provenance says loop."""
        server = _server(batch_mode="block")
        response = server.solve(
            _requests(spd_matrix, 1, solver="cg", preconditioner="none")[0])
        assert response.batch_mode == "loop"
        # ... and is bit-identical to the plain solver
        reference = solve(spd_matrix, np.random.default_rng(0)
                          .standard_normal(spd_matrix.shape[0]),
                          solver="cg", rtol=1e-8, maxiter=1000)
        assert np.array_equal(response.solution, reference.solution)
        server.shutdown()

    def test_deflation_telemetry_counts_early_retired_columns(
            self, spd_matrix):
        """An eigenvector rhs converges immediately and is deflated while
        the random columns keep iterating."""
        _, vectors = np.linalg.eigh(spd_matrix.toarray())
        rng = np.random.default_rng(5)
        n = spd_matrix.shape[0]
        server = _server(batch_mode="block")
        requests = [SolveRequestV1(matrix=spd_matrix, rhs=vectors[:, 0],
                                 solver="cg", preconditioner="none",
                                 tag="easy")]
        requests += [SolveRequestV1(matrix=spd_matrix,
                                  rhs=rng.standard_normal(n), solver="cg",
                                  preconditioner="none", tag=f"hard{index}")
                     for index in range(2)]
        jobs = server.submit_many(requests)
        assert server.drain(timeout=60.0)
        assert all(job.result(timeout=1.0).converged for job in jobs)
        assert server.telemetry.counter("solve.deflated_columns").value >= 1
        server.shutdown()

    def test_invalid_batch_mode_rejected_at_construction(self):
        with pytest.raises(ParameterError):
            SolveServer(batch_mode="vectorised", background=False)

    def test_invalid_request_batch_mode_rejected_at_admission(
            self, spd_matrix):
        from repro.server import AdmissionError

        server = _server()
        with pytest.raises(AdmissionError) as excinfo:
            server.submit(SolveRequestV1(matrix=spd_matrix,
                                       batch_mode="vectorised"))
        assert excinfo.value.reason == "invalid"
        server.shutdown()


@contextlib.contextmanager
def _transport(kind: str, batch_mode: str):
    """A client of ``kind`` and the :class:`SolveServer` that serves it; the
    server queues without a worker, so the test's drain forms the batch."""
    cache = ArtifactCache(max_entries=8)
    if kind == "in_process":
        with InProcessClient(cache=cache, background=False,
                             batch_mode=batch_mode) as client:
            yield client, client.server
    elif kind == "http":
        with SolveHTTPServer(port=0, cache=cache, background=False,
                             batch_mode=batch_mode) as http_server:
            yield HTTPClient(http_server.url), http_server.solve_server
    else:
        replica = InProcessReplica("r0", cache=cache, background=False,
                                   batch_mode=batch_mode)
        fleet = ReplicaFleet([replica], health_interval=30.0, restart=False)
        fleet.start()
        router = FleetRouter(fleet).start()
        try:
            yield HTTPClient(router.url), replica.http_server.solve_server
        finally:
            router.shutdown()
            fleet.drain()


@pytest.mark.parametrize("batch_mode", ["block", "auto"])
@pytest.mark.parametrize("transport", ["in_process", "http", "fleet"])
def test_gmres_batch_is_served_by_the_loop_on_every_transport(transport,
                                                              batch_mode):
    """GMRES has no block solver: a same-matrix GMRES batch under ``block``
    or ``auto`` answers ``batch_mode="loop"``, bit-identical to synchronous
    serving, whichever transport carried it.  Only ``block`` asked for what
    the solver lacks, so only it counts ``solve.block_unsupported``."""
    matrix = pdd_real_sparse(40, density=0.2, dominance=3.0, seed=1)
    requests = _requests(matrix, 3, seed=2, solver="gmres",
                         preconditioner="jacobi")
    synchronous = _server()
    reference = [synchronous.solve(request) for request in requests]
    synchronous.shutdown()

    with _transport(transport, batch_mode) as (client, server):
        job_ids = [client.submit(request) for request in requests]
        assert server.drain(timeout=60.0)
        responses = [client.result(job_id, timeout=60.0)
                     for job_id in job_ids]
        unsupported = server.telemetry.counter(
            "solve.block_unsupported").value

    for response, expected in zip(responses, reference):
        assert response.converged
        assert response.batch_size == 3
        assert response.batch_mode == "loop"
        assert response.iterations == expected.iterations
        assert np.array_equal(response.solution, expected.solution)
    assert unsupported == (1 if batch_mode == "block" else 0)
