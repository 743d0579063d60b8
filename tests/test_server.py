"""Integration tests for the solve server (scheduler + facade).

Covers the PR acceptance criteria: one shared preconditioner build for
concurrent same-fingerprint requests (asserted via ``ArtifactCache`` stats),
``drain()`` completing everything admitted and leaving the observation store
consistent, and bit-identical solutions whether a seeded request stream is
served synchronously or through the queue.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
import scipy.sparse as sp

from repro.krylov import TERMINATIONS, solve
from repro.matrices import laplacian_2d, pdd_real_sparse, unsteady_advection_diffusion
from repro.api import SolveRequestV1
from repro.server import AdmissionError, SolveServer
from repro.service.cache import ArtifactCache
from repro.service.store import ObservationStore
from repro.sparse.fingerprint import matrix_fingerprint


@pytest.fixture()
def dominant_matrix():
    return pdd_real_sparse(40, density=0.2, dominance=3.0, seed=1)


def _server(**kwargs) -> SolveServer:
    kwargs.setdefault("cache", ArtifactCache(max_entries=32))
    kwargs.setdefault("background", False)
    return SolveServer(**kwargs)


class TestSharedBuilds:
    def test_concurrent_same_fingerprint_requests_build_once(self, dominant_matrix):
        """Two queued requests over one matrix: exactly one preconditioner build."""
        cache = ArtifactCache(max_entries=32)
        server = _server(cache=cache)
        rng = np.random.default_rng(0)
        jobs = server.submit_many([
            SolveRequestV1(matrix=dominant_matrix,
                         rhs=rng.standard_normal(dominant_matrix.shape[0]),
                         tag=f"r{index}")
            for index in range(2)])
        assert server.drain(timeout=30.0)
        responses = [job.result(timeout=1.0) for job in jobs]
        assert all(response.converged for response in responses)
        # the whole point of fingerprint batching:
        assert cache.stats.builds == 1
        assert server.telemetry.counter("precond.builds").value == 1
        assert server.telemetry.counter("precond.requests").value >= 1
        server.shutdown()

    def test_second_batch_hits_the_cache(self, dominant_matrix):
        cache = ArtifactCache(max_entries=32)
        server = _server(cache=cache)
        n = dominant_matrix.shape[0]
        cold = server.solve(SolveRequestV1(matrix=dominant_matrix, rhs=np.ones(n)))
        hits_before = cache.stats.hits
        server.solve(SolveRequestV1(matrix=dominant_matrix, rhs=np.arange(n) * 1.0))
        assert cache.stats.builds == 1
        assert cache.stats.hits > hits_before
        # served from the cached build, the first request repeats to the bit
        warm = server.solve(SolveRequestV1(matrix=dominant_matrix, rhs=np.ones(n)))
        assert cache.stats.builds == 1
        assert np.array_equal(warm.solution, cold.solution)
        server.shutdown()

    def test_same_matrix_different_rhs_batched_into_multi_rhs_solve(
            self, dominant_matrix):
        server = _server()
        n = dominant_matrix.shape[0]
        rhs_a = np.ones(n)
        rhs_b = np.linspace(0.5, 2.0, n)
        jobs = server.submit_many([
            SolveRequestV1(matrix=dominant_matrix, rhs=rhs_a, tag="a"),
            SolveRequestV1(matrix=dominant_matrix, rhs=rhs_b, tag="b"),
        ])
        assert server.drain(timeout=30.0)
        response_a, response_b = (job.result(timeout=1.0) for job in jobs)
        assert response_a.batch_size == 2 and response_b.batch_size == 2
        # batched answers match reference single solves exactly
        reference = solve(dominant_matrix, rhs_b, solver="gmres",
                          preconditioner=None, rtol=1e-8, maxiter=1000,
                          restart=n)
        assert response_b.solution.shape == reference.solution.shape
        np.testing.assert_allclose(
            dominant_matrix @ response_a.solution, rhs_a, atol=1e-5)
        np.testing.assert_allclose(
            dominant_matrix @ response_b.solution, rhs_b, atol=1e-5)
        server.shutdown()


class TestDeterminism:
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
                    priority=round_index,
                    tag=f"m{matrix_index}round{round_index}"))
        return requests

    def test_sync_and_queued_serving_are_bit_identical(self):
        sync_server = _server()
        sync_responses = [sync_server.solve(request)
                          for request in self._stream()]
        sync_server.shutdown()

        queued_server = _server()
        jobs = queued_server.submit_many(self._stream())
        assert queued_server.drain(timeout=60.0)
        queued_responses = [job.result(timeout=1.0) for job in jobs]
        queued_server.shutdown()

        for sync, queued in zip(sync_responses, queued_responses):
            assert sync.tag == queued.tag
            assert sync.converged and queued.converged
            assert sync.iterations == queued.iterations
            assert sync.solver == queued.solver
            assert sync.provenance["family"] == queued.provenance["family"]
            assert np.array_equal(sync.solution, queued.solution), sync.tag

    def test_every_response_says_how_the_solve_ended(self):
        """``termination`` from the closed set and a ``true_residual`` the
        caller can recompute, on every response; the reasons are counted."""
        server = _server()
        requests = self._stream() + [SolveRequestV1(
            matrix=laplacian_2d(8), solver="cg", preconditioner="none",
            rtol=1e-12, maxiter=2, tag="starved")]
        responses = [server.solve(request) for request in requests]
        for request, response in zip(requests, responses):
            rhs = (np.ones(request.matrix.shape[0]) if request.rhs is None
                   else request.rhs)
            recomputed = (np.linalg.norm(rhs - request.matrix @ response.solution)
                          / np.linalg.norm(rhs))
            assert response.true_residual == pytest.approx(recomputed,
                                                           rel=1e-12)
            assert response.termination in TERMINATIONS
            assert (response.termination == "converged") == response.converged
        assert responses[-1].termination == "maxiter"
        counters = server.telemetry_snapshot()["counters"]
        assert counters['solve.terminated{reason="converged"}'] == (
            counters["solves_total"] - counters["solves_not_converged"]) == 6
        assert counters['solve.terminated{reason="maxiter"}'] == 1
        server.shutdown()

    def test_background_worker_matches_inline_drain(self):
        inline_server = _server()
        inline = [inline_server.solve(request) for request in self._stream()]
        inline_server.shutdown()

        background_server = _server(background=True)
        jobs = background_server.submit_many(self._stream())
        assert background_server.drain(timeout=60.0)
        background = [job.result(timeout=30.0) for job in jobs]
        background_server.shutdown()
        for a, b in zip(inline, background):
            assert np.array_equal(a.solution, b.solution), a.tag


class TestStoreIntegration:
    def _mcmc_matrix(self) -> sp.csr_matrix:
        rng = np.random.default_rng(0)
        dense = rng.standard_normal((30, 30))
        np.fill_diagonal(dense, 0.05)  # fragile pivots -> mcmc rule
        return sp.csr_matrix(dense)

    def test_drain_leaves_store_consistent(self, tmp_path):
        matrix = self._mcmc_matrix()
        store = ObservationStore(tmp_path / "store")
        server = _server(store=store)
        rng = np.random.default_rng(1)
        jobs = server.submit_many([
            SolveRequestV1(matrix=matrix, rhs=rng.standard_normal(30),
                         maxiter=200, tag=f"j{index}")
            for index in range(3)])
        assert server.drain(timeout=60.0)
        assert all(job.done() for job in jobs)
        for job in jobs:
            job.result(timeout=1.0)
        assert server.telemetry.counter("store.records_written").value == 3
        # a fresh reader sees exactly what the server's store sees
        reloaded = ObservationStore(tmp_path / "store")
        assert len(reloaded) == len(store) == 3
        fingerprint = matrix_fingerprint(matrix)
        assert set(reloaded.fingerprints()) == {fingerprint}
        for stored in reloaded:
            assert stored.fingerprint == fingerprint
            assert stored.context.endswith(":server")
            assert stored.y_values and np.isfinite(stored.y_values).all()
        server.shutdown()

    def test_unconverged_solve_is_fed_back_at_its_budget(self, tmp_path,
                                                         monkeypatch):
        """Traffic feeds the store and the regret signal through the paper's
        one measurement: a solve that broke down at iteration 1 weighs its
        whole budget — what ``MatrixEvaluator`` would have stored for it —
        instead of being recorded as the best result the matrix ever saw."""
        from repro.server import scheduler as scheduler_module
        from repro.service import ladder

        matrix = self._mcmc_matrix()
        fingerprint = matrix_fingerprint(matrix)
        store = ObservationStore(tmp_path / "store")
        server = _server(store=store)
        server.scheduler.shadow_eval = True
        rng = np.random.default_rng(3)
        good = server.solve(SolveRequestV1(
            matrix=matrix, rhs=rng.standard_normal(30), maxiter=200))
        assert good.converged and good.provenance["built_family"] == "mcmc"
        (slot, incumbent), = server.scheduler._incumbent_iterations.items()
        assert incumbent == good.iterations

        real_solve_many = scheduler_module.solve_many

        def broken_solve_many(*args, **kwargs):
            return [dataclasses.replace(result, converged=False, iterations=1,
                                        termination="breakdown")
                    for result in real_solve_many(*args, **kwargs)]

        monkeypatch.setattr(scheduler_module, "solve_many", broken_solve_many)
        bad = server.solve(SolveRequestV1(
            matrix=matrix, rhs=rng.standard_normal(30), maxiter=200))
        assert (bad.converged, bad.iterations, bad.termination) == (
            False, 1, "breakdown")

        good_record, bad_record = sorted(
            (stored.to_record()
             for stored in store.query(fingerprint=fingerprint)),
            key=lambda record: record.preconditioned_iterations)
        assert good_record.preconditioned_iterations == [good.iterations]
        assert bad_record.preconditioned_iterations == [200]
        assert server.scheduler._incumbent_iterations[slot] == incumbent
        regret = server.telemetry.histogram("policy.regret", origin="rule")
        assert regret.summary()["max"] == 200 - incumbent
        best = next(ladder.stored(ladder.StoreSnapshot(store), fingerprint))
        assert best.y_mean == good_record.y_mean < bad_record.y_mean
        server.shutdown()

    def test_served_records_feed_future_policy_decisions(self, tmp_path):
        matrix = self._mcmc_matrix()
        store = ObservationStore(tmp_path / "store")
        server = _server(store=store)
        response = server.solve(SolveRequestV1(matrix=matrix, maxiter=200))
        assert response.provenance["origin"] == "rule"
        server.refresh_policy()
        warm = server.solve(SolveRequestV1(matrix=matrix, maxiter=200))
        assert warm.provenance["origin"] == "stored"
        server.shutdown()


class TestBackpressureAndFailures:
    def test_queue_full_rejection_counted(self, dominant_matrix):
        server = _server(max_queue_depth=1)
        server.submit(SolveRequestV1(matrix=dominant_matrix))
        with pytest.raises(AdmissionError) as excinfo:
            server.submit(SolveRequestV1(matrix=dominant_matrix))
        assert excinfo.value.reason == "queue_full"
        snapshot = server.telemetry_snapshot()
        assert snapshot["counters"]['solve.rejected{reason="queue_full"}'] == 1
        assert server.drain(timeout=30.0)
        server.shutdown()

    def test_nan_rhs_rejected_at_admission(self, dominant_matrix):
        # A NaN rhs used to crash inside the solver; since the API-boundary
        # hardening it is shed at the door with the structured reason.
        bad_rhs = np.full(dominant_matrix.shape[0], np.nan)
        server = _server()
        with pytest.raises(AdmissionError) as excinfo:
            server.submit(SolveRequestV1(matrix=dominant_matrix, rhs=bad_rhs))
        assert excinfo.value.reason == "invalid"
        server.shutdown()

    def test_failing_group_does_not_poison_others(self, dominant_matrix,
                                                  monkeypatch):
        # Inject a failure into one group's execution (valid requests can no
        # longer smuggle NaNs past admission) — the sabotaged group fails,
        # the healthy group completes.
        server = _server()
        bad_fingerprint = matrix_fingerprint(dominant_matrix)
        original = server.scheduler._run_group

        def sabotage(group):
            if group.fingerprint == bad_fingerprint:
                raise RuntimeError("injected group failure")
            return original(group)

        monkeypatch.setattr(server.scheduler, "_run_group", sabotage)
        bad = server.submit(SolveRequestV1(matrix=dominant_matrix, tag="bad"))
        good = server.submit(SolveRequestV1(matrix=laplacian_2d(6), tag="good"))
        server.drain(timeout=30.0)
        assert good.result(timeout=1.0).converged
        assert bad.done()
        with pytest.raises(RuntimeError, match="injected group failure"):
            bad.result(timeout=1.0)
        server.shutdown()

    def test_every_group_failing_fails_every_job(self, dominant_matrix,
                                                 monkeypatch):
        server = _server()

        def sabotage(group):
            raise RuntimeError(f"group {group.name} failed")

        monkeypatch.setattr(server.scheduler, "_run_group", sabotage)
        jobs = server.submit_many([
            SolveRequestV1(matrix=dominant_matrix, tag="a"),
            SolveRequestV1(matrix=laplacian_2d(6), tag="b"),
            SolveRequestV1(matrix=laplacian_2d(6), tag="c")])
        assert server.drain(timeout=30.0)
        for job in jobs:
            assert job.state == "failed"
            with pytest.raises(RuntimeError, match="failed"):
                job.result(timeout=1.0)
        assert server.telemetry.counter("jobs_failed").value == 3
        server.shutdown()

    def test_groups_run_in_submission_order(self, dominant_matrix,
                                            monkeypatch):
        server = _server()
        original = server.scheduler._run_group
        ran = []

        def record(group):
            ran.append(group.fingerprint)
            return original(group)

        monkeypatch.setattr(server.scheduler, "_run_group", record)
        matrices = [laplacian_2d(6), dominant_matrix, laplacian_2d(5)]
        jobs = server.submit_many([SolveRequestV1(matrix=matrix)
                                   for matrix in matrices])
        assert server.drain(timeout=30.0)
        assert all(job.result(timeout=1.0).converged for job in jobs)
        assert ran == [matrix_fingerprint(matrix) for matrix in matrices]
        server.shutdown()

    def test_empty_batch_runs_no_group(self, monkeypatch):
        server = _server()

        def refuse(group):
            raise AssertionError("no group to run")

        monkeypatch.setattr(server.scheduler, "_run_group", refuse)
        server.scheduler.execute([])
        assert "scheduler.groups_per_batch" not in \
            server.telemetry_snapshot()["histograms"]
        server.shutdown()

    def test_telemetry_snapshot_shape(self, dominant_matrix):
        server = _server()
        server.solve(SolveRequestV1(matrix=dominant_matrix))
        snapshot = server.telemetry_snapshot()
        assert snapshot["counters"]["solves_total"] == 1
        assert "solve.latency_ms" in snapshot["histograms"]
        assert "solve.iterations" in snapshot["histograms"]
        assert snapshot["queue"]["admitted"] == 1
        assert snapshot["artifact_cache"]["builds"] >= 1
        server.shutdown()


class TestReviewRegressions:
    def test_invalid_batch_max_rejected(self):
        from repro.exceptions import ParameterError

        with pytest.raises(ParameterError):
            SolveServer(batch_max=0)

    def test_scheduler_crash_fails_jobs_instead_of_none_result(
            self, dominant_matrix, monkeypatch):
        server = _server()
        job = server.submit(SolveRequestV1(matrix=dominant_matrix))

        def boom(batch):
            raise RuntimeError("scheduler exploded")

        monkeypatch.setattr(server.scheduler, "execute", boom)
        assert server.drain(timeout=10.0)
        assert job.state == "failed"
        with pytest.raises(RuntimeError, match="scheduler exploded"):
            job.result(timeout=1.0)
        assert server.telemetry.counter("jobs_failed").value == 1
        server.shutdown()

    def test_latency_histogram_records_full_group_time(self, dominant_matrix):
        server = _server()
        n = dominant_matrix.shape[0]
        jobs = server.submit_many([
            SolveRequestV1(matrix=dominant_matrix, rhs=np.ones(n)),
            SolveRequestV1(matrix=dominant_matrix, rhs=np.arange(n) * 1.0),
        ])
        assert server.drain(timeout=30.0)
        assert all(job.result(timeout=1.0).batch_size == 2 for job in jobs)
        latency = server.telemetry.histogram("solve.latency_ms").summary()
        amortised = server.telemetry.histogram(
            "solve.amortised_cost_ms").summary()
        # both callers waited the full group time; the amortised cost is half
        assert latency["p50"] == pytest.approx(2 * amortised["p50"])
        server.shutdown()

    def test_policy_and_tuning_service_share_the_warm_start_stage(
            self, tmp_path):
        from repro.core.evaluation import PerformanceRecord
        from repro.matrices import feature_vector, laplacian_2d
        from repro.mcmc.parameters import MCMCParameters
        from repro.server.policy import PreconditionerPolicy
        from repro.service import TuningRequest, TuningService
        from repro.service.ladder import StoreSnapshot, warm_start

        store = ObservationStore(tmp_path / "store")
        for size, name in ((8, "lap8"), (12, "lap12")):
            matrix = laplacian_2d(size)
            fingerprint = matrix_fingerprint(matrix)
            store.register_matrix(fingerprint, name, feature_vector(matrix))
            store.put_record(fingerprint, PerformanceRecord(
                parameters=MCMCParameters(alpha=2.0, eps=0.5, delta=0.5),
                matrix_name=name, baseline_iterations=10,
                preconditioned_iterations=[5], y_values=[0.5]), context="t")
        target = laplacian_2d(9)
        [donated] = warm_start(StoreSnapshot(store), target,
                               matrix_fingerprint(target))
        policy = PreconditionerPolicy(store)
        decision = policy.decide(target, matrix_fingerprint(target))
        assert decision.neighbour_name == donated.neighbour_name
        assert decision.neighbour_distance == pytest.approx(
            donated.neighbour_distance)
        [result] = TuningService(store).tune_batch([TuningRequest(
            matrix=target, name="lap9", budget=1, n_replications=1)])
        assert result.recommendation.neighbour_name == donated.neighbour_name
        assert result.recommendation.neighbour_distance == pytest.approx(
            donated.neighbour_distance)
