"""The three serving workloads: ``warm_solve``, ``cold_build``, ``wire_fleet``.

All three drive the public clients with a closed loop (a caller of a linear
solver blocks on ``x``) over a stream generated once from the seed and
replayed identically every round, so both sides of a later comparison do
the same work.  They differ in which layers carry the time:

* ``warm_solve`` — every preconditioner is already cached, so ``krylov``
  does most of the work and build/wire none;
* ``cold_build`` — every request carries a never-seen fingerprint, so the
  same cache + ``precond``/``mcmc`` layers are used the other way round and
  build dominates;
* ``wire_fleet`` — light solves with heavy payloads through HTTP client →
  router → replica, so ``api``/``server.http``/``fleet`` carry the latency.
"""

from __future__ import annotations

import functools
import json
import os
import threading
import time
from dataclasses import dataclass, field

import numpy as np

from repro.api.schemas import SolveRequestV1
from repro.client import HTTPClient, InProcessClient
from repro.fleet import FleetRouter, InProcessReplica, ReplicaFleet
from repro.fleet.router import shard_key_of
from repro.matrices import advection_diffusion, laplacian_2d
from repro.matrices.registry import get_matrix
from repro.obs.trace import Tracer
from repro.server import SolveServer
from repro.service.cache import ArtifactCache
from repro.sparse.csr import random_sparse

from .staged import StagedPipeline
from .trace import SpanRecorder

__all__ = ["Round", "WarmSolve", "ColdBuild", "WireFleet", "CLIENT_THREADS"]

#: Closed-loop callers of ``wire_fleet``; the reference box has 2 cores.
CLIENT_THREADS = 2

#: Relative perturbation that gives ``cold_build`` matrices new fingerprints
#: without changing their pattern or how hard they are to solve.
PERTURBATION = 1e-6

#: A response passes when its true relative residual is within this factor
#: of the requested ``rtol``.  The left-preconditioned solvers stop on the
#: *preconditioned* residual, and restarted GMRES behind the Neumann series
#: leaves the true one up to 14 times larger on about one random right-hand
#: side in five hundred — so a factor of ten fails runs that are correct.
RESIDUAL_SLACK = 100.0

#: ``cold_build`` asks for a loose tolerance on the all-ones right-hand side:
#: short solves, so that the build is most of each request.
EASY_RTOL = 1e-4


@dataclass
class Round:
    """What one pass over a workload's stream produced."""

    latencies_ms: list[float] = field(default_factory=list)
    iterations: list[int] = field(default_factory=list)
    wall_s: float = 0.0
    failed: int = 0


def _new_server(**kwargs) -> SolveServer:
    return SolveServer(cache=ArtifactCache(max_entries=64), **kwargs)


#: Registry matrices by name; ``get_matrix`` generates one on every call.
_registry_matrix = functools.lru_cache(maxsize=None)(get_matrix)


def _matrix_of(request: SolveRequestV1):
    matrix = request.matrix
    return _registry_matrix(matrix) if isinstance(matrix, str) else matrix


def response_ok(request: SolveRequestV1, response) -> bool:
    """The benchmark's own check: converged, and the true relative residual
    recomputed with scipy is within ``RESIDUAL_SLACK`` of the tolerance."""
    matrix = _matrix_of(request)
    rhs = (np.ones(matrix.shape[0]) if request.rhs is None else request.rhs)
    residual = np.linalg.norm(rhs - matrix @ response.solution)
    return bool(response.converged
                and residual <= RESIDUAL_SLACK * request.rtol
                * np.linalg.norm(rhs))


def run_ops(client, ops) -> tuple[list[float], list]:
    """Run a stream of operations on one client, closed loop.

    An operation is a list of requests: one request is a synchronous
    ``solve``; several are a ``submit`` burst collected with ``result``.
    Latency is per request, from sending it to holding its response.
    """
    latencies, responses = [], []
    for op in ops:
        if len(op) == 1:
            start = time.perf_counter()
            responses.append(client.solve(op[0]))
            latencies.append((time.perf_counter() - start) * 1e3)
            continue
        pending = []
        for request in op:
            start = time.perf_counter()
            pending.append((start, client.submit(request)))
        for start, job_id in pending:
            responses.append(client.result(job_id, poll_interval=0.002))
            latencies.append((time.perf_counter() - start) * 1e3)
    return latencies, responses


def _finish_round(ops, latencies, responses, wall_s) -> Round:
    requests = [request for op in ops for request in op]
    failed = sum(not response_ok(request, response)
                 for request, response in zip(requests, responses))
    return Round(latencies_ms=latencies,
                 iterations=[int(r.iterations) for r in responses],
                 wall_s=wall_s, failed=failed)


def _cache_totals(stats: dict) -> tuple[float, float]:
    return float(stats.get("hits", 0)), float(stats.get("misses", 0))


def _ratio(hits: float, misses: float) -> float:
    return hits / (hits + misses) if hits + misses else 0.0


def _fleet_totals(snapshot) -> dict[str, float]:
    """The sums over replicas that the router's ``/v1/metrics`` ratios are
    made of; two scrapes are subtracted to cover one round."""
    def counted(prefix: str) -> float:
        return sum(value for key, value in snapshot.counters.items()
                   if key.startswith(prefix))

    caches = [_cache_totals(stats)
              for stats in snapshot.artifact_cache.values()]
    groups = [summary for key, summary in snapshot.histograms.items()
              if key.startswith("solve.batch_size")]
    return {
        "hits": sum(hits for hits, _ in caches),
        "misses": sum(misses for _, misses in caches),
        "groups": sum(summary["count"] for summary in groups),
        "grouped": sum(summary["count"] * summary["mean"]
                       for summary in groups),
        "local": counted('fleet.shard_locality{hit="true"}'),
        "remote": counted('fleet.shard_locality{hit="false"}'),
        "failovers": counted("fleet.failover"),
    }


def _replay(pipeline: StagedPipeline, requests,
            recorder: SpanRecorder) -> tuple[list[float], list[int]]:
    """One pass of the staged pipeline: (ms per request, iterations)."""
    pipeline.recorder = recorder
    elapsed_ms, iterations = [], []
    for index, request in enumerate(requests):
        start = time.perf_counter()
        iterations.append(pipeline.serve(request, f"r{index}"))
        elapsed_ms.append((time.perf_counter() - start) * 1e3)
    return elapsed_ms, iterations


def mean_of_minima(passes: list[list[float]]) -> float:
    """Mean over requests of each request's fastest pass: the estimate of a
    pass's cost that a busy neighbour on the box disturbs least."""
    return float(np.mean(np.min(np.asarray(passes), axis=0)))


def traced_replay(requests, serve, *, wire: bool, warm: bool,
                  recorder: SpanRecorder, pairs: int) -> dict[str, float]:
    """Replay ``requests`` through the staged pipeline, traced and untraced.

    ``serve()`` sends the same requests to the real server, in process and
    one at a time, and returns ``(latencies_ms, responses)``.  The three
    kinds of pass are interleaved ``pairs`` times.  Raises if any replayed
    request does not reproduce the served iteration count: the per-layer
    table would then describe a different computation.
    """
    off = SpanRecorder(enabled=False)
    warmed = None
    if warm:
        warmed = StagedPipeline(off, wire=wire)
        _replay(warmed, requests, off)
    served_ms, plain_ms, traced_ms = [], [], []
    for index in range(pairs):
        latencies, responses = serve()
        served_ms.append(latencies)
        # Cold replays start from an empty pipeline, as the server did.
        plain_ms.append(_replay(
            warmed or StagedPipeline(off, wire=wire), requests, off)[0])
        # Spans of the first traced pass are kept; later passes only steady
        # the overhead estimate.
        elapsed_ms, iterations = _replay(
            warmed or StagedPipeline(off, wire=wire), requests,
            recorder if index == 0 else SpanRecorder())
        traced_ms.append(elapsed_ms)
        expected = [int(response.iterations) for response in responses]
        if iterations != expected:
            raise RuntimeError(
                f"staged pipeline iterations {iterations} differ from the "
                f"served ones {expected}")

    n = len(requests)
    counts = recorder.counts
    api_names = ("api.request_encode", "api.request_decode",
                 "api.response_encode", "api.response_decode")
    # Means are per replayed request, so a layer's share of the request is
    # its metric over bench.request_ms; build spans only exist on misses.
    metrics = {f"{name}_ms": sum(recorder.durations_ms(name)) / n
               for name in (*api_names, "sparse.fingerprint",
                            "server.policy_decide", "krylov.solve")}
    metrics["api.request_bytes"] = counts["api.request_bytes"] / n
    for family in ("ic0", "ilu0", "neumann", "spai", "jacobi"):
        metrics[f"precond.build_ms.{family}"] = recorder.mean_ms(
            f"precond.build.{family}")
    builds = max(counts["mcmc.builds"], 1)
    metrics["mcmc.build_ms"] = recorder.mean_ms("mcmc.build")
    metrics["mcmc.table_build_ms"] = recorder.mean_ms("mcmc.table_build")
    for name in ("mcmc.walks", "mcmc.total_steps", "mcmc.nnz_inverse"):
        metrics[name] = counts[name] / builds
    for name in ("krylov.matvec_ms", "krylov.precond_apply_ms",
                 "krylov.orthogonalization_ms", "krylov.iterations",
                 "krylov.matvecs"):
        metrics[name] = counts[name] / n
    plain = mean_of_minima(plain_ms)
    codec = sum(metrics[f"{name}_ms"] for name in api_names)
    metrics["server.self_ms"] = mean_of_minima(served_ms) - (plain - codec)
    metrics["bench.request_ms"] = recorder.mean_ms("request")
    metrics["bench.trace_overhead_pct"] = (
        (mean_of_minima(traced_ms) - plain) / plain * 100.0)
    return metrics


class _InProcessWorkload:
    """Shared shape of the two in-process workloads."""

    warm: bool

    def __init__(self, seed: int, smoke: bool) -> None:
        self.rng = np.random.default_rng(seed)
        self.smoke = smoke
        self.ops: list[list[SolveRequestV1]] = []
        self.prefix = 0
        self.server: SolveServer | None = None

    def close(self) -> None:
        if self.server is not None:
            self.server.shutdown()
            self.server = None

    def _serve(self, server: SolveServer, ops) -> tuple[Round, list]:
        client = InProcessClient(server, wire_fidelity=False)
        start = time.perf_counter()
        latencies, responses = run_ops(client, ops)
        wall_s = time.perf_counter() - start
        return _finish_round(ops, latencies, responses, wall_s), responses

    def _traced_server(self) -> SolveServer:
        """The server a served pass of the traced run goes to."""
        raise NotImplementedError

    def traced(self, recorder: SpanRecorder) -> dict[str, float]:
        """Per-layer metrics from the staged replay of the stream's prefix."""
        ops = self.ops[:self.prefix]
        cache_moves = []

        def serve() -> tuple[list[float], list]:
            server = self._traced_server()
            before = _cache_totals(server.cache.stats.as_dict())
            round_, responses = self._serve(server, ops)
            after = _cache_totals(server.cache.stats.as_dict())
            cache_moves.append((after[0] - before[0], after[1] - before[1]))
            return round_.latencies_ms, responses

        metrics = traced_replay(
            [request for op in ops for request in op], serve, wire=False,
            warm=self.warm, recorder=recorder, pairs=1 if self.smoke else 3)
        metrics["service.cache_hit_ratio"] = _ratio(*cache_moves[-1])
        metrics["server.batch_size_mean"] = float(
            self.server.telemetry_snapshot()
            ["histograms"]["solve.batch_size"]["mean"])
        return metrics


class WarmSolve(_InProcessWorkload):
    """One caller, every preconditioner cached: Krylov time dominates."""

    name = "warm_solve"
    warm = True

    def __init__(self, seed: int, smoke: bool = False) -> None:
        super().__init__(seed, smoke)
        lap48 = laplacian_2d(48)
        mild = advection_diffusion(40, diffusion=0.05)
        # (matrix, solver, preconditioner); None lets the rule table choose.
        # Nine slots, one combination twice, so that the median request falls
        # inside one latency class and not on the border between two.
        combos = [
            (laplacian_2d(64), None, None),                    # IC0 + CG
            (lap48, "gmres", "mcmc"),
            (lap48, "gmres", "spai"),
            (lap48, "bicgstab", "jacobi"),
            (mild, None, None),                                # Neumann + GMRES
            (mild, "bicgstab", "ilu0"),
            (mild, "gmres", "mcmc"),
            (mild, "gmres", "mcmc"),
            (advection_diffusion(40, diffusion=0.01), "gmres", "none"),
        ]
        if smoke:
            combos = combos[2:7]
        cycles = 1 if smoke else 5
        self.ops = [[self._request(*combo)]
                    for _ in range(cycles) for combo in combos]
        self.prefix = len(combos)
        self.server = _new_server()
        self._serve(self.server, self.ops[:self.prefix])

    def _request(self, matrix, solver, preconditioner) -> SolveRequestV1:
        return SolveRequestV1(
            matrix=matrix, rhs=self.rng.standard_normal(matrix.shape[0]),
            solver=solver, preconditioner=preconditioner, maxiter=1000)

    def run_round(self) -> Round:
        return self._serve(self.server, self.ops)[0]

    def _traced_server(self) -> SolveServer:
        return self.server

    def traced(self, recorder: SpanRecorder) -> dict[str, float]:
        metrics = super().traced(recorder)
        metrics["obs.tracer_overhead_ms"] = self._tracer_overhead()
        return metrics

    def _tracer_overhead(self) -> float:
        """Mean per-request cost of ``SolveServer(tracer=Tracer())``."""
        ops = self.ops[:self.prefix]
        traced_server = _new_server(tracer=Tracer())
        try:
            self._serve(traced_server, ops)
            passes = {"plain": [], "traced": []}
            for _ in range(1 if self.smoke else 5):
                for key, server in (("plain", self.server),
                                    ("traced", traced_server)):
                    passes[key].append(self._serve(server, ops)[0].latencies_ms)
        finally:
            traced_server.shutdown()
        return mean_of_minima(passes["traced"]) - mean_of_minima(passes["plain"])


def perturbed(matrix, rng: np.random.Generator):
    """``matrix`` with every stored value moved by at most ``PERTURBATION``
    of itself: same pattern, same difficulty, a fingerprint never seen.  A
    symmetric matrix stays symmetric, so the rule table still sees SPD."""
    noise = matrix.copy()
    noise.data = rng.uniform(-1.0, 1.0, matrix.nnz)
    if (matrix != matrix.T).nnz == 0:
        noise = ((noise + noise.T) * 0.5).tocsr()
    return (matrix + PERTURBATION * matrix.multiply(noise)).tocsr()


class ColdBuild(_InProcessWorkload):
    """One caller, every request a cache miss: build time dominates."""

    name = "cold_build"
    warm = False

    def __init__(self, seed: int, smoke: bool = False) -> None:
        super().__init__(seed, smoke)
        general = advection_diffusion(40, diffusion=0.05)
        # (family member, solver, preconditioner): the families the rule
        # table and explicit requests reach, MCMC at paper defaults on three
        # members because it is the family the system exists for.  Seven
        # latency classes: the median request is an ILU0 one, the p90 the
        # largest MCMC one.
        families = [
            (laplacian_2d(40), None, None),                    # IC0 + CG
            (general, "bicgstab", "ilu0"),
            (general, None, None),                             # Neumann + GMRES
            (laplacian_2d(56), "gmres", "spai"),
            (advection_diffusion(48, diffusion=0.05), "gmres", "mcmc"),
            (laplacian_2d(40), "gmres", "mcmc"),
            (laplacian_2d(48), "gmres", "mcmc"),
        ]
        cycles = 1 if smoke else 5
        self.ops = [[SolveRequestV1(
            matrix=perturbed(matrix, self.rng), rhs=None, solver=solver,
            preconditioner=preconditioner, rtol=EASY_RTOL, maxiter=1000)]
            for _ in range(cycles)
            for matrix, solver, preconditioner in families]
        self.prefix = len(families) * min(cycles, 2)
        # Nothing can be cached between rounds, but first calls into each
        # family's code are slower than later ones; get them over with.
        self._serve_fresh(self.ops[:len(families)])

    def _serve_fresh(self, ops) -> Round:
        server = _new_server()
        try:
            return self._serve(server, ops)[0]
        finally:
            server.shutdown()

    def run_round(self) -> Round:
        # A fresh server and cache each round, so round 2 cannot hit.
        return self._serve_fresh(self.ops)

    def _traced_server(self) -> SolveServer:
        self.close()
        self.server = _new_server()
        return self.server


class WireFleet:
    """Two HTTP callers → router → two replicas: the wire carries the time."""

    name = "wire_fleet"

    def __init__(self, seed: int, smoke: bool = False) -> None:
        if CLIENT_THREADS > (os.cpu_count() or 1):
            raise RuntimeError(
                f"{CLIENT_THREADS} client threads on {os.cpu_count()} cores: "
                f"the load generator would compete with the system under test")
        rng = np.random.default_rng(seed)
        self.smoke = smoke
        n = 600 if smoke else 2500
        # Strongly dominant, so the rule table picks Jacobi and a solve is a
        # handful of iterations: the half-megabyte payload is the work.
        inline = [random_sparse(n, 0.003, seed=int(rng.integers(1 << 31)),
                                diag_boost=16.0) for _ in range(3)]
        names = ["PDD_RealSparse_N128", "PDD_RealSparse_N256"]

        def request(matrix) -> SolveRequestV1:
            size = (_registry_matrix(matrix) if isinstance(matrix, str)
                    else matrix).shape[0]
            return SolveRequestV1(matrix=matrix, rhs=rng.standard_normal(size),
                                  maxiter=200)

        # Per caller and cycle: inline, name, inline, burst of four submits
        # over one matrix — synchronous to name to submitted as 2:1:1.
        cycles = 1 if smoke else 6
        self.streams = []
        for thread in range(CLIENT_THREADS):
            ops = []
            for cycle in range(cycles):
                pick = cycle * CLIENT_THREADS + thread
                ops += [[request(inline[pick % 3])],
                        [request(names[pick % 2])],
                        [request(inline[(pick + 1) % 3])],
                        [request(inline[(pick + 2) % 3]) for _ in range(4)]]
            self.streams.append(ops)
        self.prefix = 4
        self.replicas = [InProcessReplica(f"replica-{index}")
                         for index in range(2)]
        self.fleet = ReplicaFleet(self.replicas, health_interval=30.0).start()
        self.router = FleetRouter(self.fleet).start()
        self._reference: dict[int, np.ndarray] = {}
        # Warm-up: every matrix built on its replica, every kind of
        # operation through every hop once.
        warm = HTTPClient(self.router.url, timeout=300.0)
        for ops in self.streams:
            run_ops(warm, ops[:self.prefix])

    def close(self) -> None:
        self.router.shutdown()
        self.fleet.drain()

    def run_round(self) -> Round:
        results: list = [None] * CLIENT_THREADS

        def caller(index: int) -> None:
            client = HTTPClient(self.router.url, timeout=300.0)
            results[index] = run_ops(client, self.streams[index])

        threads = [threading.Thread(target=caller, args=(index,))
                   for index in range(CLIENT_THREADS)]
        start = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        wall_s = time.perf_counter() - start
        if any(result is None for result in results):
            raise RuntimeError("a wire_fleet caller died; see its traceback")
        round_ = Round(wall_s=wall_s)
        for ops, (latencies, responses) in zip(self.streams, results):
            part = _finish_round(ops, latencies, responses, wall_s)
            round_.latencies_ms += part.latencies_ms
            round_.iterations += part.iterations
            round_.failed += part.failed
        round_.failed += self._not_bit_identical(results[0][1])
        return round_

    def _not_bit_identical(self, responses) -> int:
        """Sampled check: the first caller's first cycle must come back from
        the fleet bit-identical to the in-process answer."""
        requests = [r for op in self.streams[0][:self.prefix] for r in op]
        if not self._reference:
            server = _new_server()
            try:
                for index, request in enumerate(requests):
                    self._reference[index] = server.solve(request).solution
            finally:
                server.shutdown()
        return sum(not np.array_equal(self._reference[index],
                                      responses[index].solution)
                   for index in range(len(requests)))

    # -- traced pass ---------------------------------------------------------
    def _owner(self, request: SolveRequestV1) -> InProcessReplica:
        body = json.dumps(request.to_json_dict()).encode("utf-8")
        name = self.router.ring.route(shard_key_of(body))
        return next(r for r in self.replicas if r.name == name)

    def traced(self, recorder: SpanRecorder) -> dict[str, float]:
        """Per-layer metrics: staged replay of the first caller's first
        cycle, the same requests over each transport with one caller, and
        one ordinary round bracketed by ``/v1/metrics`` scrapes."""
        requests = [r for op in self.streams[0][:self.prefix] for r in op]
        owners = [self._owner(request) for request in requests]
        router_client = HTTPClient(self.router.url, timeout=300.0)
        # Each transport adds one hop to the one before it; every request
        # goes to the replica that owns its shard, whose cache is warm.
        transports = {
            "direct": lambda owner: InProcessClient(
                owner.http_server.solve_server, wire_fidelity=False),
            "codec": lambda owner: InProcessClient(
                owner.http_server.solve_server, wire_fidelity=True),
            "http": lambda owner: HTTPClient(owner.url, timeout=300.0),
            "router": lambda owner: router_client,
        }
        passes: dict[str, list[list[float]]] = {key: [] for key in transports}

        def one_at_a_time(key: str) -> tuple[list[float], list]:
            latencies, responses = [], []
            for request, owner in zip(requests, owners):
                ms, response = run_ops(transports[key](owner), [[request]])
                latencies += ms
                responses += response
            passes[key].append(latencies)
            return latencies, responses

        metrics = traced_replay(requests, lambda: one_at_a_time("direct"),
                                wire=True, warm=True, recorder=recorder,
                                pairs=1 if self.smoke else 3)
        for _ in range(1 if self.smoke else 5):
            for key in ("codec", "http", "router"):
                one_at_a_time(key)
        cost = {key: mean_of_minima(passes[key]) for key in passes}
        metrics["server.http_overhead_ms"] = cost["http"] - cost["codec"]
        metrics["fleet.router_overhead_ms"] = cost["router"] - cost["http"]
        # Shares on this workload refer to the request as the caller of the
        # router sees it: the staged request plus both measured hops.
        metrics["bench.request_ms"] += (metrics["server.http_overhead_ms"]
                                        + metrics["fleet.router_overhead_ms"])

        # The numbers that only exist with both callers running.
        before = _fleet_totals(router_client.metrics())
        self.run_round()
        after = _fleet_totals(router_client.metrics())

        moved = {key: value - before[key] for key, value in after.items()}
        metrics["service.cache_hit_ratio"] = _ratio(moved["hits"],
                                                    moved["misses"])
        metrics["server.batch_size_mean"] = (
            moved["grouped"] / max(moved["groups"], 1))
        metrics["fleet.shard_locality"] = _ratio(moved["local"],
                                                 moved["remote"])
        metrics["fleet.failovers"] = moved["failovers"]
        return metrics
