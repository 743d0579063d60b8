"""The solve server end to end: submit -> batched solve -> telemetry.

Walks the serving layer's full loop:

1. submit a mixed stream of requests (two right-hand sides over the *same*
   matrix, one SPD matrix, one explicit-preconditioner request),
2. drain the queue — same-fingerprint requests are batched into one
   preconditioner build and one multi-rhs solve,
3. print each response with its policy provenance, then the telemetry
   snapshot (counters, latency histogram, cache statistics),
4. show block CG batching: a ``batch_mode="block"`` server serves a
   same-matrix CG batch through one shared subspace
   (:mod:`repro.krylov.block`) and reports far fewer matrix--vector
   products than per-column serving — the same switch the CLI exposes as
   ``repro-serve <matrix> --repeat 8 --rhs random --batch-mode block``,
5. show backpressure: a queue bounded at depth 2 rejects the third submit
   with an explicit reason instead of buffering unboundedly.

Run with ``PYTHONPATH=src python examples/solve_server.py``.
"""

from __future__ import annotations

import json

import numpy as np

from repro.api import AdmissionError, SolveRequestV1 as SolveRequest
from repro.matrices import laplacian_2d, pdd_real_sparse
from repro.server import SolveServer
from repro.service.cache import ArtifactCache


def main() -> None:
    cache = ArtifactCache(max_entries=16)
    # background=False: requests accumulate in the queue and batch maximally
    # when drain() executes them — the deterministic bulk-serving mode.
    server = SolveServer(cache=cache, background=False)

    dominant = pdd_real_sparse(64, density=0.1, dominance=3.0, seed=2)
    spd = laplacian_2d(12)
    rng = np.random.default_rng(0)

    print("== submit ==")
    jobs = server.submit_many([
        # two rhs for one matrix -> one build, one multi-rhs solve
        SolveRequest(matrix=dominant, rhs=rng.standard_normal(64), tag="pdd/a"),
        SolveRequest(matrix=dominant, rhs=rng.standard_normal(64), tag="pdd/b"),
        # SPD matrix -> the rule table picks IC(0) + CG
        SolveRequest(matrix=spd, tag="laplace"),
        # explicit override, recorded as origin=explicit
        SolveRequest(matrix=spd, preconditioner="jacobi", solver="cg",
                     tag="laplace/jacobi"),
    ])
    print(f"admitted {len(jobs)} requests; queue depth "
          f"{server.queue.depth}")

    print("\n== drain (batched execution) ==")
    server.drain()
    for job in jobs:
        response = job.result()
        print(f"{response.tag:16s} {response.solver:8s}"
              f"+ {response.provenance['built_family']:7s}"
              f" origin={response.provenance['origin']:9s}"
              f" iterations={response.iterations:3d}"
              f" batch={response.batch_size}")

    print("\n== telemetry ==")
    print(json.dumps(server.telemetry_snapshot(), indent=2))

    print("\n== block CG batching (--batch-mode block) ==")
    # A same-matrix batch served with batch_mode="block" shares ONE Krylov
    # subspace across every right-hand side instead of solving per column.
    laplace = laplacian_2d(16)
    matvec_totals = {}
    for mode in ("loop", "block"):
        batched = SolveServer(cache=ArtifactCache(max_entries=16),
                              background=False, batch_mode=mode)
        mode_jobs = batched.submit_many([
            SolveRequest(matrix=laplace,
                         rhs=rng.standard_normal(laplace.shape[0]),
                         solver="cg", preconditioner="none",
                         tag=f"{mode}/{index}")
            for index in range(6)])
        batched.drain()
        assert all(job.result().converged for job in mode_jobs)
        matvec_totals[mode] = batched.telemetry.counter(
            "solve.matvecs_total").value
        sample = mode_jobs[0].result()
        print(f"mode={mode:5s} batch_mode={sample.batch_mode:5s} "
              f"total matvecs={matvec_totals[mode]:4d} "
              f"(deflated columns: "
              f"{batched.telemetry.counter('solve.deflated_columns').value})")
        batched.shutdown()
    print(f"block mode saved "
          f"{matvec_totals['loop'] - matvec_totals['block']} matvecs "
          f"({matvec_totals['block'] / matvec_totals['loop']:.2f}x of loop)")

    print("\n== backpressure ==")
    tiny = SolveServer(cache=cache, max_queue_depth=2, background=False)
    tiny.submit(SolveRequest(matrix=spd, tag="q1"))
    tiny.submit(SolveRequest(matrix=spd, tag="q2"))
    try:
        tiny.submit(SolveRequest(matrix=spd, tag="q3"))
    except AdmissionError as error:
        print(f"third submit rejected: reason={error.reason} ({error})")
    tiny.drain()
    tiny.shutdown()
    server.shutdown()


if __name__ == "__main__":
    main()
