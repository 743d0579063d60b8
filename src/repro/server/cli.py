"""``repro-serve`` — the solve server from the command line.

Installed as a console script by ``setup.py``.  Two modes:

* **One-shot** — submit registry solves through an in-process server, print
  per-request solution statistics and the telemetry snapshot, optionally
  write everything as JSON::

      repro-serve 2DFDLaplace_16 --repeat 3 --json out.json
      repro-serve a00512 --solver gmres --preconditioner ilu0 --rhs random
      repro-serve 2DFDLaplace_16 --repeat 8 --rhs random --batch-mode block
      repro-serve --list-matrices

* **Wire server** — expose the versioned HTTP/JSON protocol
  (:mod:`repro.server.http`) until interrupted; SIGINT/SIGTERM trigger a
  graceful drain and a clean (zero) exit::

      repro-serve --http --port 8080
      repro-serve --http --port 0          # ephemeral port, printed on stdout

Both modes accept ``--learn`` (with ``--store`` and ``--model-dir``) to run
the online learning loop while serving; ``--learn-status URL`` queries a
running wire server's ``GET /v1/learn`` and exits::

      repro-serve --http --port 0 --store runs/store --learn --model-dir runs/models
      repro-serve 2DFDLaplace_16 --repeat 4 --store runs/store --learn --model-dir runs/models
      repro-serve --learn-status http://127.0.0.1:8080

Admission rejections exit non-zero (2) with the typed
:class:`~repro.api.errors.ErrorEnvelope` on stderr instead of a traceback,
so scripted callers can parse the structured reason.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys

import numpy as np

from repro.api.errors import AdmissionError, ErrorEnvelope
from repro.api.schemas import SolveRequestV1
from repro.matrices.registry import MATRIX_REGISTRY
from repro.obs.trace import Tracer
from repro.precond.factory import KNOWN_FAMILIES
from repro.server.http import SolveHTTPServer
from repro.server.server import SolveServer
from repro.version import __version__

__all__ = ["build_parser", "main"]

#: Exit code of a request rejected at admission (distinct from 1, which
#: means "served but not converged").
EXIT_REJECTED = 2


def build_parser() -> argparse.ArgumentParser:
    """The ``repro-serve`` argument parser (exposed for the smoke test)."""
    parser = argparse.ArgumentParser(
        prog="repro-serve",
        description="Solve a registry matrix through the repro solve server "
                    "(or serve the HTTP/JSON wire protocol with --http).")
    parser.add_argument("matrix", nargs="?",
                        help="registry matrix name (see --list-matrices)")
    parser.add_argument("--list-matrices", action="store_true",
                        help="print the known registry matrices and exit")
    parser.add_argument("--http", action="store_true",
                        help="serve the versioned HTTP/JSON wire protocol "
                             "until interrupted instead of a one-shot solve")
    parser.add_argument("--host", default="127.0.0.1",
                        help="bind address of --http (default: 127.0.0.1)")
    parser.add_argument("--port", type=int, default=8080,
                        help="port of --http; 0 picks an ephemeral port "
                             "(default: 8080)")
    parser.add_argument("--rhs", choices=("ones", "random"), default="ones",
                        help="right-hand side: all-ones or seeded random "
                             "(default: ones)")
    parser.add_argument("--solver", default=None,
                        choices=("gmres", "bicgstab", "cg"),
                        help="Krylov solver (default: policy decides)")
    parser.add_argument("--preconditioner", default="auto",
                        choices=("auto",) + KNOWN_FAMILIES,
                        help="preconditioner family (default: auto policy)")
    parser.add_argument("--batch-mode", default="loop",
                        choices=("loop", "block", "auto"),
                        help="multi-rhs execution of same-matrix batches: "
                             "'loop' solves per column (bit-identical to "
                             "sequential solves); 'block' and 'auto' serve "
                             "a CG batch with block CG (fewer matvecs, less "
                             "wall time) and every other solver with the "
                             "loop (default: loop; applies to one-shot and "
                             "--http serving alike)")
    parser.add_argument("--rtol", type=float, default=1e-8,
                        help="relative residual tolerance (default: 1e-8)")
    parser.add_argument("--maxiter", type=int, default=1000,
                        help="iteration budget (default: 1000)")
    parser.add_argument("--repeat", type=int, default=1,
                        help="number of requests to submit (distinct seeded "
                             "rhs with --rhs random; identical otherwise)")
    parser.add_argument("--seed", type=int, default=0,
                        help="seed of the random right-hand sides")
    parser.add_argument("--store", default=None,
                        help="observation-store directory for policy reuse "
                             "and online feedback (default: none)")
    parser.add_argument("--learn", action="store_true",
                        help="enable the online learning loop: train the GNN "
                             "surrogate from the observation store in the "
                             "background, publish versioned models to "
                             "--model-dir and let the policy propose MCMC "
                             "parameters by Expected Improvement (requires "
                             "--store and --model-dir; applies to one-shot "
                             "and --http serving alike)")
    parser.add_argument("--model-dir", default=None, metavar="DIR",
                        help="model-registry directory of --learn (versioned "
                             "snapshots, CURRENT pointer, trainer checkpoint)")
    parser.add_argument("--learn-interval", type=float, default=10.0,
                        metavar="SECONDS",
                        help="background retrain poll period of --learn "
                             "(default: 10)")
    parser.add_argument("--learn-threshold", type=int, default=16, metavar="N",
                        help="new store records that trigger a retrain "
                             "(default: 16)")
    parser.add_argument("--learn-min-records", type=int, default=24,
                        metavar="N",
                        help="store records required before the first "
                             "generation trains (default: 24)")
    parser.add_argument("--learn-status", default=None, metavar="URL",
                        help="query GET /v1/learn of a running --http server "
                             "at URL, print the JSON status and exit")
    parser.add_argument("--trace-dir", default=None, metavar="DIR",
                        help="enable request tracing and write spans to "
                             "DIR/trace.jsonl (streamed) plus DIR/trace.json "
                             "(Chrome trace-event format, written on clean "
                             "shutdown; open in chrome://tracing or Perfetto). "
                             "Applies to one-shot and --http modes alike "
                             "(default: tracing off)")
    parser.add_argument("--json", default=None, metavar="PATH",
                        help="write responses + telemetry snapshot to PATH")
    parser.add_argument("--version", action="version",
                        version=f"repro-serve {__version__}")
    return parser


def _make_rhs(kind: str, dimension: int, seed: int, index: int) -> np.ndarray:
    if kind == "random":
        return np.random.default_rng(seed + index).standard_normal(dimension)
    return np.ones(dimension)


def _make_tracer(trace_dir: str | None) -> Tracer | None:
    """A JSONL-streaming tracer rooted at ``trace_dir`` (None = tracing off)."""
    if trace_dir is None:
        return None
    os.makedirs(trace_dir, exist_ok=True)
    return Tracer(jsonl_path=os.path.join(trace_dir, "trace.jsonl"))


def _finish_tracer(tracer: Tracer | None, trace_dir: str | None) -> None:
    """Write the Chrome trace-event export and release the JSONL sink."""
    if tracer is None:
        return
    chrome_path = os.path.join(trace_dir, "trace.json")
    tracer.export_chrome(chrome_path)
    tracer.close()
    print(f"repro-serve: wrote trace to {trace_dir}/trace.jsonl "
          f"and {chrome_path}", flush=True)


def _learn_kwargs(args: argparse.Namespace,
                  parser: argparse.ArgumentParser) -> dict:
    """:class:`SolveServer` keyword arguments of the ``--learn`` flags."""
    if not args.learn:
        if args.model_dir is not None:
            parser.error("--model-dir only applies together with --learn")
        return {}
    if args.store is None:
        parser.error("--learn trains from the observation store; "
                     "--store is required")
    if args.model_dir is None:
        parser.error("--learn publishes model versions to a registry; "
                     "--model-dir is required")
    from repro.learn import LearnConfig

    config = LearnConfig(min_records=args.learn_min_records,
                         retrain_threshold=args.learn_threshold,
                         interval_s=args.learn_interval)
    return {"learn": True, "model_dir": args.model_dir,
            "learn_config": config}


def _query_learn_status(url: str) -> int:
    """Print ``GET /v1/learn`` of a running wire server (``--learn-status``)."""
    from urllib.request import urlopen

    with urlopen(url.rstrip("/") + "/v1/learn", timeout=10) as response:
        payload = json.load(response)
    print(json.dumps(payload, indent=2))
    return 0


def _serve_http(args: argparse.Namespace,
                learn_kwargs: dict | None = None) -> int:
    """Blocking wire-server mode; returns 0 on a graceful interrupt."""
    tracer = _make_tracer(args.trace_dir)
    server_kwargs = {} if tracer is None else {"tracer": tracer}
    server_kwargs.update(learn_kwargs or {})
    http_server = SolveHTTPServer(host=args.host, port=args.port,
                                  store=args.store,
                                  batch_mode=args.batch_mode,
                                  **server_kwargs)

    def interrupt(signum, frame):  # noqa: ARG001 - signal API
        raise KeyboardInterrupt

    previous = signal.signal(signal.SIGTERM, interrupt)
    # Announce the resolved (possibly ephemeral) port before blocking so a
    # supervisor can parse it and start pointing clients at the server.
    print(f"repro-serve listening on {http_server.url}", flush=True)
    try:
        http_server.serve_forever()
    except KeyboardInterrupt:
        # serve_forever's finally clause already drained and shut down the
        # owned solve server; reaching here is the *graceful* path.
        print("repro-serve: drained and shut down cleanly", flush=True)
    finally:
        signal.signal(signal.SIGTERM, previous)
        _finish_tracer(tracer, args.trace_dir)
    return 0


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.list_matrices:
        for name, spec in MATRIX_REGISTRY.items():
            print(f"{name:36s} n={spec.dimension:<7d} "
                  f"symmetric={spec.symmetric} group={spec.group}")
        return 0
    if args.learn_status is not None:
        if args.matrix is not None or args.http or args.learn:
            parser.error("--learn-status queries a running server and "
                         "combines with no other mode")
        return _query_learn_status(args.learn_status)
    learn_kwargs = _learn_kwargs(args, parser)
    if args.http:
        if args.matrix is not None:
            parser.error("--http serves requests over the wire; "
                         "a matrix argument makes no sense with it")
        # One-shot flags would be silently ignored in wire-server mode;
        # reject them instead of surprising a scripted caller (--store,
        # --host and --port are the meaningful knobs here).
        one_shot_defaults = {"json": None, "repeat": 1, "solver": None,
                             "preconditioner": "auto", "rtol": 1e-8,
                             "maxiter": 1000, "rhs": "ones", "seed": 0}
        conflicting = [f"--{name}" for name, default in
                       one_shot_defaults.items()
                       if getattr(args, name) != default]
        if conflicting:
            parser.error(f"{', '.join(conflicting)} only apply to one-shot "
                         f"solves and are ignored by --http; requests carry "
                         f"these settings over the wire instead")
        return _serve_http(args, learn_kwargs)
    if args.matrix is None:
        parser.error("a matrix name is required (or --list-matrices/--http)")
    if args.matrix not in MATRIX_REGISTRY:
        parser.error(f"unknown matrix {args.matrix!r}; "
                     f"try --list-matrices")
    if args.repeat < 1:
        parser.error(f"--repeat must be >= 1, got {args.repeat}")

    dimension = MATRIX_REGISTRY[args.matrix].dimension
    preconditioner = None if args.preconditioner == "auto" else args.preconditioner
    tracer = _make_tracer(args.trace_dir)
    server_kwargs = {} if tracer is None else {"tracer": tracer}
    server_kwargs.update(learn_kwargs)
    with SolveServer(store=args.store, batch_mode=args.batch_mode,
                     **server_kwargs) as server:
        try:
            jobs = server.submit_many([
                SolveRequestV1(matrix=args.matrix,
                               rhs=_make_rhs(args.rhs, dimension, args.seed,
                                             index),
                               solver=args.solver,
                               preconditioner=preconditioner,
                               rtol=args.rtol,
                               maxiter=args.maxiter,
                               tag=f"{args.matrix}[{index}]")
                for index in range(args.repeat)])
        except AdmissionError as error:
            # The typed envelope on stderr, not a traceback: scripted
            # callers parse the structured reason and retry accordingly.
            envelope = ErrorEnvelope.from_exception(error)
            print(json.dumps(envelope.to_json_dict(), indent=2),
                  file=sys.stderr)
            return EXIT_REJECTED
        server.drain()
        responses = [job.result() for job in jobs]
        snapshot = server.telemetry_snapshot()
        learn_report = server.learn_status() if args.learn else None
    _finish_tracer(tracer, args.trace_dir)

    exit_code = 0
    report = []
    for response in responses:
        status = ("converged" if response.converged
                  else f"NOT CONVERGED ({response.termination})")
        print(f"{response.tag}: {status} in {response.iterations} iterations "
              f"({response.solver} + {response.provenance['built_family']}, "
              f"origin={response.provenance['origin']}, "
              f"residual={response.final_residual:.3e}, "
              f"true_residual={response.true_residual:.3e}, "
              f"batched with {response.batch_size - 1} other request(s), "
              f"mode={response.batch_mode})")
        if not response.converged:
            exit_code = 1
        report.append({
            "tag": response.tag,
            "fingerprint": response.fingerprint,
            "converged": bool(response.converged),
            "iterations": int(response.iterations),
            "final_residual": float(response.final_residual),
            "solver": response.solver,
            "provenance": response.provenance.to_json_dict(),
            "batch_size": int(response.batch_size),
            "batch_mode": response.batch_mode,
            "solution_norm": float(np.linalg.norm(response.solution)),
        })

    if learn_report is not None:
        print("\nlearn:")
        print(json.dumps(learn_report, indent=2))
    print("\ntelemetry:")
    print(json.dumps(snapshot, indent=2))
    if args.json is not None:
        payload = {"responses": report, "telemetry": snapshot}
        if learn_report is not None:
            payload["learn"] = learn_report
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2)
        print(f"wrote {args.json}")
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
