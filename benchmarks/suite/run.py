#!/usr/bin/env python3
"""The repository's benchmark: one command, four workloads.

``python3 benchmarks/suite/run.py --workload W --seed S --seconds T --trace 0``
generates workload ``W`` from the seed, sets it up, measures it for about
``T`` seconds, checks every output and prints, as the last line of standard
output, one JSON object with every end-to-end metric of ``BENCHMARK.json``.
``--trace 1`` runs the separate traced pass instead and prints every
per-layer metric (and writes ``out/trace-<workload>.json``).

Without ``--workload`` it runs the whole suite — every workload in a fresh
interpreter, ``--repeats`` times untraced and traced — checks that the
seed-determined counts repeat exactly, and writes one stamped results file
that ``compare.py`` reads.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
if __package__ in (None, ""):
    # Run as a script: import the directory as the package ``suite`` (its
    # trace.py must not shadow the standard library's) and the code under
    # test from this checkout's src/.
    sys.path[0:1] = [str(HERE.parent), str(ROOT / "src")]

import numpy as np
import scipy

from suite.serving import CLIENT_THREADS, ColdBuild, WarmSolve, WireFleet
from suite.trace import SpanRecorder
from suite.tuning import TuneUnseen

OUT = HERE / "out"
WORKLOADS = {cls.name: cls for cls in (WarmSolve, ColdBuild, WireFleet,
                                       TuneUnseen)}
#: Set-up is repeated and its median reported, so that work moved into
#: set-up shows as steadily as work in the timed phase.  A fixed count: what
#: earlier set-ups leave behind is part of peak_rss_mb.
SETUP_REPEATS = 5
#: Metrics that are pure functions of the seed: two runs must agree exactly.
DETERMINISTIC = ("iterations_mean", "krylov.iterations", "krylov.matvecs",
                 "mcmc.walks", "mcmc.total_steps", "core.fit_epochs",
                 "core.best_y")


def load_spec() -> dict:
    """``BENCHMARK.json``: the one place metric names and units are fixed."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def measure(workload, seconds: float) -> tuple[dict[str, float], int, int]:
    """Repeat whole rounds for about ``seconds``; end-to-end metrics."""
    rounds = []
    start = time.perf_counter()
    while True:
        gc.collect()    # every round starts from the same collector state
        rounds.append(workload.run_round())
        elapsed = time.perf_counter() - start
        if elapsed + 0.5 * elapsed / len(rounds) >= seconds:
            break
    latencies = [ms for r in rounds for ms in r.latencies_ms]
    iterations = [count for r in rounds for count in r.iterations]
    metrics = {
        "latency_p50_ms": float(np.percentile(latencies, 50)),
        "latency_p90_ms": float(np.percentile(latencies, 90)),
        "throughput_rps": statistics.median(
            len(r.latencies_ms) / r.wall_s for r in rounds),
        "iterations_mean": float(np.mean(iterations)),
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return metrics, len(latencies), sum(r.failed for r in rounds)


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 smoke: bool = False, out: Path = OUT) -> dict:
    """Set up, run and check one workload; returns the contract's result.

    ``smoke`` shrinks every workload to a few requests (the tier-1 smoke
    test); ``out`` is where the traced pass writes its span file.
    """
    spec = load_spec()
    cls = WORKLOADS[name]
    setup_s, workload = [], None
    for _ in range(1 if smoke or trace else SETUP_REPEATS):
        if workload is not None:
            workload.close()
        start = time.perf_counter()
        workload = cls(seed, smoke)
        setup_s.append(time.perf_counter() - start)
    try:
        if trace:
            recorder = SpanRecorder()
            values = workload.traced(recorder)
            recorder.dump(out / f"trace-{name}.json", workload=name,
                          seed=seed, metrics=values)
            attempted = len(recorder.durations_ms("request"))
            failed = 0      # a replay that disagrees with the server raises
            declared = spec["per_layer"]
        else:
            values, attempted, failed = measure(workload, seconds)
            values["setup_s"] = statistics.median(setup_s)
            declared = spec["end_to_end"]
    finally:
        workload.close()
    unknown = set(values) - {metric["name"] for metric in declared}
    if unknown:
        raise RuntimeError(f"metrics missing from BENCHMARK.json: {unknown}")
    # A per-layer metric of a layer this workload does not reach is 0.
    metrics = {metric["name"]: {"value": float(values.get(metric["name"], 0.0)),
                                "unit": metric["unit"]}
               for metric in declared}
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def stamp(seed: int) -> dict:
    """Where and on what a results file was measured."""
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = "unknown"
    blas = (os.environ.get("OPENBLAS_NUM_THREADS")
            or os.environ.get("OMP_NUM_THREADS") or os.cpu_count())
    return {"seed": seed, "git_sha": sha, "nproc": os.cpu_count(),
            "client_threads": CLIENT_THREADS,
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "blas_threads": int(blas)}


def run_suite(seed: int, seconds: float, repeats: int, out: Path) -> int:
    """Every workload in fresh interpreters; one stamped results file."""
    results = {"stamp": stamp(seed), "seconds": seconds,
               "deterministic": DETERMINISTIC, "workloads": {}}
    status = 0
    for name in WORKLOADS:
        entry = {"attempted": 0, "failed": 0, "metrics": {}}
        for trace in (0, 1):
            for _ in range(repeats):
                done = subprocess.run(
                    [sys.executable, str(Path(__file__).resolve()),
                     "--workload", name, "--seed", str(seed),
                     "--seconds", str(seconds), "--trace", str(trace)],
                    capture_output=True, text=True)
                if done.returncode != 0:
                    sys.stderr.write(done.stderr)
                    raise RuntimeError(f"{name} --trace {trace} failed")
                result = json.loads(done.stdout.strip().splitlines()[-1])
                entry["attempted"] += result["attempted"]
                entry["failed"] += result["failed"]
                for metric, reading in result["metrics"].items():
                    slot = entry["metrics"].setdefault(
                        metric, {"unit": reading["unit"], "values": []})
                    slot["values"].append(reading["value"])
        results["workloads"][name] = entry
        print(f"\n{name}: attempted {entry['attempted']}, "
              f"failed {entry['failed']}")
        for metric, slot in entry["metrics"].items():
            values = slot["values"]
            if not any(values):
                continue    # a layer this workload does not reach
            print(f"  {metric:32s} {statistics.median(values):14.4f} "
                  f"{slot['unit']:10s} spread {max(values) - min(values):.4g}")
            if metric in DETERMINISTIC and len(set(values)) > 1:
                print(f"  ^ NOT DETERMINISTIC: {values}")
                status = 1
        status = status or int(entry["failed"] > 0)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(results, indent=1))
    print(f"\nwrote {out}")
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        default=load_spec()["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeats", type=int, default=3,
                        help="suite mode: runs per workload and pass")
    parser.add_argument("--out", type=Path,
                        help="suite mode: results file "
                             "(default out/suite-seed<S>.json)")
    args = parser.parse_args()
    if args.workload is None:
        return run_suite(args.seed, args.seconds, args.repeats,
                         args.out or OUT / f"suite-seed{args.seed}.json")
    result = run_workload(args.workload, args.seed, args.seconds,
                          bool(args.trace))
    for name, reading in result["metrics"].items():
        print(f"{name:32s} {reading['value']:14.4f} {reading['unit']}",
              file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
