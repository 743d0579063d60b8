#!/usr/bin/env python3
"""Compare two results files of ``run.py``'s suite mode: ``compare.py A B``.

One row per workload and end-to-end metric: both medians, both quartile
ranges as a share of their median, the ratio B/A with its base, and a
verdict against the bound ``BENCHMARK.json`` fixes for that metric:

* ``unresolved`` — either side's quartile range is wider than the bound, so
  the runs cannot tell a regression of that size from noise;
* ``worse`` — B's median is worse than A's by more than the bound;
* ``ok`` — neither.

When both files were measured on the same seed, the seed-determined counts
are also compared and must agree exactly.  Exits 1 unless every row is
``ok``.  A is the base (the parent commit, or the first of two runs of one
commit); each file needs at least two runs per workload.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

SPEC = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def summary(values: list[float]) -> tuple[float, float]:
    """Median, and the distance between the quartiles as a share of it."""
    median = statistics.median(values)
    first, _, third = statistics.quantiles(values, n=4)
    return median, (third - first) / abs(median) if median else 0.0


def verdict(base: list[float], change: list[float], better: str,
            bound: float) -> tuple[str, str]:
    """The row of one metric on one workload: (text, verdict)."""
    base_median, base_spread = summary(base)
    change_median, change_spread = summary(change)
    ratio = change_median / base_median if base_median else float("nan")
    worsening = (ratio - 1.0) if better == "lower" else (1.0 - ratio)
    if max(base_spread, change_spread) > bound:
        result = "unresolved"
    elif worsening > bound:
        result = "worse"
    else:
        result = "ok"
    text = (f"{base_median:12.4f} ±{base_spread:6.1%} {change_median:12.4f} "
            f"±{change_spread:6.1%}   {ratio:6.3f} of {base_median:.4g}")
    return text, result


def main(argv: list[str]) -> int:
    if len(argv) != 3:
        print(__doc__)
        return 2
    base, change = (json.loads(Path(path).read_text()) for path in argv[1:])
    spec = json.loads(SPEC.read_text())
    status = 0
    print(f"A: {base['stamp']}\nB: {change['stamp']}")
    print(f"{'workload':12s} {'metric':16s} {'A median':>12s} {'A iqr':>7s} "
          f"{'B median':>12s} {'B iqr':>7s}   ratio B/A          verdict")
    for name, entry in base["workloads"].items():
        other = change["workloads"][name]
        for metric in spec["end_to_end"]:
            text, result = verdict(
                entry["metrics"][metric["name"]]["values"],
                other["metrics"][metric["name"]]["values"],
                metric["better"], metric["bound"])
            print(f"{name:12s} {metric['name']:16s} {text}   {result}")
            status |= result != "ok"
        if entry["failed"] or other["failed"]:
            print(f"{name:12s} failed operations: A {entry['failed']}, "
                  f"B {other['failed']}")
            status = 1
        if base["stamp"]["seed"] != change["stamp"]["seed"]:
            continue
        for metric in base["deterministic"]:
            ours = entry["metrics"][metric]["values"]
            theirs = other["metrics"][metric]["values"]
            if set(ours) != set(theirs) or len(set(ours)) != 1:
                print(f"{name:12s} {metric:16s} count differs on one seed: "
                      f"A {sorted(set(ours))}, B {sorted(set(theirs))}")
                status = 1
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv))
