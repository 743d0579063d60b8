"""Smoke test of the benchmark suite at a reduced request count.

Collected by the tier-1 run.  It does not measure anything: it checks that
``BENCHMARK.json`` is well formed, that every workload runs untraced and
traced and answers every request correctly, and that both passes print
exactly the metrics ``BENCHMARK.json`` declares.  The traced pass raises
when the staged pipeline does not reproduce the served iteration counts, so
passing it is that check.
"""

from __future__ import annotations

import re

import pytest

from .run import WORKLOADS, load_spec, run_workload

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def test_benchmark_json_is_well_formed():
    spec = load_spec()
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert 2 <= len(spec["workloads"]) <= 8
    assert 1 <= len(spec["end_to_end"]) <= 16
    assert 1 <= len(spec["per_layer"]) <= 128
    names = [entry["name"] for key in ("workloads", "end_to_end", "per_layer")
             for entry in spec[key]]
    assert len(set(names)) == len(names)
    assert all(NAME.fullmatch(name) for name in names)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"]
               for w in spec["workloads"])
    for metric in spec["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert metric["better"] in ("lower", "higher")
        assert 0 < metric["bound"] <= 0.25
    for metric in spec["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_workload_runs_correctly_untraced_and_traced(name, tmp_path):
    spec = load_spec()
    for trace, declared in ((False, "end_to_end"), (True, "per_layer")):
        result = run_workload(name, seed=7, seconds=0.0, trace=trace,
                              smoke=True, out=tmp_path)
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] >= 1
        assert list(result["metrics"]) == [m["name"] for m in spec[declared]]
        if not trace:
            assert all(reading["value"] > 0
                       for reading in result["metrics"].values())
    assert (tmp_path / f"trace-{name}.json").exists()
