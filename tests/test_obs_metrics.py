"""Labeled metrics, reservoir quantiles, and the Prometheus exposition."""

import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.exceptions import ParameterError
from repro.obs.metrics import (
    Histogram,
    MetricsRegistry,
    parse_label_key,
    render_label_key,
)
from repro.obs.prometheus import parse_prometheus, render_prometheus


# -- labeled instruments ------------------------------------------------------
def test_render_label_key_sorts_and_escapes():
    assert render_label_key("m", {}) == "m"
    assert render_label_key("m", {"b": "2", "a": "1"}) == 'm{a="1",b="2"}'
    assert render_label_key("m", {"x": 'say "hi"\n'}) == \
        'm{x="say \\"hi\\"\\n"}'


def test_labeled_instruments_are_distinct_per_label_set():
    registry = MetricsRegistry()
    registry.counter("solve.rejected", reason="queue_full").add(2)
    registry.counter("solve.rejected", reason="invalid").add(1)
    registry.counter("solve.rejected").add(5)
    snapshot = registry.snapshot()
    assert snapshot["counters"]["solve.rejected"] == 5
    assert snapshot["counters"]['solve.rejected{reason="queue_full"}'] == 2
    assert snapshot["counters"]['solve.rejected{reason="invalid"}'] == 1


def test_same_label_set_resolves_to_same_instrument():
    registry = MetricsRegistry()
    first = registry.counter("c", a="1", b="2")
    second = registry.counter("c", b="2", a="1")  # kwargs order irrelevant
    assert first is second
    first.add(1)
    assert second.value == 1


def test_unlabeled_snapshot_shape_is_unchanged():
    registry = MetricsRegistry()
    registry.counter("requests").add(3)
    registry.gauge("depth").set(4.0)
    registry.histogram("latency_ms").observe(1.5)
    snapshot = registry.snapshot()
    assert snapshot["counters"] == {"requests": 3}
    assert snapshot["gauges"] == {"depth": 4.0}
    assert set(snapshot["histograms"]) == {"latency_ms"}


def test_invalid_label_name_rejected():
    registry = MetricsRegistry()
    with pytest.raises(ParameterError):
        registry.counter("c", **{"bad-name": "v"})


def test_snapshot_sections_are_sorted_by_key():
    registry = MetricsRegistry()
    registry.counter("b").add(1)
    registry.counter("a", x="1").add(1)
    registry.histogram("h").observe(1.0)
    snapshot = registry.snapshot()
    assert list(snapshot["counters"]) == ['a{x="1"}', "b"]
    assert list(snapshot["histograms"]) == ["h"]


def test_one_name_may_be_a_counter_and_a_gauge():
    """The instrument table is keyed by (kind, key): kinds do not collide."""
    registry = MetricsRegistry()
    registry.counter("x").add(2)
    registry.gauge("x").set(0.5)
    snapshot = registry.snapshot()
    assert snapshot["counters"] == {"x": 2}
    assert snapshot["gauges"] == {"x": 0.5}


def test_histogram_summary_carries_the_exact_sum():
    histogram = Histogram("h", max_samples=2)
    for value in (0.5, 1.25, 2.0):
        histogram.observe(value)
    assert histogram.summary()["sum"] == 3.75
    assert Histogram("empty").summary()["sum"] == 0.0


def test_metrics_module_does_not_import_the_server():
    """`repro.obs` is a leaf package (the Krylov solvers import it): loading
    the registry must not pull in `repro.server`, or the import cycle that
    once forced a second label codec comes back.  The `repro` package root
    imports everything, so it is stubbed out for the check."""
    src = Path(__file__).resolve().parents[1] / "src"
    code = (
        "import sys, types\n"
        "root = types.ModuleType('repro')\n"
        f"root.__path__ = [{str(src / 'repro')!r}]\n"
        "sys.modules['repro'] = root\n"
        "import repro.obs.metrics\n"
        "leaked = sorted(m for m in sys.modules "
        "if m.startswith(('repro.server', 'repro.fleet', 'repro.client')))\n"
        "assert not leaked, leaked\n")
    subprocess.run([sys.executable, "-c", code], check=True, timeout=120)


# -- reservoir sampling -------------------------------------------------------
def test_reservoir_quantiles_track_a_shifted_distribution():
    """The regression the reservoir fixes: with first-N retention, quantiles
    freeze on the early distribution once the buffer fills; Algorithm R keeps
    the reservoir uniform over the whole stream, so p95 must follow a shift
    that happens entirely after overflow."""
    histogram = Histogram("latency", max_samples=512)
    for _ in range(512):
        histogram.observe(1.0)  # fill the reservoir at the old regime
    for _ in range(20_000):
        histogram.observe(100.0)  # post-overflow regime shift
    summary = histogram.summary()
    assert summary["count"] == 20_512
    # ~97.5% of the stream is at 100; first-N retention would report p95=1.0
    assert summary["p95"] == 100.0
    assert summary["p50"] == 100.0
    assert summary["min"] == 1.0 and summary["max"] == 100.0


def test_reservoir_is_deterministic_per_key():
    streams = []
    for _ in range(2):
        histogram = Histogram("h", max_samples=64)
        for value in range(1000):
            histogram.observe(float(value))
        streams.append(histogram.summary())
    assert streams[0] == streams[1]


def test_reservoir_stays_roughly_uniform():
    histogram = Histogram("uniformity", max_samples=1024)
    for value in range(100_000):
        histogram.observe(float(value))
    # the p50 estimate of a uniform 0..99999 stream must land near 50k
    assert abs(histogram.quantile(0.5) - 50_000) < 10_000
    assert histogram.count == 100_000


def test_exact_aggregates_survive_overflow():
    histogram = Histogram("h", max_samples=4)
    for value in (1.0, 2.0, 3.0, 4.0, 5.0, 100.0):
        histogram.observe(value)
    assert histogram.count == 6
    assert histogram.sum == 115.0
    summary = histogram.summary()
    assert summary["min"] == 1.0 and summary["max"] == 100.0
    assert summary["mean"] == pytest.approx(115.0 / 6)


def test_p99_reported_and_ordered():
    histogram = Histogram("h")
    for value in range(1, 1001):
        histogram.observe(float(value))
    summary = histogram.summary()
    assert summary["p50"] <= summary["p95"] <= summary["p99"] <= summary["max"]
    assert summary["p99"] == pytest.approx(990.01, rel=1e-6)


def test_empty_histogram_summary_has_p99():
    summary = Histogram("h").summary()
    assert summary["count"] == 0
    assert np.isnan(summary["p99"])


# -- concurrency --------------------------------------------------------------
def test_registry_under_concurrent_writers():
    registry = MetricsRegistry()
    capped = Histogram("capped", max_samples=128)
    errors = []

    def worker(index: int) -> None:
        try:
            for i in range(500):
                registry.counter("total").add(1)
                registry.counter("by_worker", worker=str(index)).add(1)
                registry.gauge("depth", worker=str(index)).set(i)
                registry.histogram("obs").observe(float(i))
                capped.observe(float(i))
        except Exception as error:  # noqa: BLE001 - collected for the assert
            errors.append(error)

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert not errors
    assert registry.counter("total").value == 8 * 500
    for index in range(8):
        assert registry.counter("by_worker", worker=str(index)).value == 500
    histogram = registry.histogram("obs")
    assert histogram.count == 8 * 500
    # reservoir bounded despite 4000 observations
    assert capped.count == 8 * 500
    assert len(capped._samples) == 128
    # snapshot is coherent JSON-serialisable output under the same races
    snapshot = registry.snapshot()
    assert snapshot["counters"]["total"] == 8 * 500


# -- Prometheus exposition ----------------------------------------------------
def test_prometheus_render_parse_round_trip():
    registry = MetricsRegistry()
    registry.counter("requests.admitted").add(7)
    registry.counter("solve.rejected", reason="queue_full").add(2)
    registry.gauge("queue.depth").set(3.0)
    histogram = registry.histogram("solve.latency_ms")
    for value in (1.0, 2.0, 3.0, 4.0):
        histogram.observe(value)

    snapshot = registry.snapshot()
    snapshot["queue"] = {"depth": 99, "max_depth": 256, "closed": False}
    text = render_prometheus(snapshot)
    samples, families = parse_prometheus(text)
    by_key = {(s.name, tuple(sorted(s.labels.items()))): s.value
              for s in samples}

    assert by_key[("repro_requests_admitted_total", ())] == 7
    assert by_key[("repro_solve_rejected_total",
                   (("reason", "queue_full"),))] == 2
    # the registry gauge wins over the section entry of the same name, and
    # the section's bool is not a gauge
    assert by_key[("repro_queue_depth", ())] == 3.0
    assert by_key[("repro_queue_max_depth", ())] == 256.0
    assert ("repro_queue_closed", ()) not in by_key
    assert by_key[("repro_solve_latency_ms_count", ())] == 4
    assert by_key[("repro_solve_latency_ms_sum", ())] == 10.0
    assert by_key[("repro_solve_latency_ms",
                   (("quantile", "0.5"),))] == pytest.approx(2.5)
    assert families["repro_requests_admitted_total"] == "counter"
    assert families["repro_queue_depth"] == "gauge"
    assert families["repro_solve_latency_ms"] == "summary"


def test_prometheus_replica_keyed_sections_become_labelled_gauges():
    """The fleet router's merged snapshot keys its sections by replica."""
    registry = MetricsRegistry()
    registry.gauge("queue.depth", replica="r0").set(2.0)
    snapshot = registry.snapshot()
    snapshot["queue"] = {"r0": {"depth": 9, "admitted": 4, "closed": False},
                         "r1": {"depth": 1, "admitted": 6, "closed": True}}
    samples, families = parse_prometheus(render_prometheus(snapshot))
    by_key = {(s.name, tuple(sorted(s.labels.items()))): s.value
              for s in samples}
    assert by_key == {
        ("repro_queue_depth", (("replica", "r0"),)): 2.0,   # registry wins
        ("repro_queue_depth", (("replica", "r1"),)): 1.0,
        ("repro_queue_admitted", (("replica", "r0"),)): 4.0,
        ("repro_queue_admitted", (("replica", "r1"),)): 6.0,
    }
    assert families == {"repro_queue_depth": "gauge",
                        "repro_queue_admitted": "gauge"}


def test_prometheus_parser_rejects_malformed_lines():
    with pytest.raises(ValueError):
        parse_prometheus("this is not a metric line at all {{{\n")
    with pytest.raises(ValueError):
        parse_prometheus('m{a="unterminated} 1\n')
    with pytest.raises(ValueError):
        parse_prometheus("m not_a_number\n")


def test_prometheus_sanitizes_metric_names():
    registry = MetricsRegistry()
    registry.counter("solve.phase-total@weird").add(1)
    text = render_prometheus(registry.snapshot())
    samples, _ = parse_prometheus(text)
    assert samples[0].name == "repro_solve_phase_total_weird_total"


def test_prometheus_empty_histogram_omits_nan_quantiles():
    registry = MetricsRegistry()
    registry.histogram("latency_ms")  # created, never observed
    text = render_prometheus(registry.snapshot())
    assert "NaN" not in text
    samples, _ = parse_prometheus(text)
    names = {s.name for s in samples}
    assert "repro_latency_ms_count" in names
    assert not any(s.labels.get("quantile") for s in samples)


def test_prometheus_one_type_line_per_family():
    registry = MetricsRegistry()
    registry.counter("c", a="1").add(1)
    registry.counter("c", a="2").add(1)
    text = render_prometheus(registry.snapshot())
    assert text.count("# TYPE repro_c_total counter") == 1


def test_prometheus_label_values_escaped():
    registry = MetricsRegistry()
    registry.counter("c", path='a\\b"c\nd').add(1)
    samples, _ = parse_prometheus(render_prometheus(registry.snapshot()))
    assert samples[0].labels["path"] == 'a\\b"c\nd'


# -- the codec, as a property -------------------------------------------------
_NAMES = st.from_regex(r"[a-zA-Z_][a-zA-Z0-9_.]{0,12}", fullmatch=True)
_LABELS = st.dictionaries(
    st.from_regex(r"[a-zA-Z_][a-zA-Z0-9_]{0,8}", fullmatch=True)
    .filter(lambda key: key != "quantile"),  # the encoder's own label
    st.text(alphabet=st.one_of(st.sampled_from('\\"\n\r{}=, '),
                               st.characters(exclude_categories=("Cs",))),
            max_size=12),
    max_size=4)


@given(name=_NAMES, labels=_LABELS)
def test_label_key_round_trips(name, labels):
    assert parse_label_key(render_label_key(name, labels)) == (name, labels)


@given(name=_NAMES, labels=_LABELS)
def test_exposition_returns_the_label_values_it_was_given(name, labels):
    registry = MetricsRegistry()
    registry.counter(name, **labels).add(3)
    registry.histogram(name, **labels).observe(1.5)
    samples, _ = parse_prometheus(render_prometheus(registry.snapshot()))
    assert len(samples) == 6  # counter + 3 quantiles + _sum + _count
    for sample in samples:
        given_back = dict(sample.labels)
        given_back.pop("quantile", None)
        assert given_back == labels


# -- golden exposition --------------------------------------------------------
def _golden_snapshot() -> dict:
    """A fixed single-server snapshot: every instrument kind, labelled and
    not, names that need sanitising, values that need escaping, an empty
    histogram, and both sections a :class:`~repro.server.SolveServer` adds."""
    registry = MetricsRegistry()
    registry.counter("requests_admitted").add(7)
    registry.counter("solves_total").add(6)
    registry.counter("solve.matvecs_total").add(412)
    registry.counter("solve.rejected", reason="queue_full").add(2)
    registry.counter("solve.rejected", reason="invalid").add(1)
    registry.counter("solve.completed", solver="gmres",
                     preconditioner="mcmc", batch_mode="loop").add(4)
    registry.counter("weird-name@x", path='a\\b"c\nd').add(1)
    registry.gauge("queue.depth").set(3)
    registry.gauge("queue.inflight").set(1)
    registry.gauge("learn.records_seen").set(12.5)
    registry.gauge("fleet.replicas_live", zone="eu").set(2)
    latency = registry.histogram("solve.latency_ms")
    for value in (1.0, 2.0, 3.0, 4.5):
        latency.observe(value)
    iterations = registry.histogram("solve.iterations", solver="gmres",
                                    fingerprint="abc123def456")
    for value in (17, 19):
        iterations.observe(value)
    registry.histogram("policy.regret", origin="surrogate")  # never observed
    snapshot = registry.snapshot()
    snapshot["queue"] = {"depth": 3, "inflight": 1, "admitted": 7,
                         "max_depth": 256, "closed": False}
    snapshot["artifact_cache"] = {"hits": 5, "misses": 2, "evictions": 0,
                                  "disk_hits": 0, "builds": 2,
                                  "hit_rate": 5 / 7}
    return snapshot


#: Generated at the last commit with two encoders (4b55391) from the state
#: above — there `render_prometheus(registry, extra_gauges=...)` with the
#: extras `SolveServer.prometheus_metrics` hand-built from the two sections.
#: Running this file as a script prints today's rendering for comparison.
GOLDEN_EXPOSITION = r'''# TYPE repro_requests_admitted_total counter
repro_requests_admitted_total 7
# TYPE repro_solve_completed_total counter
repro_solve_completed_total{batch_mode="loop",preconditioner="mcmc",solver="gmres"} 4
# TYPE repro_solve_matvecs_total counter
repro_solve_matvecs_total 412
# TYPE repro_solve_rejected_total counter
repro_solve_rejected_total{reason="invalid"} 1
repro_solve_rejected_total{reason="queue_full"} 2
# TYPE repro_solves_total counter
repro_solves_total 6
# TYPE repro_weird_name_x_total counter
repro_weird_name_x_total{path="a\\b\"c\nd"} 1
# TYPE repro_artifact_cache_builds gauge
repro_artifact_cache_builds 2
# TYPE repro_artifact_cache_disk_hits gauge
repro_artifact_cache_disk_hits 0
# TYPE repro_artifact_cache_evictions gauge
repro_artifact_cache_evictions 0
# TYPE repro_artifact_cache_hit_rate gauge
repro_artifact_cache_hit_rate 0.7142857142857143
# TYPE repro_artifact_cache_hits gauge
repro_artifact_cache_hits 5
# TYPE repro_artifact_cache_misses gauge
repro_artifact_cache_misses 2
# TYPE repro_fleet_replicas_live gauge
repro_fleet_replicas_live{zone="eu"} 2
# TYPE repro_learn_records_seen gauge
repro_learn_records_seen 12.5
# TYPE repro_queue_admitted gauge
repro_queue_admitted 7
# TYPE repro_queue_depth gauge
repro_queue_depth 3
# TYPE repro_queue_inflight gauge
repro_queue_inflight 1
# TYPE repro_queue_max_depth gauge
repro_queue_max_depth 256
# TYPE repro_policy_regret summary
repro_policy_regret_sum{origin="surrogate"} 0
repro_policy_regret_count{origin="surrogate"} 0
# TYPE repro_solve_iterations summary
repro_solve_iterations{fingerprint="abc123def456",solver="gmres",quantile="0.5"} 18
repro_solve_iterations{fingerprint="abc123def456",solver="gmres",quantile="0.95"} 18.9
repro_solve_iterations{fingerprint="abc123def456",solver="gmres",quantile="0.99"} 18.98
repro_solve_iterations_sum{fingerprint="abc123def456",solver="gmres"} 36
repro_solve_iterations_count{fingerprint="abc123def456",solver="gmres"} 2
# TYPE repro_solve_latency_ms summary
repro_solve_latency_ms{quantile="0.5"} 2.5
repro_solve_latency_ms{quantile="0.95"} 4.2749999999999995
repro_solve_latency_ms{quantile="0.99"} 4.455
repro_solve_latency_ms_sum 10.5
repro_solve_latency_ms_count 4
'''


def test_exposition_is_byte_identical_to_the_golden():
    assert render_prometheus(_golden_snapshot()) == GOLDEN_EXPOSITION


if __name__ == "__main__":
    sys.stdout.write(render_prometheus(_golden_snapshot()))
