"""Tests for the durable observation store (repro.service.store)."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core.evaluation import PerformanceRecord
from repro.exceptions import ParameterError
from repro.mcmc.parameters import MCMCParameters
from repro.service.store import ObservationStore, parameter_hash


def _record(alpha: float = 1.0, *, name: str = "m",
            y_values=(0.5, 0.7)) -> PerformanceRecord:
    parameters = MCMCParameters(alpha=alpha, eps=0.5, delta=0.5)
    return PerformanceRecord(
        parameters=parameters, matrix_name=name, baseline_iterations=10,
        preconditioned_iterations=[int(10 * y) for y in y_values],
        y_values=list(y_values))


class TestParameterHash:
    def test_distinguishes_parameters(self):
        a = MCMCParameters(alpha=1.0, eps=0.5, delta=0.5)
        b = MCMCParameters(alpha=1.0, eps=0.5, delta=0.25)
        c = a.with_solver("bicgstab")
        assert parameter_hash(a) != parameter_hash(b)
        assert parameter_hash(a) != parameter_hash(c)
        assert parameter_hash(a) == parameter_hash(
            MCMCParameters(alpha=1.0, eps=0.5, delta=0.5))


class TestRoundTrip:
    def test_put_get_exact(self, tmp_path):
        store = ObservationStore(tmp_path / "store")
        record = _record()
        assert store.put_record("fp1", record, context="ctx") is True
        loaded = store.get_record("fp1", record.parameters, context="ctx")
        assert loaded is not None
        assert loaded.y_values == record.y_values
        assert loaded.preconditioned_iterations == record.preconditioned_iterations
        assert loaded.baseline_iterations == record.baseline_iterations
        assert loaded.parameters == record.parameters

    def test_context_is_part_of_the_key(self, tmp_path):
        store = ObservationStore(tmp_path)
        record = _record()
        store.put_record("fp1", record, context="a")
        assert store.get_record("fp1", record.parameters, context="b") is None
        assert store.has_record("fp1", record.parameters, context="a")

    def test_dedup(self, tmp_path):
        store = ObservationStore(tmp_path)
        record = _record()
        assert store.put_record("fp1", record) is True
        assert store.put_record("fp1", record) is False
        assert len(store) == 1

    def test_survives_reopen(self, tmp_path):
        store = ObservationStore(tmp_path)
        store.put_record("fp1", _record(1.0))
        store.put_record("fp1", _record(2.0))
        store.register_matrix("fp1", "m", np.arange(3.0))
        reopened = ObservationStore(tmp_path)
        assert len(reopened) == 2
        assert reopened.has_matrix("fp1") and not reopened.has_matrix("fp2")
        entry = reopened.matrix_entries()["fp1"]
        assert entry.name == "m"
        np.testing.assert_array_equal(entry.features, np.arange(3.0))

    def test_observations_for(self, tmp_path):
        store = ObservationStore(tmp_path)
        store.put_record("fp1", _record(1.0))
        store.put_record("fp2", _record(2.0, name="other"))
        observations = store.observations_for("fp1")
        assert len(observations) == 1
        assert observations[0].matrix_name == "m"
        assert observations[0].y_mean == pytest.approx(0.6)


class TestQuery:
    def test_filters(self, tmp_path):
        store = ObservationStore(tmp_path)
        store.put_record("fp1", _record(1.0))
        store.put_record("fp1", _record(2.0))
        store.put_record("fp2", _record(3.0, name="other"))
        assert len(store.query(fingerprint="fp1")) == 2
        assert len(store.query(matrix_name="other")) == 1
        assert len(store.query(solver="bicgstab")) == 0
        assert len(store.query()) == 3
        assert store.fingerprints() == {"fp1", "fp2"}


class TestCrashSafety:
    def test_torn_final_line_is_skipped(self, tmp_path):
        store = ObservationStore(tmp_path)
        store.put_record("fp1", _record(1.0))
        index = tmp_path / "index.jsonl"
        with open(index, "a", encoding="utf-8") as handle:
            handle.write('{"kind":"record","key":"torn')  # no newline: crash
        reopened = ObservationStore(tmp_path)
        assert len(reopened) == 1

    def test_corrupt_middle_line_is_skipped(self, tmp_path):
        store = ObservationStore(tmp_path)
        store.put_record("fp1", _record(1.0))
        index = tmp_path / "index.jsonl"
        with open(index, "a", encoding="utf-8") as handle:
            handle.write("not json at all\n")
        store.put_record("fp1", _record(2.0))
        reopened = ObservationStore(tmp_path)
        assert len(reopened) == 2

    def test_missing_payload_is_skipped(self, tmp_path):
        store = ObservationStore(tmp_path)
        record = _record(1.0)
        store.put_record("fp1", record)
        key = store.record_key("fp1", record.parameters, "")
        (tmp_path / "payloads" / f"{key}.npz").unlink()
        reopened = ObservationStore(tmp_path)
        assert len(reopened) == 0


class TestConcurrentWriters:
    def test_reload_picks_up_second_writer(self, tmp_path):
        """Two store objects over one directory: reload merges appends."""
        writer_a = ObservationStore(tmp_path)
        writer_b = ObservationStore(tmp_path)
        writer_a.put_record("fp1", _record(1.0))
        writer_b.put_record("fp1", _record(2.0))
        assert len(writer_a) == 1 and len(writer_b) == 1
        assert writer_a.reload() == 1
        assert writer_b.reload() == 1
        assert len(writer_a) == len(writer_b) == 2

    def test_reload_is_idempotent(self, tmp_path):
        store = ObservationStore(tmp_path)
        store.put_record("fp1", _record(1.0))
        assert store.reload() == 0
        assert store.reload() == 0
        assert len(store) == 1

    def test_merge_from_other_store(self, tmp_path):
        a = ObservationStore(tmp_path / "a")
        b = ObservationStore(tmp_path / "b")
        a.put_record("fp1", _record(1.0))
        b.put_record("fp1", _record(1.0))   # duplicate of a's record
        b.put_record("fp2", _record(2.0, name="other"))
        b.register_matrix("fp2", "other")
        assert a.merge_from(b) == 1         # only the genuinely new record
        assert len(a) == 2
        assert "fp2" in a.matrix_entries()
        # merge accepts a path too, and refuses merging into itself
        c = ObservationStore(tmp_path / "c")
        assert c.merge_from(tmp_path / "a") == 2
        with pytest.raises(ParameterError):
            c.merge_from(tmp_path / "c")


class TestSnapshotUnderConcurrentAppend:
    """The online trainer's contract: snapshots taken mid-append are never
    torn, and ``reload()`` after a snapshot reports only genuinely-new
    records."""

    def test_reader_never_sees_torn_record(self, tmp_path):
        import threading

        writer = ObservationStore(tmp_path)
        reader = ObservationStore(tmp_path)
        n_writes = 60
        errors: list[str] = []
        done = threading.Event()

        def write_loop():
            try:
                for i in range(n_writes):
                    writer.put_record(f"fp{i % 4}", _record(0.1 + 0.01 * i))
            finally:
                done.set()

        def read_loop():
            while not done.is_set():
                reader.reload()
                for stored in list(reader):
                    record = stored.to_record()
                    if not record.y_values:
                        errors.append("record with empty y_values")
                    if not all(np.isfinite(v) for v in record.y_values):
                        errors.append("non-finite y_values")
                    if record.parameters.alpha <= 0:
                        errors.append("invalid parameters")

        threads = [threading.Thread(target=write_loop),
                   threading.Thread(target=read_loop)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        assert reader.reload() == n_writes - len(reader)
        assert len(reader) == n_writes

    def test_snapshot_mid_append_sees_prefix_and_reload_reports_only_new(
            self, tmp_path):
        writer = ObservationStore(tmp_path)
        reader = ObservationStore(tmp_path)
        for i in range(5):
            writer.put_record("fp1", _record(1.0 + i))
        assert reader.reload() == 5
        snapshot = [stored.key for stored in reader]
        assert len(snapshot) == 5

        # Simulate a torn in-flight append: a partial line without newline.
        index = tmp_path / "index.jsonl"
        with open(index, "a", encoding="utf-8") as handle:
            handle.write('{"kind": "record", "fingerpr')
        assert reader.reload() == 0          # torn tail is invisible
        assert len(reader) == 5

        # Writer completes the append cycle (its own full lines follow).
        # Truncate the torn fragment the way the writer's crash-recovery
        # would before appending.
        content = index.read_text(encoding="utf-8")
        index.write_text(content[:content.rfind("\n") + 1], encoding="utf-8")
        writer.reload(full=True)
        writer.put_record("fp2", _record(9.0, name="late"))
        writer.put_record("fp2", _record(10.0, name="late"))
        # reload() after the snapshot reports exactly the genuinely-new
        # records, and the snapshot keys are untouched (immutable records).
        assert reader.reload() == 2
        assert len(reader) == 7
        assert [stored.key for stored in reader][:5] == snapshot


class TestIndexFormat:
    def test_index_lines_are_json_with_summary_stats(self, tmp_path):
        """The JSONL index doubles as a human-greppable summary."""
        store = ObservationStore(tmp_path)
        store.put_record("fp1", _record(1.0, y_values=(0.4, 0.6)))
        lines = [json.loads(line) for line
                 in (tmp_path / "index.jsonl").read_text().splitlines()]
        assert lines[0]["kind"] == "record"
        assert lines[0]["alpha"] == 1.0
        assert lines[0]["y_mean"] == pytest.approx(0.5)
        assert (tmp_path / "payloads" / lines[0]["payload"]).exists()
