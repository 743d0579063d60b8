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


_DROP = object()


def _record_line(**changes) -> dict:
    """A well-formed record index line, with fields changed or dropped."""
    line = {"kind": "record", "key": "k", "fingerprint": "fp9",
            "context": "", "matrix_name": "m", "alpha": 1.0, "eps": 0.5,
            "delta": 0.5, "solver": "gmres", "baseline_iterations": 10,
            "y_values": [0.5], "preconditioned_iterations": [5]}
    line.update(changes)
    return {name: value for name, value in line.items() if value is not _DROP}


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

    def test_values_round_trip_exactly_through_a_reopen(self, tmp_path):
        """Every float bit and every iteration count survives the one file."""
        rng = np.random.default_rng(3)
        replications = rng.standard_normal(50) * np.exp2(
            rng.integers(-1000, 1000, 50))
        y_vectors = {1.0: [1 / 3, 5e-324, 1e308, -0.0],
                     2.0: [float(v) for v in replications]}
        store = ObservationStore(tmp_path)
        for alpha, y_values in y_vectors.items():
            with np.errstate(over="ignore"):  # y_std of 1e308 is inf
                record = PerformanceRecord(
                    parameters=MCMCParameters(alpha=alpha, eps=0.5,
                                              delta=0.5),
                    matrix_name="m", baseline_iterations=np.int64(10),
                    preconditioned_iterations=[
                        np.int64(7 + i) for i in range(len(y_values))],
                    y_values=y_values)
                store.put_record("fp1", record)
        reopened = ObservationStore(tmp_path)
        assert len(reopened) == 2
        for alpha, y_values in y_vectors.items():
            loaded = reopened.get_record(
                "fp1", MCMCParameters(alpha=alpha, eps=0.5, delta=0.5))
            assert ([v.hex() for v in loaded.y_values]
                    == [v.hex() for v in y_values])
            assert loaded.preconditioned_iterations == list(
                range(7, 7 + len(y_values)))
            assert all(type(v) is int
                       for v in loaded.preconditioned_iterations)
            assert type(loaded.baseline_iterations) is int

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

    @pytest.mark.parametrize("line", [
        3,
        [1, 2],
        None,
        {"kind": "record", "key": "k"},
        {"kind": "matrix"},
        {"kind": "matrix", "fingerprint": 7},
        {"kind": "matrix", "fingerprint": "fp9", "features": ["a"]},
        {"kind": "meta", "generation": "g"},
        _record_line(y_values="0.5"),
        _record_line(y_values=[True]),
        _record_line(alpha="1.0"),
        _record_line(eps=2.0),
        _record_line(preconditioned_iterations=[5.5]),
        _record_line(baseline_iterations=_DROP),
        _record_line(key=7),
        _record_line(y_values=_DROP, preconditioned_iterations=_DROP,
                     payload="k.npz"),
    ], ids=["int", "list", "null", "record_without_fields",
            "matrix_without_fingerprint", "matrix_fingerprint_not_str",
            "matrix_features_not_numbers", "unknown_kind",
            "y_values_not_a_list", "y_value_boolean", "alpha_string",
            "eps_out_of_range", "iterations_not_int",
            "baseline_iterations_missing", "key_not_str",
            "two_file_layout_record"])
    def test_malformed_line_is_skipped(self, tmp_path, caplog, line):
        store = ObservationStore(tmp_path)
        store.put_record("fp1", _record(1.0))
        with open(tmp_path / "index.jsonl", "a", encoding="utf-8") as handle:
            handle.write(json.dumps(line) + "\n")
        store.put_record("fp1", _record(2.0))
        with caplog.at_level("WARNING", logger="repro.service.store"):
            reopened = ObservationStore(tmp_path)
        assert len(reopened) == 2
        assert reopened.fingerprints() == {"fp1"}
        assert reopened.matrix_entries() == {}
        assert "skipped 1 malformed index line(s)" in caplog.text

    def test_well_formed_hand_written_line_is_read(self, tmp_path):
        """The control for the malformed cases: the unchanged template."""
        (tmp_path / "index.jsonl").write_text(
            json.dumps(_record_line()) + "\n", encoding="utf-8")
        [stored] = ObservationStore(tmp_path)
        assert (stored.key, stored.y_values) == ("k", (0.5,))
        assert stored.preconditioned_iterations == (5,)

    def test_two_file_layout_store_is_remeasured_and_left_untouched(
            self, tmp_path):
        """A store of the older layout (index line + payload file) opens
        empty, takes the re-measured record, and keeps its old files."""
        record = _record(1.0)
        key = ObservationStore.record_key("fp1", record.parameters, "")
        payload = tmp_path / "payloads" / f"{key}.npz"
        payload.parent.mkdir(parents=True)
        np.savez(payload, y_values=np.asarray(record.y_values),
                 preconditioned_iterations=np.asarray(
                     record.preconditioned_iterations))
        old_line = _record_line(
            key=key, fingerprint="fp1", y_values=_DROP,
            preconditioned_iterations=_DROP, payload=payload.name)
        (tmp_path / "index.jsonl").write_text(json.dumps(old_line) + "\n",
                                              encoding="utf-8")
        payload_bytes = payload.read_bytes()
        store = ObservationStore(tmp_path)
        assert store.get_record("fp1", record.parameters) is None
        assert store.put_record("fp1", record) is True
        reopened = ObservationStore(tmp_path)
        assert reopened.get_record("fp1", record.parameters) == record
        assert payload.read_bytes() == payload_bytes


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
        assert lines[0]["y_values"] == [0.4, 0.6]
        assert lines[0]["preconditioned_iterations"] == [4, 6]
        assert "payload" not in lines[0]

    def test_index_is_strict_json_when_the_spread_overflows(self, tmp_path):
        """Finite ``y_values`` whose standard deviation overflows to ``inf``
        still give lines a strict reader (no ``Infinity`` / ``NaN``) accepts."""
        def reject(constant):
            raise ValueError(f"non-standard JSON constant {constant}")

        store = ObservationStore(tmp_path)
        store.put_record("fp1", PerformanceRecord(
            parameters=MCMCParameters(alpha=1.0, eps=0.5, delta=0.5),
            matrix_name="m", baseline_iterations=10,
            preconditioned_iterations=[5, 5], y_values=[1e308, -1e308]))
        lines = (tmp_path / "index.jsonl").read_text().splitlines()
        assert lines
        for line in lines:
            json.loads(line, parse_constant=reject)

    def test_store_is_one_file(self, tmp_path):
        store = ObservationStore(tmp_path)
        store.put_record("fp1", _record(1.0))
        store.register_matrix("fp1", "m", np.arange(3.0))
        assert [path.name for path in tmp_path.iterdir()] == ["index.jsonl"]
