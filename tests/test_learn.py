"""Online learning loop: registry atomicity, trainer crash safety, serving.

The suite drills the acceptance criteria of the learn subsystem:

* the :class:`ModelRegistry` publishes atomically — a trainer killed
  mid-training (or mid-publish) never corrupts the served model;
* a restarted trainer resumes from its last checkpoint rather than
  restarting the generation from scratch;
* a warm store + ``learn=True`` server serves ``surrogate``-provenance
  decisions (with the model version on the wire), while ``learn=False``
  serving stays bit-identical to a server that has never heard of the
  subsystem.
"""

import json
import threading

import numpy as np
import pytest

from repro.api.schemas import SolveRequestV1, SolveResponseV1
from repro.core.evaluation import PerformanceRecord
from repro.core.training import TrainingConfig
from repro.exceptions import LearnError
from repro.learn import (
    LearnConfig,
    MatrixBank,
    ModelRegistry,
    SurrogatePolicy,
    SurrogateTrainer,
    TrainingAborted,
)
from repro.learn.trainer import build_training_snapshot
from repro.matrices.features import feature_vector
from repro.matrices.registry import get_matrix
from repro.mcmc.parameters import MCMCParameters
from repro.obs.metrics import MetricsRegistry
from repro.server.server import SolveServer
from repro.service.store import ObservationStore
from repro.sparse.fingerprint import matrix_fingerprint


def seed_store(path, matrix_names=("2DFDLaplace_16", "2DFDLaplace_32"),
               alphas=(1.0, 2.0, 3.0, 4.0),
               eps_deltas=((0.1, 0.1), (0.25, 0.25), (0.4, 0.4), (0.25, 0.1)),
               seed=0):
    """A store with a smooth synthetic objective over a parameter grid."""
    store = ObservationStore(path)
    rng = np.random.default_rng(seed)
    for name in matrix_names:
        matrix = get_matrix(name)
        fingerprint = matrix_fingerprint(matrix)
        store.register_matrix(fingerprint, name, feature_vector(matrix))
        for alpha in alphas:
            for eps, delta in eps_deltas:
                parameters = MCMCParameters(alpha=alpha, eps=eps, delta=delta)
                y = (0.3 + 0.1 * (alpha - 2.5) ** 2 + 0.2 * eps + 0.1 * delta
                     + 0.01 * rng.standard_normal())
                baseline = 100
                preconditioned = max(int(round(y * baseline)), 1)
                store.put_record(fingerprint, PerformanceRecord(
                    parameters=parameters, matrix_name=name,
                    baseline_iterations=baseline,
                    preconditioned_iterations=[preconditioned],
                    y_values=[preconditioned / baseline]), context="seed")
    return store


def fast_config(**overrides):
    defaults = dict(min_records=24, checkpoint_every=2, interval_s=60.0,
                    training=TrainingConfig(
                        epochs=10, batch_size=64, validation_fraction=0.25,
                        patience=50, min_epochs=5))
    defaults.update(overrides)
    return LearnConfig(**defaults)


class TestModelRegistry:
    def test_publish_load_round_trip(self, tmp_path):
        registry = ModelRegistry(tmp_path)
        state = {"w": np.arange(6, dtype=np.float64).reshape(2, 3)}
        version = registry.publish(state, {"note": "first"})
        assert registry.current_version() == version
        loaded, meta = registry.load()
        np.testing.assert_array_equal(loaded["w"], state["w"])
        assert meta["note"] == "first"
        assert meta["version"] == version

    def test_versions_are_ordered_and_immutable(self, tmp_path):
        registry = ModelRegistry(tmp_path)
        first = registry.publish({"w": np.zeros(3)}, {})
        second = registry.publish({"w": np.ones(3)}, {})
        assert registry.versions() == [first, second]
        assert registry.current_version() == second
        np.testing.assert_array_equal(registry.load(first)[0]["w"], np.zeros(3))

    def test_empty_state_rejected(self, tmp_path):
        with pytest.raises(LearnError):
            ModelRegistry(tmp_path).publish({}, {})

    def test_current_falls_back_when_version_deleted(self, tmp_path):
        registry = ModelRegistry(tmp_path)
        first = registry.publish({"w": np.zeros(2)}, {})
        second = registry.publish({"w": np.ones(2)}, {})
        import shutil
        shutil.rmtree(registry.versions_dir / second)
        assert registry.current_version() == first

    def test_stale_staging_swept_on_init(self, tmp_path):
        registry = ModelRegistry(tmp_path)
        stale = registry.versions_dir / ".staging-genXXXX-deadbeef-99999"
        stale.mkdir()
        (stale / "model.npz").write_bytes(b"torn")
        registry2 = ModelRegistry(tmp_path)
        assert not stale.exists()
        assert registry2.versions() == []

    def test_checkpoint_round_trip_and_corruption_tolerance(self, tmp_path):
        registry = ModelRegistry(tmp_path)
        state = {"w": np.linspace(0, 1, 5)}
        registry.save_checkpoint(state, {"epoch": 3, "snapshot_hash": "abc"})
        loaded = registry.load_checkpoint()
        assert loaded is not None
        restored, meta = loaded
        np.testing.assert_array_equal(restored["w"], state["w"])
        assert meta == {"epoch": 3, "snapshot_hash": "abc"}
        registry.checkpoint_path.write_bytes(b"not an npz")
        assert registry.load_checkpoint() is None
        registry.clear_checkpoint()
        assert not registry.checkpoint_path.exists()


class TestTrainerLifecycle:
    def test_trains_and_publishes_a_generation(self, tmp_path):
        store = seed_store(tmp_path / "store")
        registry = ModelRegistry(tmp_path / "models")
        telemetry = MetricsRegistry()
        trainer = SurrogateTrainer(store, registry, config=fast_config(),
                                   telemetry=telemetry)
        assert trainer.should_train()
        version = trainer.train_generation()
        assert registry.current_version() == version
        meta = registry.meta()
        assert meta["record_count"] == len(store)
        assert set(meta["matrix_names"]) == {"2DFDLaplace_16", "2DFDLaplace_32"}
        assert telemetry.counter("learn.publish_total").value == 1
        status = trainer.status()
        assert status["state"] == "idle"
        assert status["model_version"] == version
        assert not trainer.should_train()  # nothing new since

    def test_below_min_records_does_not_train(self, tmp_path):
        store = seed_store(tmp_path / "store", alphas=(1.0,),
                          eps_deltas=((0.1, 0.1),))
        trainer = SurrogateTrainer(store, ModelRegistry(tmp_path / "models"),
                                   config=fast_config())
        assert not trainer.should_train()
        assert not trainer.poll()

    def test_retrain_threshold_gates_subsequent_generations(self, tmp_path):
        store = seed_store(tmp_path / "store")
        registry = ModelRegistry(tmp_path / "models")
        trainer = SurrogateTrainer(store, registry,
                                   config=fast_config(retrain_threshold=4))
        trainer.train_generation()
        assert not trainer.should_train()
        matrix = get_matrix("2DFDLaplace_16")
        fingerprint = matrix_fingerprint(matrix)
        for k in range(4):
            store.put_record(fingerprint, PerformanceRecord(
                parameters=MCMCParameters(alpha=1.5 + 0.1 * k, eps=0.2,
                                          delta=0.2),
                matrix_name="2DFDLaplace_16", baseline_iterations=100,
                preconditioned_iterations=[40 + k],
                y_values=[(40 + k) / 100]), context="new")
        assert trainer.should_train()

    def test_deterministic_given_seed(self, tmp_path):
        versions = []
        for run in ("a", "b"):
            store = seed_store(tmp_path / f"store-{run}")
            registry = ModelRegistry(tmp_path / f"models-{run}")
            trainer = SurrogateTrainer(store, registry, config=fast_config())
            versions.append(trainer.train_generation())
        # same records + same seed -> identical weights -> identical content
        # digest in the version id
        assert versions[0] == versions[1]


class TestCrashSafety:
    def test_killed_trainer_never_corrupts_registry(self, tmp_path):
        """Abort mid-training: registry stays empty/previous, checkpoint lives."""
        store = seed_store(tmp_path / "store")
        registry = ModelRegistry(tmp_path / "models")
        trainer = SurrogateTrainer(store, registry,
                                   config=fast_config(checkpoint_every=2))

        def kill_after(epoch):
            if epoch >= 3:
                trainer._stop.set()

        trainer._epoch_hook = kill_after
        with pytest.raises(TrainingAborted):
            trainer.train_generation()
        assert trainer.status()["state"] == "stopped"
        assert registry.versions() == []           # nothing half-published
        assert registry.current_version() is None
        checkpoint = registry.load_checkpoint()    # but progress persisted
        assert checkpoint is not None
        _, meta = checkpoint
        assert meta["epoch"] >= 1

    def test_restart_resumes_from_checkpoint(self, tmp_path):
        store = seed_store(tmp_path / "store")
        registry = ModelRegistry(tmp_path / "models")
        config = fast_config(checkpoint_every=2)
        trainer = SurrogateTrainer(store, registry, config=config)
        trainer._epoch_hook = lambda epoch: (epoch >= 3
                                             and trainer._stop.set())
        with pytest.raises(TrainingAborted):
            trainer.train_generation()
        checkpointed_epoch = registry.load_checkpoint()[1]["epoch"]

        resumed_epochs = []
        restarted = SurrogateTrainer(store, registry, config=config)
        restarted._epoch_hook = resumed_epochs.append
        version = restarted.train_generation()
        # the resumed run skips the epochs the checkpoint already covered
        assert min(resumed_epochs) == checkpointed_epoch + 1
        assert registry.current_version() == version
        assert registry.load_checkpoint() is None  # cleared after publish

    def test_resume_publishes_a_servable_model(self, tmp_path):
        """Crash + resume completes the generation (lineage resume).

        The resume contract is lineage, not bitwise: the optimizer's moment
        estimates restart from the checkpointed weights, so the recovered
        model need not equal the uninterrupted one — but it must publish,
        load, and propose like any other generation.
        """
        config = fast_config(checkpoint_every=2)
        store = seed_store(tmp_path / "store")
        registry = ModelRegistry(tmp_path / "models")
        crashing = SurrogateTrainer(store, registry, config=config)
        crashing._epoch_hook = lambda epoch: (epoch >= 3
                                              and crashing._stop.set())
        with pytest.raises(TrainingAborted):
            crashing.train_generation()
        resumed = SurrogateTrainer(store, registry, config=config)
        recovered = resumed.train_generation()
        assert registry.current_version() == recovered
        policy = SurrogatePolicy()
        assert policy.restore(registry, store)
        matrix = get_matrix("2DFDLaplace_64")
        proposal = policy.propose(matrix, matrix_fingerprint(matrix))
        assert proposal is not None
        assert proposal.model_version == recovered

    def test_stale_checkpoint_for_other_snapshot_discarded(self, tmp_path):
        store = seed_store(tmp_path / "store")
        registry = ModelRegistry(tmp_path / "models")
        config = fast_config(checkpoint_every=2)
        trainer = SurrogateTrainer(store, registry, config=config)
        trainer._epoch_hook = lambda epoch: (epoch >= 3
                                             and trainer._stop.set())
        with pytest.raises(TrainingAborted):
            trainer.train_generation()
        # grow the store: the snapshot hash changes, the checkpoint is stale
        matrix = get_matrix("2DFDLaplace_16")
        fingerprint = matrix_fingerprint(matrix)
        store.put_record(fingerprint, PerformanceRecord(
            parameters=MCMCParameters(alpha=1.7, eps=0.2, delta=0.2),
            matrix_name="2DFDLaplace_16", baseline_iterations=100,
            preconditioned_iterations=[55], y_values=[0.55]), context="new")
        epochs = []
        restarted = SurrogateTrainer(store, registry, config=config)
        restarted._epoch_hook = epochs.append
        restarted.train_generation()
        assert min(epochs) == 0  # restarted from scratch, not from epoch 4

    @pytest.mark.parametrize("epoch", [-3, 10, 25])
    def test_checkpoint_epoch_out_of_range_restarts_fresh(self, tmp_path, epoch):
        """A checkpoint whose epoch no fit of this length can have written is
        not resumed: its weights are not loaded and the fit starts at epoch
        0, publishing what a trainer with no checkpoint publishes."""
        store = seed_store(tmp_path / "store")
        config = fast_config(checkpoint_every=2)
        fresh_registry = ModelRegistry(tmp_path / "fresh")
        SurrogateTrainer(store, fresh_registry, config=config).train_generation()
        registry = ModelRegistry(tmp_path / "models")
        trainer = SurrogateTrainer(store, registry, config=config)
        trainer._epoch_hook = lambda e: e >= 3 and trainer._stop.set()
        with pytest.raises(TrainingAborted):
            trainer.train_generation()
        state, meta = registry.load_checkpoint()
        assert meta["epochs"] == 10
        registry.save_checkpoint(state, {**meta, "epoch": epoch})
        epochs = []
        restarted = SurrogateTrainer(store, registry, config=config)
        restarted._epoch_hook = epochs.append
        restarted.train_generation()
        assert epochs == list(range(10))
        published, _ = registry.load()
        expected, _ = fresh_registry.load()
        assert published.keys() == expected.keys()
        for name, value in expected.items():
            np.testing.assert_array_equal(published[name], value)

    def test_background_stop_leaves_consistent_state(self, tmp_path):
        store = seed_store(tmp_path / "store")
        registry = ModelRegistry(tmp_path / "models")
        trainer = SurrogateTrainer(store, registry,
                                   config=fast_config(interval_s=0.01))
        published = threading.Event()
        trainer.on_publish = lambda *args: published.set()
        trainer.start()
        assert published.wait(timeout=60.0)
        trainer.stop()
        assert registry.current_version() is not None


class TestSurrogatePolicyUnit:
    def test_not_ready_returns_none_and_counts(self, tmp_path):
        telemetry = MetricsRegistry()
        policy = SurrogatePolicy(telemetry=telemetry)
        matrix = get_matrix("2DFDLaplace_16")
        assert policy.propose(matrix, matrix_fingerprint(matrix)) is None
        assert telemetry.counter("learn.proposals",
                                 outcome="no_model").value == 1

    def test_proposals_are_deterministic(self, tmp_path):
        store = seed_store(tmp_path / "store")
        registry = ModelRegistry(tmp_path / "models")
        policy = SurrogatePolicy()
        trainer = SurrogateTrainer(
            store, registry, config=fast_config(),
            on_publish=lambda model, dataset, version, meta:
                policy.update(model, dataset, version, meta))
        trainer.train_generation()
        matrix = get_matrix("2DFDLaplace_64")
        fingerprint = matrix_fingerprint(matrix)
        first = policy.propose(matrix, fingerprint)
        second = policy.propose(matrix, fingerprint)
        assert first is not None
        assert first.parameters == second.parameters
        assert first.model_version == second.model_version

    def test_restore_reproduces_in_process_proposals(self, tmp_path):
        store = seed_store(tmp_path / "store")
        registry = ModelRegistry(tmp_path / "models")
        live = SurrogatePolicy()
        trainer = SurrogateTrainer(
            store, registry, config=fast_config(),
            on_publish=lambda model, dataset, version, meta:
                live.update(model, dataset, version, meta))
        trainer.train_generation()
        matrix = get_matrix("2DFDLaplace_64")
        fingerprint = matrix_fingerprint(matrix)
        expected = live.propose(matrix, fingerprint)

        restored = SurrogatePolicy()
        assert restored.restore(registry, ObservationStore(tmp_path / "store"))
        actual = restored.propose(matrix, fingerprint)
        assert actual is not None
        assert actual.parameters == expected.parameters
        assert actual.model_version == expected.model_version

    def test_max_sigma_gate_falls_back(self, tmp_path):
        store = seed_store(tmp_path / "store")
        registry = ModelRegistry(tmp_path / "models")
        telemetry = MetricsRegistry()
        policy = SurrogatePolicy(max_sigma=1e-12, telemetry=telemetry)
        trainer = SurrogateTrainer(
            store, registry, config=fast_config(),
            on_publish=lambda model, dataset, version, meta:
                policy.update(model, dataset, version, meta))
        trainer.train_generation()
        matrix = get_matrix("2DFDLaplace_64")
        assert policy.propose(matrix, matrix_fingerprint(matrix)) is None
        assert telemetry.counter("learn.proposals",
                                 outcome="low_confidence").value == 1


class TestMatrixBankAndSnapshot:
    def test_bank_lru_eviction(self):
        bank = MatrixBank(max_entries=2)
        a, b, c = (get_matrix("2DFDLaplace_16"), get_matrix("2DFDLaplace_32"),
                   get_matrix("2DFDLaplace_64"))
        bank.put("a", a)
        bank.put("b", b)
        bank.get("a")          # refresh a; b becomes the eviction victim
        bank.put("c", c)
        assert bank.get("b") is None
        assert bank.get("a") is not None and bank.get("c") is not None

    def test_snapshot_skips_unresolvable_records(self, tmp_path):
        store = seed_store(tmp_path / "store", matrix_names=("2DFDLaplace_16",))
        matrix = get_matrix("2DFDLaplace_16")
        ad_hoc = matrix + 0.0  # same values, different object; rename it
        fingerprint = "f" * 40
        store.put_record(fingerprint, PerformanceRecord(
            parameters=MCMCParameters(alpha=2.0, eps=0.2, delta=0.2),
            matrix_name="not-in-any-registry", baseline_iterations=100,
            preconditioned_iterations=[50], y_values=[0.5]), context="adhoc")
        observations, matrices, skipped, _ = build_training_snapshot(store, None)
        assert skipped == 1
        assert "not-in-any-registry" not in matrices
        # with the bank holding the ad-hoc matrix the record resolves
        bank = MatrixBank()
        bank.put("not-in-any-registry", ad_hoc)
        _, matrices2, skipped2, _ = build_training_snapshot(store, bank)
        assert skipped2 == 0
        assert "not-in-any-registry" in matrices2

    def test_bank_is_bounded_by_bytes(self, tmp_path, monkeypatch):
        from repro.learn import trainer

        matrix = get_matrix("2DFDLaplace_16")
        size = matrix.data.nbytes + matrix.indices.nbytes + matrix.indptr.nbytes
        matrices = [matrix * scale for scale in (1, 2, 3)]
        monkeypatch.setattr(trainer, "MAX_BANKED_MATRIX_BYTES", 2 * size)
        store = ObservationStore(tmp_path / "store")
        bank = MatrixBank()
        for index, matrix in enumerate(matrices):
            store.put_record(str(index) * 40, PerformanceRecord(
                parameters=MCMCParameters(alpha=2.0, eps=0.2, delta=0.2),
                matrix_name=f"ad-hoc-{index}", baseline_iterations=100,
                preconditioned_iterations=[50], y_values=[0.5]),
                context="adhoc")
            bank.put(f"ad-hoc-{index}", matrix)
        assert bank.keys() == ["ad-hoc-1", "ad-hoc-2"]
        assert bank.nbytes == 2 * size <= bank.max_bytes
        assert bank.stats.evictions == 1
        observations, banked, skipped, _ = build_training_snapshot(store, bank)
        assert skipped == 1 and len(observations) == 2
        assert sorted(banked) == ["ad-hoc-1", "ad-hoc-2"]


class TestServingIntegration:
    def test_surrogate_provenance_end_to_end(self, tmp_path):
        seed_store(tmp_path / "store")
        server = SolveServer(store=str(tmp_path / "store"), learn=True,
                             model_dir=str(tmp_path / "models"),
                             learn_config=fast_config(), background=False)
        try:
            status = server.learn_status()
            assert status["enabled"] and status["policy_ready"]
            response = server.solve(
                SolveRequestV1(matrix="2DFDLaplace_64", maxiter=2000))
            assert response.provenance["origin"] == "surrogate"
            assert response.provenance["model_version"] == \
                status["model_version"]
            assert response.converged
            # wire round-trip keeps the model version
            back = SolveResponseV1.from_json_dict(
                json.loads(json.dumps(response.to_json_dict())))
            assert back.provenance.model_version == \
                response.provenance.model_version
            # shadow evaluation produced regret telemetry for the origin
            prometheus = server.prometheus_metrics()
            assert 'repro_policy_regret_count{origin="surrogate"}' in prometheus
        finally:
            server.shutdown()

    def test_restart_restores_model_before_first_retrain(self, tmp_path):
        seed_store(tmp_path / "store")
        first = SolveServer(store=str(tmp_path / "store"), learn=True,
                            model_dir=str(tmp_path / "models"),
                            learn_config=fast_config(), background=False)
        version = first.learn_status()["model_version"]
        first.shutdown()
        second = SolveServer(store=str(tmp_path / "store"), learn=True,
                             model_dir=str(tmp_path / "models"),
                             learn_config=fast_config(), background=False)
        try:
            status = second.learn_status()
            assert status["policy_ready"]
            assert status["model_version"] == version
            assert status["trains"] == 0  # restored, not retrained
        finally:
            second.shutdown()

    def test_learn_requires_store_and_model_dir(self, tmp_path):
        from repro.exceptions import ParameterError
        with pytest.raises(ParameterError):
            SolveServer(learn=True, model_dir=str(tmp_path / "models"))
        with pytest.raises(ParameterError):
            SolveServer(store=str(tmp_path / "store"), learn=True)

    def test_learn_off_is_bit_identical(self, tmp_path):
        """The PR's do-no-harm contract: learn=False never changes serving."""
        seed_store(tmp_path / "store-a")
        seed_store(tmp_path / "store-b")
        from repro.matrices.registry import MATRIX_REGISTRY
        names = ["2DFDLaplace_64", "2DFDLaplace_16", "2DFDLaplace_64"]
        requests = [SolveRequestV1(
            matrix=name, maxiter=2000,
            rhs=np.random.default_rng(7 + i).standard_normal(
                MATRIX_REGISTRY[name].dimension))
            for i, name in enumerate(names)]
        from repro.service.cache import ArtifactCache
        plain = SolveServer(store=str(tmp_path / "store-a"),
                            cache=ArtifactCache(), background=False)
        default = SolveServer(store=str(tmp_path / "store-b"),
                              cache=ArtifactCache(), background=False)
        try:
            for request in requests:
                a = plain.solve(request)
                b = default.solve(request)
                assert a.provenance.to_json_dict() == \
                    b.provenance.to_json_dict()
                assert "model_version" not in a.provenance.to_json_dict()
                np.testing.assert_array_equal(a.solution, b.solution)
                assert a.iterations == b.iterations
        finally:
            plain.shutdown()
            default.shutdown()

    def test_learn_status_over_http(self, tmp_path):
        from urllib.request import urlopen

        from repro.server.http import SolveHTTPServer
        seed_store(tmp_path / "store")
        with SolveHTTPServer(port=0, store=str(tmp_path / "store"),
                             learn=True,
                             model_dir=str(tmp_path / "models"),
                             learn_config=fast_config(),
                             background=False) as http_server:
            with urlopen(http_server.url + "/v1/learn", timeout=10) as reply:
                payload = json.load(reply)
        assert payload["enabled"] is True
        assert payload["model_version"] is not None
        assert payload["policy_ready"] is True
