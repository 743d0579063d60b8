"""Online training of the GNN surrogate from serving traffic.

The scheduler persists one :class:`~repro.core.evaluation.PerformanceRecord`
per MCMC-preconditioned solve into the :class:`ObservationStore`; this module
turns that stream into versioned surrogate models:

* :class:`MatrixBank` — an :class:`~repro.service.cache.ArtifactCache` of
  the matrices seen by the server, keyed by the name recorded in the store
  (records alone cannot rebuild graphs; the bank closes that gap, with the
  static matrix registry as fallback for registry-named traffic).
* :class:`SurrogateTrainer` — snapshots the store (``reload()`` reads only
  the index lines appended since the last one, so it is a cheap no-op when
  nothing changed), builds a :class:`SurrogateDataset`, trains the surrogate
  with :meth:`repro.core.training.Trainer.fit` — checkpointing atomically
  from its per-epoch callback and resuming through its ``start_epoch`` — and
  publishes each completed generation to the :class:`ModelRegistry`.

Crash safety: checkpoints are single atomic files keyed by a hash of the
training snapshot.  A trainer restarted after a crash resumes from the last
checkpointed epoch when the snapshot is unchanged (the optimizer's moment
estimates restart from the checkpointed weights — lineage, not bitwise,
resume) and discards the checkpoint otherwise.  Publishes are atomic at the
registry layer, so a kill at any instant never corrupts the served model.
"""

from __future__ import annotations

import threading
import time
from dataclasses import asdict, dataclass

import numpy as np
import scipy.sparse as sp

from repro.core.dataset import SurrogateDataset
from repro.core.surrogate import GraphNeuralSurrogate, SurrogateConfig
from repro.core.training import Trainer, TrainingConfig, TrainingHistory
from repro.exceptions import LearnError
from repro.learn.registry import ModelRegistry
from repro.logging_utils import get_logger
from repro.matrices.registry import MATRIX_REGISTRY, get_matrix
from repro.service.cache import ArtifactCache
from repro.service.store import ObservationStore
from repro.sparse.fingerprint import content_hash

__all__ = ["LearnConfig", "MatrixBank", "SurrogateTrainer", "TrainingAborted"]

_LOG = get_logger("learn.trainer")


class TrainingAborted(LearnError):
    """Raised inside the training loop when the trainer is asked to stop."""


@dataclass(frozen=True)
class LearnConfig:
    """Knobs of the online learning loop."""

    min_records: int = 24          #: records before the first generation trains
    retrain_threshold: int = 16    #: new records that trigger a retrain
    interval_s: float = 10.0       #: background poll period
    checkpoint_every: int = 8      #: epochs between atomic checkpoints
    max_sigma: float | None = None  #: confidence gate on proposals (off = None)
    #: Optimisation budget of one generation.  Smaller than the offline
    #: default: the trainer runs repeatedly as traffic accumulates, so each
    #: generation can afford to be cheap.
    training: TrainingConfig = TrainingConfig(
        epochs=60, batch_size=64, validation_fraction=0.25, patience=15,
        min_epochs=5)

    def __post_init__(self) -> None:
        if self.min_records < 2:
            raise LearnError(f"min_records must be >= 2, got {self.min_records}")
        if self.retrain_threshold < 1:
            raise LearnError(
                f"retrain_threshold must be >= 1, got {self.retrain_threshold}")
        if self.checkpoint_every < 1:
            raise LearnError(
                f"checkpoint_every must be >= 1, got {self.checkpoint_every}")


#: Byte bound of the :class:`MatrixBank`, beside its 64 entries.  All
#: registry matrices together weigh about 5 MiB (the largest 1.7 MiB), so
#: registry-sized traffic meets the entry bound first; larger ad-hoc
#: matrices meet this one: eight matrices as large as the held-matrix
#: store's whole 8 MiB bound, not 64 matrices of any size.
MAX_BANKED_MATRIX_BYTES = 64 * 1024 * 1024


class MatrixBank(ArtifactCache):
    """Name -> CSR matrix LRU fed by the scheduler as traffic arrives,
    bounded by ``max_entries`` and by :data:`MAX_BANKED_MATRIX_BYTES`; a
    matrix heavier than that bound is not banked."""

    def __init__(self, max_entries: int = 64) -> None:
        super().__init__(max_entries, max_bytes=MAX_BANKED_MATRIX_BYTES)


def resolve_matrix(name: str, bank: MatrixBank | None) -> sp.csr_matrix | None:
    """Find the actual matrix behind a store record's ``matrix_name``."""
    if bank is not None:
        matrix = bank.get(name)
        if matrix is not None:
            return matrix
    if name in MATRIX_REGISTRY:
        return get_matrix(name)
    return None


def build_training_snapshot(store: ObservationStore, bank: MatrixBank | None
                            ) -> tuple[list, dict[str, sp.csr_matrix], int, str]:
    """Collect ``(observations, matrices, skipped, snapshot_hash)`` from the store.

    Records whose matrices cannot be resolved (bank eviction, unregistered
    ad-hoc traffic from a previous process) are skipped and counted; the
    snapshot hash identifies the exact record set for checkpoint resume.
    """
    observations = []
    matrices: dict[str, sp.csr_matrix] = {}
    unresolvable: set[str] = set()
    skipped = 0
    keys: list[str] = []
    for stored in store:
        name = stored.matrix_name
        if name in unresolvable:
            skipped += 1
            continue
        if name not in matrices:
            matrix = resolve_matrix(name, bank)
            if matrix is None:
                unresolvable.add(name)
                skipped += 1
                continue
            matrices[name] = matrix
        observations.append(stored.to_observation())
        keys.append(stored.key)
    snapshot_hash = content_hash("learn-snapshot", *sorted(keys))
    return observations, matrices, skipped, snapshot_hash


class SurrogateTrainer:
    """Trains surrogate generations from the store, in the background.

    Parameters
    ----------
    store:
        The observation store serving traffic appends to.  The trainer holds
        its own view (snapshot) of it; ``reload()`` is used for incremental
        refreshes.
    registry:
        Where completed generations are published and checkpoints stored.
    bank:
        Matrix resolver for record names (optional; registry-named records
        resolve without it).
    config:
        :class:`LearnConfig`.
    telemetry:
        Optional :class:`~repro.obs.metrics.MetricsRegistry` receiving
        the ``learn.*`` series.
    tracer:
        Optional tracer; training and publishing emit ``learn.train`` /
        ``learn.publish`` spans.
    on_publish:
        Callback ``(model, dataset, version, meta)`` invoked after every
        successful publish — the in-process hand-off to the serving policy.
    """

    def __init__(self, store: ObservationStore, registry: ModelRegistry, *,
                 bank: MatrixBank | None = None,
                 config: LearnConfig | None = None,
                 telemetry=None, tracer=None, on_publish=None) -> None:
        self.store = store
        self.registry = registry
        self.bank = bank
        self.config = config if config is not None else LearnConfig()
        self.telemetry = telemetry
        self.tracer = tracer
        self.on_publish = on_publish

        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        self._state = "idle"
        self._model_version: str | None = None
        self._trains = 0
        self._publishes = 0
        self._records_seen = 0
        self._records_trained = 0
        self._skipped_records = 0
        self._last_train_seconds: float | None = None
        self._last_train_unix: float | None = None
        self._last_error: str | None = None
        #: test hook called as ``hook(epoch)`` after each epoch (crash drills)
        self._epoch_hook = None

        current = registry.current_version()
        if current is not None:
            self._model_version = current
            meta = registry.meta(current)
            self._records_trained = int(meta.get("record_count", 0))

    # -- status --------------------------------------------------------------
    def status(self) -> dict:
        """Admin view of trainer health (served at ``GET /v1/learn``)."""
        with self._lock:
            return {
                "enabled": True,
                "state": self._state,
                "model_version": self._model_version,
                "records_seen": self._records_seen,
                "records_trained": self._records_trained,
                "skipped_records": self._skipped_records,
                "trains": self._trains,
                "publishes": self._publishes,
                "last_train_seconds": self._last_train_seconds,
                "last_train_unix": self._last_train_unix,
                "last_error": self._last_error,
                "min_records": self.config.min_records,
                "retrain_threshold": self.config.retrain_threshold,
            }

    @property
    def model_version(self) -> str | None:
        """Version of the most recently published generation."""
        with self._lock:
            return self._model_version

    # -- lifecycle -----------------------------------------------------------
    def start(self) -> None:
        """Launch the background polling thread."""
        if self._thread is not None and self._thread.is_alive():
            return
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._run, name="surrogate-trainer", daemon=True)
        self._thread.start()

    def stop(self, timeout: float = 30.0) -> None:
        """Signal the thread to stop (aborting mid-training) and join it."""
        self._stop.set()
        thread = self._thread
        if thread is not None:
            thread.join(timeout)
        self._thread = None

    def _run(self) -> None:
        while not self._stop.wait(self.config.interval_s):
            try:
                self.poll()
            except TrainingAborted:
                break
            except Exception as exc:  # keep serving even when training breaks
                _LOG.exception("online training failed: %s", exc)
                with self._lock:
                    self._state = "error"
                    self._last_error = f"{type(exc).__name__}: {exc}"

    # -- training ------------------------------------------------------------
    def should_train(self) -> bool:
        """Whether the store holds enough (new) records for a generation."""
        total = len(self.store)
        with self._lock:
            self._records_seen = total
            trained = self._records_trained
            has_model = self._model_version is not None
        if total < self.config.min_records:
            return False
        if not has_model:
            return True
        return total - trained >= self.config.retrain_threshold

    def poll(self) -> bool:
        """One trainer tick: reload the store, train when warranted."""
        self.store.reload()
        if self.telemetry is not None:
            self.telemetry.gauge("learn.records_seen").set(len(self.store))
        if not self.should_train():
            return False
        self.train_generation()
        return True

    def train_generation(self) -> str:
        """Train one generation from a store snapshot and publish it."""
        with self._lock:
            self._state = "training"
            self._last_error = None
            self._trains += 1
        started = time.perf_counter()
        try:
            observations, matrices, skipped, snapshot_hash = \
                build_training_snapshot(self.store, self.bank)
            if len(observations) < self.config.min_records:
                raise LearnError(
                    f"only {len(observations)} of {len(self.store)} records "
                    "are trainable (matrices unresolvable); "
                    "not enough for a generation")
            dataset = SurrogateDataset(observations, matrices)
            model_config = SurrogateConfig(
                seed=self.config.training.seed).with_dims(
                node_dim=dataset.node_feature_dim,
                edge_dim=dataset.edge_feature_dim,
                xa_dim=dataset.xa_dim, xm_dim=dataset.xm_dim)
            model = GraphNeuralSurrogate(model_config)
            if self.tracer is not None:
                with self.tracer.span("learn.train", records=len(observations)):
                    history = self._train(model, dataset, snapshot_hash)
            else:
                history = self._train(model, dataset, snapshot_hash)
            elapsed = time.perf_counter() - started
            version = self._publish(model, dataset, history, snapshot_hash,
                                    record_count=len(observations),
                                    skipped=skipped, train_seconds=elapsed)
            with self._lock:
                self._state = "idle"
                self._model_version = version
                self._records_trained = len(observations) + skipped
                self._skipped_records = skipped
                self._publishes += 1
                self._last_train_seconds = elapsed
                self._last_train_unix = time.time()
            if self.telemetry is not None:
                self.telemetry.counter("learn.trains_total").add()
                self.telemetry.counter("learn.publish_total").add()
                self.telemetry.histogram("learn.train_seconds").observe(elapsed)
            _LOG.info("trained generation %s on %d records (%.2fs, %d skipped)",
                      version, len(observations), elapsed, skipped)
            return version
        except TrainingAborted:
            with self._lock:
                self._state = "stopped"
            raise
        except Exception as exc:
            with self._lock:
                self._state = "error"
                self._last_error = f"{type(exc).__name__}: {exc}"
            raise

    def _train(self, model: GraphNeuralSurrogate, dataset: SurrogateDataset,
               snapshot_hash: str) -> TrainingHistory:
        """:meth:`Trainer.fit` with periodic atomic checkpoints and resume."""
        training = self.config.training
        lineage = {"snapshot_hash": snapshot_hash, "seed": training.seed,
                   "epochs": training.epochs}
        start_epoch = 0
        checkpoint = self.registry.load_checkpoint()
        if checkpoint is not None:
            state, meta = checkpoint
            if all(meta.get(key) == value for key, value in lineage.items()):
                try:
                    epoch = int(meta.get("epoch", -1))
                    if not -1 <= epoch < training.epochs:
                        raise LearnError(f"checkpoint epoch {epoch} outside "
                                         f"[-1, {training.epochs - 1}]")
                    model.load_state_dict(state)
                    start_epoch = epoch + 1
                    _LOG.info("resuming training from checkpoint epoch %d",
                              start_epoch)
                except Exception as exc:
                    _LOG.warning("checkpoint resume failed (%s); restarting", exc)
            else:
                self.registry.clear_checkpoint()

        def after_epoch(epoch: int) -> None:
            if (epoch + 1) % self.config.checkpoint_every == 0:
                self.registry.save_checkpoint(model.state_dict(),
                                              {"epoch": epoch, **lineage})
            if self._epoch_hook is not None:
                self._epoch_hook(epoch)
            if self._stop.is_set():
                raise TrainingAborted("trainer stopped mid-training")

        return Trainer(training).fit(model, dataset, start_epoch=start_epoch,
                                     on_epoch=after_epoch)

    def _publish(self, model: GraphNeuralSurrogate, dataset: SurrogateDataset,
                 history: TrainingHistory, snapshot_hash: str, *,
                 record_count: int, skipped: int, train_seconds: float) -> str:
        meta = {
            "config": asdict(model.config),
            "snapshot_hash": snapshot_hash,
            "record_count": record_count,
            "skipped_records": skipped,
            "matrix_names": dataset.matrix_names,
            "train_seconds": train_seconds,
            "trained_unix": time.time(),
            "seed": self.config.training.seed,
            "epochs_run": history.epochs_run,
            "best_validation_loss": history.best_validation_loss,
            "xa_mean": np.asarray(dataset.xa_standardizer.mean_).tolist(),
            "xa_scale": np.asarray(dataset.xa_standardizer.scale_).tolist(),
            "xm_mean": np.asarray(dataset.xm_standardizer.mean_).tolist(),
            "xm_scale": np.asarray(dataset.xm_standardizer.scale_).tolist(),
        }
        if self.tracer is not None:
            with self.tracer.span("learn.publish"):
                version = self.registry.publish(model.state_dict(), meta)
        else:
            version = self.registry.publish(model.state_dict(), meta)
        self.registry.clear_checkpoint()
        if self.on_publish is not None:
            self.on_publish(model, dataset, version, meta)
        return version


def rebuild_model(meta: dict, state: dict[str, np.ndarray]) -> GraphNeuralSurrogate:
    """Reconstruct a published surrogate from its registry entry."""
    config = SurrogateConfig(**meta["config"])
    model = GraphNeuralSurrogate(config)
    model.load_state_dict(state)
    model.eval()
    return model


def apply_published_standardizers(dataset: SurrogateDataset, meta: dict) -> None:
    """Overwrite a rebuilt dataset's scaling with the published one.

    A policy restored from disk rebuilds its dataset from the (possibly
    grown) store; the model's inputs must be scaled exactly as at training
    time, so the standardisers recorded in the version metadata win.
    """
    dataset.xa_standardizer.mean_ = np.asarray(meta["xa_mean"], dtype=np.float64)
    dataset.xa_standardizer.scale_ = np.asarray(meta["xa_scale"], dtype=np.float64)
    dataset.xm_standardizer.mean_ = np.asarray(meta["xm_mean"], dtype=np.float64)
    dataset.xm_standardizer.scale_ = np.asarray(meta["xm_scale"], dtype=np.float64)
