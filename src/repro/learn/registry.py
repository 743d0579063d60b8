"""Durable registry of versioned surrogate model snapshots.

The online trainer publishes one immutable snapshot per completed training
generation; serving policies load whichever version ``CURRENT`` points at.
Crash safety is the whole point of the layout:

.. code-block:: text

    <root>/
      versions/<version>/model.npz    # state dict (repro.nn.serialization)
      versions/<version>/meta.json    # config, standardiser scales, lineage
      CURRENT                         # text file naming the live version
      checkpoint.npz                  # trainer's in-progress resume state

A publish stages the whole version directory under a temporary name, writes
each file with :func:`repro.nn.serialization.atomic_write` (temp file, fsync,
:func:`os.replace`), renames the directory into place (atomic on POSIX) and
only then rewrites ``CURRENT`` the same way.
``CURRENT`` therefore never names a partially written version: a trainer
killed at any instant leaves either the previous version live or the new one,
never a torn model.

The trainer's mid-training checkpoint is a *single* ``.npz`` file (metadata
embedded as a JSON payload array) written atomically, so resume-after-crash
can trust whatever it finds.
"""

from __future__ import annotations

import json
import os
import shutil
from pathlib import Path

import numpy as np

from repro.exceptions import LearnError
from repro.logging_utils import get_logger
from repro.nn.serialization import (atomic_write, load_state_dict,
                                    save_state_dict)
from repro.sparse.fingerprint import content_hash

__all__ = ["ModelRegistry"]

_LOG = get_logger("learn.registry")

_CHECKPOINT_META_KEY = "__checkpoint_meta__"


def _atomic_write_text(path: Path, text: str) -> None:
    atomic_write(path, lambda handle: handle.write(text.encode("utf-8")))


class ModelRegistry:
    """Versioned, atomically published surrogate snapshots on disk."""

    def __init__(self, root: str | os.PathLike) -> None:
        self.root = Path(root)
        self.versions_dir = self.root / "versions"
        self.current_path = self.root / "CURRENT"
        self.checkpoint_path = self.root / "checkpoint.npz"
        self.versions_dir.mkdir(parents=True, exist_ok=True)
        self._sweep_stale_staging()

    def _sweep_stale_staging(self) -> None:
        """Remove staging directories left behind by a crashed publish."""
        for stale in self.versions_dir.glob(".staging-*"):
            shutil.rmtree(stale, ignore_errors=True)

    # -- versions ------------------------------------------------------------
    def versions(self) -> list[str]:
        """Complete published versions, oldest first (lexicographic ids)."""
        found = []
        for entry in sorted(self.versions_dir.iterdir()):
            if entry.name.startswith("."):
                continue
            if (entry / "model.npz").exists() and (entry / "meta.json").exists():
                found.append(entry.name)
        return found

    def current_version(self) -> str | None:
        """The version ``CURRENT`` names, or ``None`` before the first publish.

        A ``CURRENT`` pointing at a missing/incomplete version (impossible
        under the atomic publish protocol, but operators can delete version
        directories by hand) falls back to the newest complete version.
        """
        name = None
        if self.current_path.exists():
            name = self.current_path.read_text(encoding="utf-8").strip() or None
        if name is not None:
            entry = self.versions_dir / name
            if (entry / "model.npz").exists() and (entry / "meta.json").exists():
                return name
            _LOG.warning("CURRENT names incomplete version %s; falling back", name)
        published = self.versions()
        return published[-1] if published else None

    def publish(self, state: dict[str, np.ndarray], meta: dict) -> str:
        """Atomically publish a new immutable version; returns its id.

        The version id is derived from a monotonically increasing index plus
        a content hash of the state dict, so republishing identical weights
        still yields a distinct, ordered id.
        """
        if not state:
            raise LearnError("refusing to publish an empty state dict")
        index = len(self.versions()) + 1
        digest = content_hash(
            *(f"{name}:{np.asarray(array).tobytes().hex()[:64]}"
              for name, array in sorted(state.items())))[:8]
        version = f"gen{index:04d}-{digest}"
        staging = self.versions_dir / f".staging-{version}-{os.getpid()}"
        if staging.exists():
            shutil.rmtree(staging)
        staging.mkdir(parents=True)
        try:
            save_state_dict(state, staging / "model.npz")
            meta = dict(meta)
            meta["version"] = version
            _atomic_write_text(staging / "meta.json",
                               json.dumps(meta, indent=2, sort_keys=True))
            final = self.versions_dir / version
            os.replace(staging, final)
        except BaseException:
            shutil.rmtree(staging, ignore_errors=True)
            raise
        _atomic_write_text(self.current_path, version + "\n")
        _LOG.info("published model %s", version)
        return version

    def load(self, version: str | None = None
             ) -> tuple[dict[str, np.ndarray], dict]:
        """Load ``(state_dict, meta)`` of ``version`` (default: current)."""
        if version is None:
            version = self.current_version()
        if version is None:
            raise LearnError("registry holds no published model")
        entry = self.versions_dir / version
        meta_path = entry / "meta.json"
        if not meta_path.exists():
            raise LearnError(f"unknown model version {version!r}")
        with open(meta_path, encoding="utf-8") as handle:
            meta = json.load(handle)
        state = load_state_dict(entry / "model.npz")
        return state, meta

    def meta(self, version: str | None = None) -> dict:
        """The metadata of ``version`` (default: current) without the weights."""
        if version is None:
            version = self.current_version()
        if version is None:
            raise LearnError("registry holds no published model")
        meta_path = self.versions_dir / version / "meta.json"
        if not meta_path.exists():
            raise LearnError(f"unknown model version {version!r}")
        with open(meta_path, encoding="utf-8") as handle:
            return json.load(handle)

    # -- trainer checkpoint --------------------------------------------------
    def save_checkpoint(self, state: dict[str, np.ndarray], meta: dict) -> None:
        """Atomically write the trainer's in-progress resume state."""
        if _CHECKPOINT_META_KEY in state:
            raise LearnError(f"state dict may not contain {_CHECKPOINT_META_KEY!r}")
        payload = dict(state)
        payload[_CHECKPOINT_META_KEY] = np.frombuffer(
            json.dumps(meta, sort_keys=True).encode("utf-8"), dtype=np.uint8)
        save_state_dict(payload, self.checkpoint_path)

    def load_checkpoint(self) -> tuple[dict[str, np.ndarray], dict] | None:
        """The last checkpoint as ``(state_dict, meta)``, or ``None``."""
        if not self.checkpoint_path.exists():
            return None
        try:
            payload = load_state_dict(self.checkpoint_path)
            meta_blob = payload.pop(_CHECKPOINT_META_KEY)
            meta = json.loads(bytes(meta_blob.astype(np.uint8)).decode("utf-8"))
        except Exception as exc:  # a corrupt checkpoint must never wedge training
            _LOG.warning("discarding unreadable checkpoint: %s", exc)
            return None
        return payload, meta

    def clear_checkpoint(self) -> None:
        """Remove the resume state (called after a successful publish)."""
        if self.checkpoint_path.exists():
            os.unlink(self.checkpoint_path)
