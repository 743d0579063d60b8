"""Persistence of model parameters.

State dictionaries produced by :meth:`repro.nn.layers.Module.state_dict` are
plain ``name -> ndarray`` mappings; they are stored as compressed ``.npz``
archives so that a trained surrogate (Pre-BO or BO-enhanced) can be saved,
reloaded and reused without retraining.
"""

from __future__ import annotations

import os
from typing import BinaryIO, Callable

import numpy as np

from repro.exceptions import SurrogateError

__all__ = ["atomic_write", "save_state_dict", "load_state_dict"]


def atomic_write(path: str | os.PathLike,
                 write: Callable[[BinaryIO], object]) -> None:
    """Write ``path`` through ``write(handle)``; a crash never tears it.

    The bytes go to a same-directory temporary file, which is flushed,
    fsynced and moved into place with :func:`os.replace`.  ``path`` thus
    holds either its previous content or all of the new one.
    """
    path = os.fspath(path)
    temp_path = path + f".tmp-{os.getpid()}"
    try:
        with open(temp_path, "wb") as handle:
            write(handle)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(temp_path, path)
    finally:
        if os.path.exists(temp_path):
            os.unlink(temp_path)


def save_state_dict(state: dict[str, np.ndarray],
                    path: str | os.PathLike) -> str:
    """Write a state dictionary to ``path`` (``.npz`` appended if missing).

    The archive is written with :func:`atomic_write`, so a crash mid-write
    never leaves a truncated archive at ``path`` — the contract the online
    trainer's checkpoints and the model registry's publishes rely on.
    """
    if not state:
        raise SurrogateError("refusing to save an empty state dict")
    path = os.fspath(path)
    if not path.endswith(".npz"):
        path = path + ".npz"
    directory = os.path.dirname(path)
    if directory:
        os.makedirs(directory, exist_ok=True)
    atomic_write(path, lambda handle: np.savez_compressed(handle, **state))
    return path


def load_state_dict(path: str | os.PathLike) -> dict[str, np.ndarray]:
    """Load a state dictionary previously written by :func:`save_state_dict`."""
    path = os.fspath(path)
    if not os.path.exists(path) and os.path.exists(path + ".npz"):
        path = path + ".npz"
    if not os.path.exists(path):
        raise SurrogateError(f"no such state file: {path}")
    with np.load(path) as archive:
        return {name: np.asarray(archive[name]) for name in archive.files}
