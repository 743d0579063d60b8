"""Binary payload codec of the wire protocol: numpy blocks over base64.

Solutions, right-hand sides and raw CSR matrices cross the wire as
little-endian raw bytes in base64, each payload carrying a *content
fingerprint* computed over exactly the bytes that travel.  Decoders recompute
the fingerprint and refuse corrupted or tampered messages with
:class:`~repro.api.errors.IntegrityError` — for matrices the fingerprint is
the same :func:`~repro.sparse.fingerprint.matrix_fingerprint` the scheduler
batches by, so integrity and identity are one check.

The encoding is *lossless*: float64 values travel as their exact bytes, so a
request or response that round-trips through the codec is bit-identical to
the in-process object.  This is load-bearing for the cross-transport
determinism guarantee (see ``tests/test_server_http.py``).

A matrix the receiver already holds travels *by reference*: given the set of
fingerprints the server has said it holds, :func:`encode_csr` sends
``{"ref": <fingerprint>}`` instead of the CSR blocks, and :func:`decode_csr`
resolves a ref through the receiver's own lookup — which only ever holds
matrices whose fingerprint an earlier inline decode verified.  A ref is
exactly :data:`~repro.sparse.fingerprint.DIGEST_LENGTH` lowercase hex
characters; anything else is a :class:`~repro.api.errors.SchemaError`, and a
well-formed ref the lookup does not hold is an
:class:`~repro.api.errors.UnknownMatrixError`.
"""

from __future__ import annotations

import base64
import re
from typing import Callable, Container

import numpy as np
import scipy.sparse as sp

from repro.api.errors import IntegrityError, SchemaError, UnknownMatrixError
from repro.sparse.csr import ensure_csr
from repro.sparse.fingerprint import (
    DIGEST_LENGTH,
    content_hash,
    csr_fingerprint,
    matrix_fingerprint,
)

__all__ = ["encode_array", "decode_array", "encode_csr", "decode_csr"]

#: A whole matrix fingerprint: a prefix (a metric label) is not a ref.
_FINGERPRINT = re.compile(f"[0-9a-f]{{{DIGEST_LENGTH}}}")


def _b64(blob: bytes) -> str:
    return base64.b64encode(blob).decode("ascii")


def _unb64(text: str, what: str) -> bytes:
    try:
        return base64.b64decode(text.encode("ascii"), validate=True)
    except Exception as error:
        raise SchemaError(f"{what}: invalid base64 payload ({error})")


def _from_buffer(blob: bytes, dtype: str, what: str) -> np.ndarray:
    """``np.frombuffer`` that reports malformed blobs as schema violations."""
    try:
        return np.frombuffer(blob, dtype=dtype)
    except ValueError as error:
        raise SchemaError(f"{what}: malformed binary block ({error})")


def _int(value, what: str) -> int:
    """Integer coercion that reports failures as schema violations."""
    try:
        return int(value)
    except (TypeError, ValueError):
        raise SchemaError(f"{what}: {value!r} is not an integer")


def encode_array(array: np.ndarray) -> dict:
    """Encode a 1-D float64 vector as a fingerprinted base64 block.

    Complex inputs are refused rather than silently truncated to their real
    part — the wire dtype is float64 and the codec must stay lossless.
    """
    array = np.asarray(array)
    if np.iscomplexobj(array):
        raise SchemaError(
            f"cannot encode complex data (dtype {array.dtype}) into the "
            f"float64 wire format")
    vector = np.ascontiguousarray(array, dtype=np.float64)
    if vector.ndim != 1:
        raise SchemaError(
            f"only 1-D vectors travel as array blocks, got shape {vector.shape}")
    blob = vector.tobytes()
    return {
        "dtype": "<f8",
        "shape": [int(vector.size)],
        "data": _b64(blob),
        "fingerprint": content_hash("array:<f8", blob),
    }


def decode_array(payload: dict) -> np.ndarray:
    """Decode a fingerprinted base64 block back into a float64 vector."""
    if not isinstance(payload, dict):
        raise SchemaError(
            f"expected an array block object, got {type(payload).__name__}")
    if payload.get("dtype") != "<f8":
        raise SchemaError(
            f"unsupported array dtype {payload.get('dtype')!r} (expected '<f8')")
    blob = _unb64(payload.get("data", ""), "array block")
    shape = payload.get("shape")
    if (not isinstance(shape, (list, tuple)) or len(shape) != 1
            or _int(shape[0], "array block shape") * 8 != len(blob)):
        raise SchemaError(
            f"array block shape {shape!r} inconsistent with {len(blob)} "
            f"payload bytes")
    expected = payload.get("fingerprint")
    actual = content_hash("array:<f8", blob)
    if expected != actual:
        raise IntegrityError(
            f"array block failed its integrity check "
            f"(fingerprint {expected!r} != {actual!r})")
    return _from_buffer(blob, "<f8", "array block").copy()


def encode_csr(matrix: sp.spmatrix | np.ndarray,
               held: Container[str] = (),
               fingerprint: str | None = None) -> dict:
    """Encode a matrix as canonical CSR blocks plus its content fingerprint,
    or as ``{"ref": fingerprint}`` when that fingerprint is in ``held``.

    The matrix is canonicalised first (:func:`ensure_csr`: float64 data,
    sorted indices, explicit zeros eliminated) so the fingerprint in the
    payload equals the :func:`matrix_fingerprint` the server computes after
    decoding — the identity used for batching and cache keys survives the
    wire unchanged.  The fingerprint is computed once, for both the ``held``
    test and the block, over the canonical ``csr`` as it stands.

    A caller that already knows the matrix's fingerprint (a client that sent
    the same matrix object before) passes it as ``fingerprint``: it is then
    not computed again, and a ref is sent without touching the matrix.
    """
    if np.iscomplexobj(getattr(matrix, "data", matrix)):
        raise SchemaError(
            "cannot encode a complex matrix into the float64 wire format")
    if fingerprint is not None and fingerprint in held:
        return {"ref": fingerprint}
    csr = ensure_csr(matrix)
    if fingerprint is None:
        fingerprint = csr_fingerprint(csr)
    if fingerprint in held:
        return {"ref": fingerprint}
    indptr = np.ascontiguousarray(csr.indptr, dtype=np.int64)
    indices = np.ascontiguousarray(csr.indices, dtype=np.int64)
    data = np.ascontiguousarray(csr.data, dtype=np.float64)
    return {
        "shape": [int(csr.shape[0]), int(csr.shape[1])],
        "indptr": _b64(indptr.tobytes()),
        "indices": _b64(indices.tobytes()),
        "data": _b64(data.tobytes()),
        "fingerprint": fingerprint,
    }


def decode_csr(payload: dict,
               resolve: Callable[[str], sp.csr_matrix | None] | None = None
               ) -> sp.csr_matrix:
    """Decode CSR blocks, verifying shape consistency and the fingerprint.

    A ``{"ref": fingerprint}`` payload is looked up through ``resolve``
    instead (no lookup: nothing is held); the payload's verified
    fingerprint is ``payload["ref"]`` or ``payload["fingerprint"]``.  The
    matrix returned is canonical CSR: the fingerprint check canonicalises
    it in place (a resolved one went through that check before).
    """
    if not isinstance(payload, dict):
        raise SchemaError(
            f"expected a CSR block object, got {type(payload).__name__}")
    if "ref" in payload:
        ref = payload["ref"]
        if not (isinstance(ref, str) and _FINGERPRINT.fullmatch(ref)):
            raise SchemaError(
                f"matrix ref {ref!r} is not a {DIGEST_LENGTH}-character "
                f"lowercase hex fingerprint")
        matrix = None if resolve is None else resolve(ref)
        if matrix is None:
            raise UnknownMatrixError(ref)
        return matrix
    shape = payload.get("shape")
    if not isinstance(shape, (list, tuple)) or len(shape) != 2:
        raise SchemaError(f"CSR block shape {shape!r} is not a pair")
    n_rows = _int(shape[0], "CSR shape")
    n_cols = _int(shape[1], "CSR shape")
    indptr = _from_buffer(
        _unb64(payload.get("indptr", ""), "CSR indptr"), "<i8", "CSR indptr")
    indices = _from_buffer(
        _unb64(payload.get("indices", ""), "CSR indices"), "<i8",
        "CSR indices")
    data = _from_buffer(
        _unb64(payload.get("data", ""), "CSR data"), "<f8", "CSR data")
    if indptr.size != n_rows + 1 or indices.size != data.size:
        raise SchemaError(
            f"CSR blocks inconsistent: {indptr.size} indptr entries for "
            f"{n_rows} rows, {indices.size} indices for {data.size} values")
    if n_rows and (indptr[0] != 0 or indptr[-1] != data.size
                   or np.any(np.diff(indptr) < 0)):
        raise SchemaError("CSR indptr is not a monotone prefix-sum array")
    if indices.size and (indices.min() < 0 or indices.max() >= n_cols):
        raise SchemaError(
            f"CSR column indices out of range for {n_cols} columns")
    try:
        matrix = sp.csr_matrix(
            (data.copy(), indices.copy(), indptr.copy()), shape=(n_rows, n_cols))
    except Exception as error:
        raise SchemaError(f"CSR blocks do not form a valid matrix ({error})")
    expected = payload.get("fingerprint")
    actual = matrix_fingerprint(matrix)
    if expected != actual:
        raise IntegrityError(
            f"CSR block failed its integrity check "
            f"(fingerprint {expected!r} != {actual!r})")
    return matrix
