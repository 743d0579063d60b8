"""Stable content fingerprints for sparse matrices.

The tuning-service layer (:mod:`repro.service`) needs a *canonical identity*
for a matrix that survives process restarts: observations in the on-disk
store, shared :class:`~repro.mcmc.walks.TransitionTable` builds and
warm-start lookups are all keyed by it.  Matrix *names* are not good enough —
two sessions may register the same matrix under different names, and a name
says nothing about whether the entries changed.

:func:`matrix_fingerprint` hashes the full content of the canonicalised CSR
form (shape, dtype, ``indptr``, ``indices``, ``data``), so two matrices share
a fingerprint exactly when they are equal as sparse matrices — same pattern
*and* same values — regardless of how they were constructed (duplicate or
explicit-zero entries are canonicalised away by :func:`ensure_csr`).
:func:`csr_fingerprint` is the same hash without that pass, for a matrix that
is already canonical (an admitted request's, a codec's).
"""

from __future__ import annotations

import hashlib

import numpy as np
import scipy.sparse as sp

from repro.sparse.csr import ensure_csr

__all__ = ["matrix_fingerprint", "csr_fingerprint", "content_hash"]

#: Length (hex characters) of the truncated digests returned by this module.
#: 128 bits is far beyond any realistic collision risk for matrix corpora
#: while keeping directory names and index lines short.
DIGEST_LENGTH = 32


def content_hash(*parts: bytes | str) -> str:
    """SHA-256 over the given parts, truncated to :data:`DIGEST_LENGTH` hex chars.

    Each part is length-prefixed before hashing so that the concatenation is
    unambiguous (``("ab", "c")`` and ``("a", "bc")`` hash differently).
    """
    digest = hashlib.sha256()
    for part in parts:
        blob = part.encode("utf-8") if isinstance(part, str) else bytes(part)
        digest.update(len(blob).to_bytes(8, "little"))
        digest.update(blob)
    return digest.hexdigest()[:DIGEST_LENGTH]


def csr_fingerprint(csr: sp.csr_matrix) -> str:
    """:func:`matrix_fingerprint` of ``csr``, hashed as it stands: it must
    already be what :func:`ensure_csr` returns, or the hash differs."""
    return content_hash(
        f"csr:{csr.shape[0]}x{csr.shape[1]}:{csr.data.dtype.str}",
        np.ascontiguousarray(csr.indptr, dtype=np.int64).tobytes(),
        np.ascontiguousarray(csr.indices, dtype=np.int64).tobytes(),
        np.ascontiguousarray(csr.data).tobytes(),
    )


def matrix_fingerprint(matrix: sp.spmatrix | np.ndarray) -> str:
    """Stable content hash of a matrix (structure + values + dtype).

    The matrix is first canonicalised (CSR, sorted indices, explicit zeros
    eliminated, float64 data) so the fingerprint only depends on the
    mathematical content:

    >>> import numpy as np
    >>> dense = np.array([[2.0, -1.0], [0.0, 2.0]])
    >>> import scipy.sparse as sp
    >>> matrix_fingerprint(dense) == matrix_fingerprint(sp.coo_matrix(dense))
    True
    >>> matrix_fingerprint(dense) == matrix_fingerprint(dense.T)
    False
    """
    return csr_fingerprint(ensure_csr(matrix))
