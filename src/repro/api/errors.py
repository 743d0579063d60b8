"""Typed error surface of the versioned solve API.

Every failure that can cross the process boundary is described by an
:class:`ErrorEnvelope` — a frozen, JSON-round-trippable record with a stable
``code`` drawn from :data:`ERROR_CODES`.  The codes mirror the admission
reasons of the solve server (``invalid`` / ``queue_full`` / ``draining`` /
``closed``) and add the transport-level failures a wire protocol needs
(``bad_request``, ``unsupported_version``, ``not_found``, ``unknown_matrix``,
``internal``), so an HTTP client and an in-process caller see the *same*
taxonomy.

:class:`AdmissionError` lives here (not in :mod:`repro.server.queue`) because
it is part of the API contract: a client must be able to raise and catch it
without importing the server implementation.  The queue module re-exports it
for backwards compatibility.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.exceptions import ReproError

__all__ = [
    "AdmissionError",
    "SchemaError",
    "UnsupportedVersionError",
    "IntegrityError",
    "UnknownMatrixError",
    "RemoteSolveError",
    "ErrorEnvelope",
    "ERROR_CODES",
    "HTTP_STATUS_BY_CODE",
    "REJECT_QUEUE_FULL",
    "REJECT_CLOSED",
    "REJECT_DRAINING",
    "REJECT_INVALID",
    "ERROR_BAD_REQUEST",
    "ERROR_UNSUPPORTED_VERSION",
    "ERROR_NOT_FOUND",
    "ERROR_UNAVAILABLE",
    "ERROR_UNKNOWN_MATRIX",
    "ERROR_INTERNAL",
]

#: Admission-rejection reasons (also the ``reason`` label of the
#: ``solve.rejected`` counter).
REJECT_QUEUE_FULL = "queue_full"
REJECT_CLOSED = "closed"
REJECT_DRAINING = "draining"
REJECT_INVALID = "invalid"

#: Transport-level failure codes.  ``unavailable`` is the reachability
#: failure class: the target (a replica, or every live replica of a shard)
#: cannot be reached at all — connection refused/reset, a timed-out
#: exchange, or a fleet shard with no live replica behind it.  It maps to
#: 503 like drain/close: the request itself was fine, retry later or
#: elsewhere.
ERROR_BAD_REQUEST = "bad_request"
ERROR_UNSUPPORTED_VERSION = "unsupported_version"
ERROR_NOT_FOUND = "not_found"
ERROR_UNAVAILABLE = "unavailable"
ERROR_INTERNAL = "internal"

#: A request named its matrix by a ``ref`` (fingerprint) the server does not
#: hold.  Not the caller's fault and not a failure of the server: the
#: client sends the same request once more with the matrix inline.
ERROR_UNKNOWN_MATRIX = "unknown_matrix"

#: Every code an :class:`ErrorEnvelope` may carry.
ERROR_CODES: tuple[str, ...] = (
    REJECT_INVALID, REJECT_QUEUE_FULL, REJECT_DRAINING, REJECT_CLOSED,
    ERROR_BAD_REQUEST, ERROR_UNSUPPORTED_VERSION, ERROR_NOT_FOUND,
    ERROR_UNAVAILABLE, ERROR_UNKNOWN_MATRIX, ERROR_INTERNAL,
)

#: HTTP status an envelope of each code travels under.  Backpressure maps to
#: 429 (retry against the same server later), drain/close to 503 (retry
#: against another replica), schema problems to 400, lookups (a job, a path,
#: a matrix ref) to 404.
HTTP_STATUS_BY_CODE: dict[str, int] = {
    REJECT_INVALID: 400,
    ERROR_BAD_REQUEST: 400,
    ERROR_UNSUPPORTED_VERSION: 400,
    ERROR_NOT_FOUND: 404,
    ERROR_UNKNOWN_MATRIX: 404,
    REJECT_QUEUE_FULL: 429,
    REJECT_DRAINING: 503,
    REJECT_CLOSED: 503,
    ERROR_UNAVAILABLE: 503,
    ERROR_INTERNAL: 500,
}


class AdmissionError(ReproError):
    """A request was rejected at the door; :attr:`reason` says why."""

    def __init__(self, reason: str, message: str) -> None:
        super().__init__(message)
        self.reason = reason


class SchemaError(ReproError):
    """A wire payload violated the schema (malformed, wrong kind, ...)."""


class UnsupportedVersionError(SchemaError):
    """A wire payload's schema version cannot be migrated to the current one."""


class IntegrityError(SchemaError):
    """A decoded payload failed its content-fingerprint integrity check."""


class UnknownMatrixError(SchemaError):
    """A request's matrix ``ref`` names a fingerprint the server does not
    hold (never sent, evicted, or held by another replica)."""

    def __init__(self, fingerprint: str) -> None:
        super().__init__(f"no matrix held under ref {fingerprint!r}; "
                         f"send it inline")
        self.fingerprint = fingerprint


class RemoteSolveError(ReproError):
    """A remote server answered with an error envelope the client cannot map
    to a more specific exception; :attr:`envelope` carries the details."""

    def __init__(self, envelope: "ErrorEnvelope") -> None:
        super().__init__(f"[{envelope.code}] {envelope.message}")
        self.envelope = envelope


@dataclass(frozen=True)
class ErrorEnvelope:
    """The wire form of a failure: stable code, human message, detail bag."""

    code: str
    message: str
    detail: dict = field(default_factory=dict)

    @property
    def http_status(self) -> int:
        """HTTP status this envelope travels under (500 for unknown codes)."""
        return HTTP_STATUS_BY_CODE.get(self.code, 500)

    def to_json_dict(self) -> dict:
        """Plain-JSON rendering (see :mod:`repro.api.versioning` for the stamp)."""
        from repro.api.versioning import version_stamp

        payload = version_stamp("error")
        payload.update({"code": self.code, "message": self.message,
                        "detail": dict(self.detail)})
        return payload

    @classmethod
    def from_json_dict(cls, payload: dict) -> "ErrorEnvelope":
        """Parse a wire payload (negotiating its schema version first)."""
        from repro.api.versioning import negotiate

        payload = negotiate(payload, "error")
        return cls(code=str(payload["code"]),
                   message=str(payload.get("message", "")),
                   detail=dict(payload.get("detail", {})))

    @classmethod
    def from_exception(cls, error: BaseException) -> "ErrorEnvelope":
        """Map an exception onto the envelope taxonomy.

        :class:`AdmissionError` keeps its reason as the code,
        schema/version/integrity/unknown-ref failures map to their transport
        codes, and
        anything else becomes ``internal`` (the message still travels so a
        remote caller can debug a failed solve).
        """
        if isinstance(error, AdmissionError):
            return cls(code=error.reason, message=str(error))
        if isinstance(error, UnknownMatrixError):
            return cls(code=ERROR_UNKNOWN_MATRIX, message=str(error),
                       detail={"fingerprint": error.fingerprint})
        if isinstance(error, UnsupportedVersionError):
            return cls(code=ERROR_UNSUPPORTED_VERSION, message=str(error))
        if isinstance(error, SchemaError):
            return cls(code=ERROR_BAD_REQUEST, message=str(error))
        return cls(code=ERROR_INTERNAL, message=str(error),
                   detail={"type": type(error).__name__})

    def raise_(self) -> None:
        """Re-raise this envelope as the closest client-side exception.

        Admission codes become :class:`AdmissionError` (so a caller's
        ``except AdmissionError`` works identically against an in-process or
        a remote server); everything else raises :class:`RemoteSolveError`.
        """
        if self.code in (REJECT_INVALID, REJECT_QUEUE_FULL,
                         REJECT_DRAINING, REJECT_CLOSED):
            raise AdmissionError(self.code, self.message)
        raise RemoteSolveError(self)
