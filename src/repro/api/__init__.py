"""Versioned, transport-agnostic wire schemas of the solve API.

This package is the *contract* between clients and servers — dataclasses and
codecs only, no serving logic.  A caller holding these schemas can talk to a
:class:`~repro.server.server.SolveServer` in-process (through
:class:`repro.client.InProcessClient`) or over HTTP/JSON (through
:class:`repro.client.HTTPClient` against :mod:`repro.server.http`) without
noticing the difference: the codec is lossless and every numpy payload is
fingerprint-checked, so results are bit-identical across transports.

* :mod:`repro.api.schemas` — :class:`SolveRequestV1`,
  :class:`SolveResponseV1`, :class:`PolicyProvenance`, :class:`JobStatusV1`,
  :class:`TelemetrySnapshot`, and :func:`validate_request` (the admission
  boundary).
* :mod:`repro.api.errors` — :class:`AdmissionError`,
  :class:`ErrorEnvelope` (typed error codes with HTTP status mapping).
* :mod:`repro.api.codec` — fingerprinted base64 blocks for vectors and CSR
  matrices.
* :mod:`repro.api.versioning` — payload stamps, negotiation, and the
  migration-hook registry.
"""

from repro.api.codec import decode_array, decode_csr, encode_array, encode_csr
from repro.api.errors import (
    AdmissionError,
    ErrorEnvelope,
    IntegrityError,
    RemoteSolveError,
    SchemaError,
    UnknownMatrixError,
    UnsupportedVersionError,
    ERROR_BAD_REQUEST,
    ERROR_CODES,
    ERROR_INTERNAL,
    ERROR_NOT_FOUND,
    ERROR_UNAVAILABLE,
    ERROR_UNKNOWN_MATRIX,
    ERROR_UNSUPPORTED_VERSION,
    HTTP_STATUS_BY_CODE,
    REJECT_CLOSED,
    REJECT_DRAINING,
    REJECT_INVALID,
    REJECT_QUEUE_FULL,
)
from repro.api.schemas import (
    JobStatusV1,
    PolicyProvenance,
    SolveRequestV1,
    SolveResponseV1,
    TelemetrySnapshot,
    validate_request,
)
from repro.api.versioning import (
    SCHEMA_FAMILY,
    SCHEMA_VERSION,
    negotiate,
    register_migration,
    version_stamp,
)

__all__ = [
    "SolveRequestV1",
    "SolveResponseV1",
    "PolicyProvenance",
    "JobStatusV1",
    "TelemetrySnapshot",
    "validate_request",
    "AdmissionError",
    "ErrorEnvelope",
    "IntegrityError",
    "RemoteSolveError",
    "SchemaError",
    "UnknownMatrixError",
    "UnsupportedVersionError",
    "ERROR_BAD_REQUEST",
    "ERROR_CODES",
    "ERROR_INTERNAL",
    "ERROR_NOT_FOUND",
    "ERROR_UNAVAILABLE",
    "ERROR_UNKNOWN_MATRIX",
    "ERROR_UNSUPPORTED_VERSION",
    "HTTP_STATUS_BY_CODE",
    "REJECT_CLOSED",
    "REJECT_DRAINING",
    "REJECT_INVALID",
    "REJECT_QUEUE_FULL",
    "encode_array",
    "decode_array",
    "encode_csr",
    "decode_csr",
    "SCHEMA_FAMILY",
    "SCHEMA_VERSION",
    "negotiate",
    "register_migration",
    "version_stamp",
]
