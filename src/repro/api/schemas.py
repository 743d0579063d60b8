"""Frozen, versioned wire schemas of the solve API.

The transport-agnostic contract between any client and any server:

* :class:`SolveRequestV1` — one solve job (matrix by registry name or raw
  CSR payload, right-hand side, solver/preconditioner choices, limits).
* :class:`SolveResponseV1` — the answer, carrying the solution vector and a
  typed :class:`PolicyProvenance` explaining *why* it was preconditioned the
  way it was.
* :class:`JobStatusV1` — the state of a queued job (``/v1/jobs/<id>``).
* :class:`TelemetrySnapshot` — the server's metrics (``/v1/metrics``).

Every schema round-trips strictly through ``to_json_dict`` /
``from_json_dict``: messages are stamped (see :mod:`repro.api.versioning`),
numpy blocks are fingerprinted base64 (see :mod:`repro.api.codec`), and the
encoding is lossless, so a request or response survives the wire
bit-identically.  :func:`validate_request` is the single admission-boundary
validator shared by the in-process queue and the HTTP adapter: malformed
requests are rejected with the structured ``invalid`` reason instead of
crashing a solver downstream.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field
from typing import Any, Callable, Container, Iterator

import numpy as np
import scipy.sparse as sp

from repro.api.codec import decode_array, decode_csr, encode_array, encode_csr
from repro.api.errors import AdmissionError, REJECT_INVALID, SchemaError
from repro.api.versioning import negotiate, version_stamp

__all__ = [
    "SolveRequestV1",
    "SolveResponseV1",
    "PolicyProvenance",
    "JobStatusV1",
    "TelemetrySnapshot",
    "requested_family",
    "validate_request",
]


def _known_solvers() -> tuple[str, ...]:
    from repro.krylov.solve import KNOWN_SOLVERS

    return tuple(sorted(KNOWN_SOLVERS))


def _known_families() -> tuple[str, ...]:
    from repro.precond.factory import KNOWN_FAMILIES

    return KNOWN_FAMILIES


def requested_family(preconditioner: str | None) -> str | None:
    """The family a request names, stripped and lower-cased.

    ``None`` when the request leaves the choice to the policy: no family,
    or ``"auto"`` in any case or padding.

    >>> [requested_family(name) for name in (" ILU0 ", " Auto ", None)]
    ['ilu0', None, None]
    """
    if preconditioner is None:
        return None
    family = str(preconditioner).strip().lower()
    return None if family == "auto" else family


@dataclass(frozen=True)
class SolveRequestV1:
    """One solve job: a matrix (or registry name), a right-hand side, limits.

    Attributes
    ----------
    matrix:
        Either a square sparse matrix or the name of a matrix in
        :data:`~repro.matrices.registry.MATRIX_REGISTRY` (resolved once per
        server through the artifact cache).  On the wire a raw matrix
        travels as fingerprinted CSR blocks, a name as itself.
    rhs:
        Right-hand side vector; ``None`` means the all-ones vector.
    solver:
        Explicit Krylov solver name, or ``None`` to let the policy choose.
    preconditioner:
        Explicit preconditioner family (see
        :data:`repro.precond.factory.KNOWN_FAMILIES`), or ``None``/"auto"
        to let the policy choose; any case or padding is admitted (see
        :func:`requested_family`).
    rtol / maxiter:
        Solver limits shared by every solve of this request.
    priority:
        Higher values are served first; ties are FIFO.
    seed:
        Request seed, reserved for families with stochastic builds.  The
        *shared* artifacts (MCMC transition tables, preconditioners) are
        seeded from the matrix fingerprint instead, so that batched and
        synchronous serving are bit-identical; see
        :mod:`repro.server.scheduler`.
    tag:
        Free-form caller label echoed on the response.

    A v1 payload that still carries the retired ``batch_mode`` key parses
    (unknown keys are ignored) and is served like any other request: every
    same-matrix batch is one solve per right-hand side.

    ``verified_fingerprint`` is not a constructor argument: only
    :meth:`from_json_dict` sets it, to the fingerprint the codec verified
    for a raw matrix (or the ref it resolved), so the server groups and
    caches by it without hashing the matrix again.  It stays ``None`` on a
    request built in process, and on one that names a registry matrix.
    """

    matrix: sp.spmatrix | str
    rhs: np.ndarray | None = None
    solver: str | None = None
    preconditioner: str | None = None
    rtol: float = 1e-8
    maxiter: int = 1000
    priority: int = 0
    seed: int = 0
    tag: str = ""
    verified_fingerprint: str | None = field(
        default=None, init=False, repr=False, compare=False)

    def validate(self) -> "SolveRequestV1":
        """Run the admission-boundary validation; returns ``self``."""
        validate_request(self)
        return self

    def to_json_dict(self, held: Container[str] = ()) -> dict:
        """The stamped wire form of this request.

        A raw matrix whose fingerprint is in ``held`` (the fingerprints the
        receiving server said it holds) travels as ``{"ref": fingerprint}``
        inside the ``csr`` object instead of as blocks.
        """
        payload = version_stamp("solve_request")
        if isinstance(self.matrix, str):
            matrix_payload: dict = {"name": self.matrix}
        else:
            matrix_payload = {"csr": encode_csr(self.matrix, held)}
        payload.update({
            "matrix": matrix_payload,
            "rhs": None if self.rhs is None else encode_array(self.rhs),
            "solver": self.solver,
            "preconditioner": self.preconditioner,
            "rtol": float(self.rtol),
            "maxiter": int(self.maxiter),
            "priority": int(self.priority),
            "seed": int(self.seed),
            "tag": str(self.tag),
        })
        return payload

    @classmethod
    def from_json_dict(cls, payload: dict,
                       resolve: Callable[[str], sp.csr_matrix | None]
                       | None = None) -> "SolveRequestV1":
        """Parse (and version-negotiate) a wire payload into a request.

        ``resolve`` looks up a matrix sent by ref (see
        :func:`~repro.api.codec.decode_csr`); without it a ref is an
        :class:`~repro.api.errors.UnknownMatrixError`.
        """
        payload = negotiate(payload, "solve_request")
        matrix_payload = payload.get("matrix")
        if not isinstance(matrix_payload, dict):
            raise SchemaError(
                f"request matrix must be an object with 'name' or 'csr', "
                f"got {type(matrix_payload).__name__}")
        fingerprint = None
        if "name" in matrix_payload:
            matrix: sp.spmatrix | str = str(matrix_payload["name"])
        elif "csr" in matrix_payload:
            block = matrix_payload["csr"]
            matrix = decode_csr(block, resolve)
            # What decode_csr verified, or the ref it resolved.
            fingerprint = block.get("ref") or block["fingerprint"]
        else:
            raise SchemaError(
                "request matrix object carries neither 'name' nor 'csr'")
        rhs_payload = payload.get("rhs")
        rhs = None if rhs_payload is None else decode_array(rhs_payload)
        solver = payload.get("solver")
        preconditioner = payload.get("preconditioner")
        try:
            # Scalar coercion failures are the *client's* malformed payload,
            # not a server fault — they must surface as a schema violation
            # (HTTP 400 bad_request), never as an internal error.
            rtol = float(payload.get("rtol", 1e-8))
            maxiter = int(payload.get("maxiter", 1000))
            priority = int(payload.get("priority", 0))
            seed = int(payload.get("seed", 0))
        except (TypeError, ValueError) as error:
            raise SchemaError(f"request scalar field malformed: {error}")
        request = cls(
            matrix=matrix,
            rhs=rhs,
            solver=None if solver is None else str(solver),
            preconditioner=(None if preconditioner is None
                            else str(preconditioner)),
            rtol=rtol,
            maxiter=maxiter,
            priority=priority,
            seed=seed,
            tag=str(payload.get("tag", "")),
        )
        object.__setattr__(request, "verified_fingerprint", fingerprint)
        return request


def validate_request(request: SolveRequestV1) -> None:
    """Admission-boundary validation shared by every transport.

    Raises :class:`AdmissionError` with the structured ``invalid`` reason
    for: unknown registry names, non-square/empty matrices, non-finite
    matrix entries, empty / shape-mismatched / non-finite right-hand sides,
    unknown solver or preconditioner names, and out-of-range limits —
    instead of letting a malformed request crash a solver downstream.
    """
    from repro.matrices.registry import MATRIX_REGISTRY

    def invalid(message: str) -> AdmissionError:
        return AdmissionError(REJECT_INVALID, message)

    matrix = request.matrix
    if isinstance(matrix, str):
        if matrix not in MATRIX_REGISTRY:
            raise invalid(f"unknown registry matrix {matrix!r}")
        dimension: int | None = MATRIX_REGISTRY[matrix].dimension
    elif sp.issparse(matrix):
        if matrix.shape[0] != matrix.shape[1]:
            raise invalid(
                f"matrix must be square, got shape {matrix.shape}")
        if matrix.shape[0] == 0:
            raise invalid("matrix must be non-empty")
        if np.issubdtype(matrix.dtype, np.complexfloating):
            raise invalid(f"matrix must be real-valued, "
                          f"got dtype {matrix.dtype}")
        if matrix.nnz and not np.all(np.isfinite(matrix.data)):
            raise invalid("matrix contains non-finite entries")
        dimension = matrix.shape[0]
    else:
        raise invalid(
            f"matrix must be a sparse matrix or a registry name, "
            f"got {type(matrix).__name__}")
    if request.rhs is not None:
        rhs = np.asarray(request.rhs)
        if rhs.ndim != 1:
            raise invalid(
                f"rhs must be a 1-D vector, got shape {rhs.shape}")
        if rhs.size == 0:
            raise invalid("rhs must be non-empty")
        if dimension is not None and rhs.size != dimension:
            raise invalid(
                f"rhs of shape {rhs.shape} incompatible with matrix "
                f"dimension {dimension}")
        if (not np.issubdtype(rhs.dtype, np.number)
                or np.issubdtype(rhs.dtype, np.complexfloating)):
            # Complex rhs must be shed here: the float64 wire codec would
            # otherwise silently discard the imaginary part and the server
            # would solve a different problem.
            raise invalid(f"rhs must be real-valued numeric, "
                          f"got dtype {rhs.dtype}")
        if not np.all(np.isfinite(rhs)):
            raise invalid("rhs contains non-finite entries (NaN/Inf)")
    if request.solver is not None:
        solvers = _known_solvers()
        if str(request.solver).strip().lower() not in solvers:
            raise invalid(
                f"unknown solver {request.solver!r}; "
                f"expected one of {solvers}")
    family = requested_family(request.preconditioner)
    if family is not None:
        families = _known_families()
        if family not in families:
            raise invalid(
                f"unknown preconditioner family {request.preconditioner!r}; "
                f"expected one of {families}")
    if not isinstance(request.rtol, numbers.Real):
        raise invalid(f"rtol must be a real number, got {request.rtol!r}")
    if not 0.0 < request.rtol < 1.0:
        raise invalid(f"rtol must lie in (0, 1), got {request.rtol}")
    if not isinstance(request.maxiter, (int, np.integer)) or request.maxiter < 1:
        raise invalid(f"maxiter must be an integer >= 1, got {request.maxiter!r}")


@dataclass(frozen=True)
class PolicyProvenance:
    """Why a response was preconditioned the way it was.

    The wire rendering of a :class:`repro.server.policy.PolicyDecision` —
    which carries the ladder's :class:`~repro.service.ladder.Proposal`
    provenance (origin, neighbour, model version) — plus the family
    actually *built* (which differs from the decided family when a
    build broke down and the identity fallback was used).  Provides a
    read-only mapping interface over the same keys the pre-wire ``dict``
    provenance exposed, so ``response.provenance["origin"]`` keeps working.
    """

    family: str
    solver: str
    origin: str
    params: tuple[tuple[str, Any], ...] = ()
    rule: str = ""
    neighbour_name: str | None = None
    neighbour_distance: float | None = None
    built_family: str = ""
    model_version: str | None = None

    @classmethod
    def from_decision(cls, decision, built_family: str) -> "PolicyProvenance":
        """Build from a :class:`~repro.server.policy.PolicyDecision`."""
        return cls(
            family=decision.family,
            solver=decision.solver,
            origin=decision.origin,
            params=tuple(decision.params),
            rule=decision.rule,
            neighbour_name=decision.neighbour_name,
            neighbour_distance=decision.neighbour_distance,
            built_family=built_family,
            model_version=decision.model_version,
        )

    def to_json_dict(self) -> dict:
        """Plain-JSON rendering (the historical provenance-dict shape)."""
        info: dict = {
            "family": self.family,
            "solver": self.solver,
            "params": {name: value for name, value in self.params},
            "origin": self.origin,
        }
        if self.rule:
            info["rule"] = self.rule
        if self.neighbour_name is not None:
            info["neighbour"] = {"name": self.neighbour_name,
                                 "distance": self.neighbour_distance}
        if self.built_family:
            info["built_family"] = self.built_family
        if self.model_version is not None:
            info["model_version"] = self.model_version
        return info

    @classmethod
    def from_json_dict(cls, payload: dict) -> "PolicyProvenance":
        """Parse the JSON rendering back into the typed record."""
        if not isinstance(payload, dict):
            raise SchemaError(
                f"provenance must be an object, got {type(payload).__name__}")
        neighbour = payload.get("neighbour") or {}
        params = payload.get("params") or {}
        return cls(
            family=str(payload.get("family", "")),
            solver=str(payload.get("solver", "")),
            origin=str(payload.get("origin", "")),
            params=tuple(sorted(params.items())),
            rule=str(payload.get("rule", "")),
            neighbour_name=neighbour.get("name"),
            neighbour_distance=(None if neighbour.get("distance") is None
                                else float(neighbour["distance"])),
            built_family=str(payload.get("built_family", "")),
            model_version=(None if payload.get("model_version") is None
                           else str(payload["model_version"])),
        )

    # -- read-only mapping interface (back-compat with the dict provenance) --
    def __getitem__(self, key: str) -> Any:
        return self.to_json_dict()[key]

    def __contains__(self, key: object) -> bool:
        return key in self.to_json_dict()

    def __iter__(self) -> Iterator[str]:
        return iter(self.to_json_dict())

    def keys(self):
        """Keys of the JSON rendering."""
        return self.to_json_dict().keys()

    def get(self, key: str, default: Any = None) -> Any:
        """Mapping-style ``get`` over the JSON rendering."""
        return self.to_json_dict().get(key, default)


def _finite_or_none(value: float) -> float | None:
    """JSON has no NaN or infinity: a non-finite residual travels as ``null``
    (and :func:`_nan_if_none` reads it back as ``nan``)."""
    return float(value) if np.isfinite(value) else None


def _nan_if_none(value) -> float:
    return float("nan") if value is None else float(value)


@dataclass(frozen=True)
class SolveResponseV1:
    """What the server returns for one request.

    ``batch_mode`` is always ``"loop"``: every request of a same-matrix
    batch is its own single-rhs solve.  The field stays on the wire for
    clients that read it; payloads without it parse as ``"loop"`` too.

    ``trace_id`` is optional observability metadata: the id of the request's
    trace when the server ran with tracing enabled (also carried by the
    ``X-Repro-Trace-Id`` response header over HTTP), ``None`` otherwise.
    It is a post-freeze optional field — messages
    without it parse unchanged.

    ``termination`` (``converged`` / ``maxiter`` / ``breakdown`` /
    ``non_finite``) and ``true_residual`` (``||b - A x|| / ||b||`` of the
    returned solution, beside the solver's own ``final_residual``) are what
    :class:`repro.krylov.SolveResult` measured at the solver's exit; optional
    post-freeze fields too, ``None`` from a server predating them.
    """

    tag: str
    job_id: int
    fingerprint: str
    solution: np.ndarray
    converged: bool
    iterations: int
    final_residual: float
    solver: str
    provenance: PolicyProvenance
    batch_size: int
    batch_mode: str = "loop"
    trace_id: str | None = None
    termination: str | None = None
    true_residual: float | None = None

    def to_json_dict(self) -> dict:
        """The stamped wire form of this response."""
        payload = version_stamp("solve_response")
        payload.update({
            "tag": self.tag,
            "job_id": int(self.job_id),
            "fingerprint": self.fingerprint,
            "solution": encode_array(self.solution),
            "converged": bool(self.converged),
            "iterations": int(self.iterations),
            "final_residual": _finite_or_none(self.final_residual),
            "solver": self.solver,
            "provenance": self.provenance.to_json_dict(),
            "batch_size": int(self.batch_size),
            "batch_mode": str(self.batch_mode),
            "trace_id": self.trace_id,
            "termination": self.termination,
        })
        if self.true_residual is not None:
            payload["true_residual"] = _finite_or_none(self.true_residual)
        return payload

    @classmethod
    def from_json_dict(cls, payload: dict) -> "SolveResponseV1":
        """Parse (and version-negotiate) a wire payload into a response."""
        payload = negotiate(payload, "solve_response")
        return cls(
            tag=str(payload.get("tag", "")),
            job_id=int(payload["job_id"]),
            fingerprint=str(payload["fingerprint"]),
            solution=decode_array(payload["solution"]),
            converged=bool(payload["converged"]),
            iterations=int(payload["iterations"]),
            final_residual=_nan_if_none(payload["final_residual"]),
            solver=str(payload["solver"]),
            provenance=PolicyProvenance.from_json_dict(
                payload.get("provenance", {})),
            batch_size=int(payload.get("batch_size", 1)),
            batch_mode=str(payload.get("batch_mode", "loop")),
            trace_id=(None if payload.get("trace_id") is None
                      else str(payload["trace_id"])),
            termination=(None if payload.get("termination") is None
                         else str(payload["termination"])),
            true_residual=(_nan_if_none(payload["true_residual"])
                           if "true_residual" in payload else None),
        )


@dataclass(frozen=True)
class JobStatusV1:
    """State of a queued job as reported by ``GET /v1/jobs/<id>``."""

    job_id: int
    state: str
    response: SolveResponseV1 | None = None
    error: "ErrorEnvelope | None" = None

    def to_json_dict(self) -> dict:
        """The stamped wire form of this status record."""
        payload = version_stamp("job_status")
        payload.update({
            "job_id": int(self.job_id),
            "state": self.state,
            "response": (None if self.response is None
                         else self.response.to_json_dict()),
            "error": None if self.error is None else self.error.to_json_dict(),
        })
        return payload

    @classmethod
    def from_json_dict(cls, payload: dict) -> "JobStatusV1":
        """Parse (and version-negotiate) a wire payload into a status."""
        from repro.api.errors import ErrorEnvelope

        payload = negotiate(payload, "job_status")
        response_payload = payload.get("response")
        error_payload = payload.get("error")
        return cls(
            job_id=int(payload["job_id"]),
            state=str(payload["state"]),
            response=(None if response_payload is None
                      else SolveResponseV1.from_json_dict(response_payload)),
            error=(None if error_payload is None
                   else ErrorEnvelope.from_json_dict(error_payload)),
        )


@dataclass(frozen=True)
class TelemetrySnapshot:
    """The server's metrics snapshot as a typed wire schema.

    Wraps the plain dict produced by
    :meth:`repro.server.server.SolveServer.telemetry_snapshot` (counters,
    gauges, histogram summaries, queue state, artifact-cache stats) so it
    can travel ``GET /v1/metrics`` with the same stamping and negotiation
    as every other payload.
    """

    counters: dict = field(default_factory=dict)
    gauges: dict = field(default_factory=dict)
    histograms: dict = field(default_factory=dict)
    queue: dict = field(default_factory=dict)
    artifact_cache: dict = field(default_factory=dict)

    @classmethod
    def from_snapshot(cls, snapshot: dict) -> "TelemetrySnapshot":
        """Wrap a server-side telemetry snapshot dict."""
        return cls(
            counters=dict(snapshot.get("counters", {})),
            gauges=dict(snapshot.get("gauges", {})),
            histograms=dict(snapshot.get("histograms", {})),
            queue=dict(snapshot.get("queue", {})),
            artifact_cache=dict(snapshot.get("artifact_cache", {})),
        )

    def to_json_dict(self) -> dict:
        """The stamped wire form of this snapshot."""
        payload = version_stamp("telemetry")
        payload.update({
            "counters": dict(self.counters),
            "gauges": dict(self.gauges),
            "histograms": dict(self.histograms),
            "queue": dict(self.queue),
            "artifact_cache": dict(self.artifact_cache),
        })
        return payload

    @classmethod
    def from_json_dict(cls, payload: dict) -> "TelemetrySnapshot":
        """Parse (and version-negotiate) a wire payload into a snapshot."""
        payload = negotiate(payload, "telemetry")
        return cls.from_snapshot(payload)

    def __getitem__(self, key: str) -> dict:
        return {
            "counters": self.counters,
            "gauges": self.gauges,
            "histograms": self.histograms,
            "queue": self.queue,
            "artifact_cache": self.artifact_cache,
        }[key]
