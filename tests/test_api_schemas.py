"""Wire-schema tests: strict round-trips, validation, version negotiation.

Covers the PR acceptance criteria on the schema side: every
``AdmissionError`` reason maps onto a typed envelope (and back onto the
right exception), every ``PolicyDecision`` provenance variant survives the
wire, and the admission-boundary validator sheds malformed requests with
the structured ``invalid`` reason instead of a downstream crash.
"""

from __future__ import annotations

import dataclasses
import json

import numpy as np
import pytest
import scipy.sparse as sp

from repro.api import (
    AdmissionError,
    ErrorEnvelope,
    PolicyProvenance,
    RemoteSolveError,
    SchemaError,
    SolveRequestV1,
    SolveResponseV1,
    TelemetrySnapshot,
    UnsupportedVersionError,
    validate_request,
)
from repro.api import versioning
from repro.matrices import laplacian_2d
from repro.server.policy import PolicyDecision


class TestRequestRoundTrip:
    def test_registry_name_request_round_trips(self):
        request = SolveRequestV1(matrix="2DFDLaplace_16", solver="cg",
                                 preconditioner="ic0", rtol=1e-6,
                                 maxiter=250, priority=3, seed=7, tag="t")
        decoded = SolveRequestV1.from_json_dict(request.to_json_dict())
        assert decoded == request

    def test_raw_matrix_request_round_trips_bit_identically(self):
        matrix = laplacian_2d(5)
        rhs = np.random.default_rng(0).standard_normal(matrix.shape[0])
        request = SolveRequestV1(matrix=matrix, rhs=rhs, tag="raw")
        decoded = SolveRequestV1.from_json_dict(request.to_json_dict())
        assert np.array_equal(decoded.rhs, rhs)
        assert (decoded.matrix != matrix).nnz == 0
        assert np.array_equal(decoded.matrix.data, matrix.tocsr().data)

    def test_wire_payload_is_json_serialisable(self):
        import json

        request = SolveRequestV1(matrix=laplacian_2d(4), rhs=np.ones(9))
        json.loads(json.dumps(request.to_json_dict()))

    def test_matrix_object_without_name_or_csr_rejected(self):
        payload = SolveRequestV1(matrix="2DFDLaplace_16").to_json_dict()
        payload["matrix"] = {"dense": [[1.0]]}
        with pytest.raises(SchemaError):
            SolveRequestV1.from_json_dict(payload)


class TestBoundaryValidation:
    """The hardening satellite: reject garbage at the door, reason 'invalid'."""

    def _reason(self, **kwargs) -> str:
        kwargs.setdefault("matrix", laplacian_2d(4))
        with pytest.raises(AdmissionError) as excinfo:
            validate_request(SolveRequestV1(**kwargs))
        return excinfo.value.reason

    def test_nan_rhs_rejected(self):
        assert self._reason(rhs=np.array([1.0, np.nan] + [0.0] * 7)) == "invalid"

    def test_inf_rhs_rejected(self):
        assert self._reason(rhs=np.full(9, np.inf)) == "invalid"

    def test_empty_rhs_rejected(self):
        assert self._reason(rhs=np.array([])) == "invalid"

    def test_shape_mismatched_rhs_rejected(self):
        assert self._reason(rhs=np.ones(5)) == "invalid"

    def test_two_dimensional_rhs_rejected(self):
        assert self._reason(rhs=np.ones((3, 3))) == "invalid"

    def test_non_numeric_rhs_rejected(self):
        assert self._reason(rhs=np.array(["a"] * 9)) == "invalid"

    def test_unknown_solver_rejected(self):
        assert self._reason(solver="sor") == "invalid"

    def test_unknown_preconditioner_rejected(self):
        assert self._reason(preconditioner="amg") == "invalid"

    def test_auto_preconditioner_accepted(self):
        validate_request(SolveRequestV1(matrix=laplacian_2d(4),
                                        preconditioner="auto"))

    def test_empty_matrix_rejected(self):
        assert self._reason(matrix=sp.csr_matrix((0, 0))) == "invalid"

    def test_non_finite_matrix_rejected(self):
        matrix = sp.csr_matrix(np.array([[1.0, np.nan], [0.0, 1.0]]))
        assert self._reason(matrix=matrix) == "invalid"

    def test_unknown_registry_name_rejected(self):
        assert self._reason(matrix="no_such_matrix") == "invalid"

    def test_limit_ranges_rejected(self):
        assert self._reason(rtol=2.0) == "invalid"
        assert self._reason(maxiter=0) == "invalid"
        assert self._reason(maxiter="many") == "invalid"

    def test_complex_rhs_rejected(self):
        assert self._reason(rhs=np.ones(9) + 1j) == "invalid"

    def test_numpy_scalar_limits_accepted(self):
        # np.float32 rtol / np.int64 maxiter were admitted before the
        # boundary hardening and must stay admitted.
        validate_request(SolveRequestV1(matrix=laplacian_2d(4),
                                        rtol=np.float32(1e-6),
                                        maxiter=np.int64(50)))

    def test_complex_matrix_rejected(self):
        matrix = sp.csr_matrix(np.eye(4) * (1 + 1j))
        assert self._reason(matrix=matrix) == "invalid"

    def test_malformed_scalar_in_wire_payload_is_a_schema_error(self):
        # Coercion failures are the client's malformed payload -> 400, not
        # an internal server error.
        for field, value in (("rtol", None), ("maxiter", "lots"),
                             ("priority", "high"), ("seed", [1])):
            payload = SolveRequestV1(matrix="2DFDLaplace_16").to_json_dict()
            payload[field] = value
            with pytest.raises(SchemaError):
                SolveRequestV1.from_json_dict(payload)


class TestProvenanceVariants:
    """Every PolicyDecision provenance variant survives the wire."""

    DECISIONS = {
        "explicit": PolicyDecision(family="jacobi", solver="cg", params=(),
                                   origin="explicit"),
        "stored": PolicyDecision(
            family="mcmc", solver="gmres",
            params=(("alpha", 2.0), ("delta", 0.25), ("eps", 0.25)),
            origin="stored"),
        "warm_start": PolicyDecision(
            family="mcmc", solver="gmres",
            params=(("alpha", 1.5), ("delta", 0.5), ("eps", 0.125)),
            origin="warm_start", neighbour_name="lap8",
            neighbour_distance=0.372),
        "rule": PolicyDecision(family="neumann", solver="gmres",
                               params=(("terms", 4),),
                               origin="rule", rule="diagonal_dominance"),
    }

    @pytest.mark.parametrize("origin", sorted(DECISIONS))
    def test_round_trip(self, origin):
        decision = self.DECISIONS[origin]
        provenance = PolicyProvenance.from_decision(decision, "jacobi")
        decoded = PolicyProvenance.from_json_dict(provenance.to_json_dict())
        assert decoded == provenance
        assert decoded.origin == origin
        assert decoded.built_family == "jacobi"

    def test_mapping_interface_matches_legacy_dict(self):
        decision = self.DECISIONS["warm_start"]
        provenance = PolicyProvenance.from_decision(decision, "mcmc")
        legacy = {
            "family": "mcmc", "solver": "gmres", "origin": "warm_start",
            "params": {"alpha": 1.5, "delta": 0.5, "eps": 0.125},
            "neighbour": {"name": "lap8", "distance": 0.372},
        }
        for key, value in legacy.items():
            assert provenance[key] == value
        assert "rule" not in provenance
        assert provenance.get("rule", "fallback") == "fallback"
        assert set(legacy) <= set(provenance.keys())


class TestResponseRoundTrip:
    def _response(self) -> SolveResponseV1:
        provenance = PolicyProvenance(
            family="ic0", solver="cg", origin="rule", rule="spd",
            built_family="ic0")
        return SolveResponseV1(
            tag="t", job_id=4, fingerprint="ab" * 16,
            solution=np.linspace(-1.0, 1.0, 17),
            converged=True, iterations=12, final_residual=3.5e-9,
            solver="cg", provenance=provenance, batch_size=2)

    def test_round_trip_bit_identical(self):
        response = self._response()
        decoded = SolveResponseV1.from_json_dict(response.to_json_dict())
        assert np.array_equal(decoded.solution, response.solution)
        assert decoded.provenance == response.provenance
        assert (decoded.tag, decoded.job_id, decoded.iterations,
                decoded.batch_size) == ("t", 4, 12, 2)

    def test_exit_fields_round_trip(self):
        response = dataclasses.replace(
            self._response(), termination="converged", true_residual=4.25e-9)
        payload = json.loads(json.dumps(response.to_json_dict(),
                                        allow_nan=False))
        decoded = SolveResponseV1.from_json_dict(payload)
        assert (decoded.termination, decoded.true_residual,
                decoded.final_residual) == ("converged", 4.25e-9, 3.5e-9)

    def test_non_finite_residuals_travel_as_null(self):
        """``json.dumps`` would write the bare token ``NaN``, which is not
        JSON; a ``non_finite`` solve makes that path real."""
        response = dataclasses.replace(
            self._response(), converged=False, termination="non_finite",
            final_residual=float("nan"), true_residual=float("inf"))
        payload = response.to_json_dict()
        assert payload["final_residual"] is None
        assert payload["true_residual"] is None
        decoded = SolveResponseV1.from_json_dict(
            json.loads(json.dumps(payload, allow_nan=False)))
        assert decoded.termination == "non_finite"
        assert np.isnan(decoded.final_residual)
        assert np.isnan(decoded.true_residual)

    def test_payload_predating_the_exit_fields_parses(self):
        """What a server at the parent commit sends: neither field."""
        payload = self._response().to_json_dict()
        assert "true_residual" not in payload
        del payload["termination"]
        decoded = SolveResponseV1.from_json_dict(payload)
        assert decoded.termination is None and decoded.true_residual is None
        assert decoded.final_residual == 3.5e-9

    def test_tampered_solution_fails_integrity(self):
        payload = self._response().to_json_dict()
        payload["solution"]["data"] = payload["solution"]["data"][:-4] + "AAA="
        with pytest.raises(SchemaError):
            SolveResponseV1.from_json_dict(payload)


class TestErrorEnvelope:
    ADMISSION_REASONS = ("invalid", "queue_full", "draining", "closed")

    @pytest.mark.parametrize("reason", ADMISSION_REASONS)
    def test_every_admission_reason_round_trips(self, reason):
        envelope = ErrorEnvelope.from_exception(
            AdmissionError(reason, f"rejected: {reason}"))
        assert envelope.code == reason
        decoded = ErrorEnvelope.from_json_dict(envelope.to_json_dict())
        assert decoded == envelope

    @pytest.mark.parametrize("reason", ADMISSION_REASONS)
    def test_admission_codes_reraise_as_admission_errors(self, reason):
        envelope = ErrorEnvelope(code=reason, message="nope")
        with pytest.raises(AdmissionError) as excinfo:
            envelope.raise_()
        assert excinfo.value.reason == reason

    def test_http_status_mapping(self):
        assert ErrorEnvelope(code="invalid", message="").http_status == 400
        assert ErrorEnvelope(code="queue_full", message="").http_status == 429
        assert ErrorEnvelope(code="draining", message="").http_status == 503
        assert ErrorEnvelope(code="closed", message="").http_status == 503
        assert ErrorEnvelope(code="not_found", message="").http_status == 404
        assert ErrorEnvelope(code="internal", message="").http_status == 500

    def test_internal_errors_reraise_as_remote_solve_error(self):
        envelope = ErrorEnvelope.from_exception(RuntimeError("boom"))
        assert envelope.code == "internal"
        assert envelope.detail["type"] == "RuntimeError"
        with pytest.raises(RemoteSolveError):
            envelope.raise_()

    def test_schema_errors_map_to_bad_request_and_version_codes(self):
        assert ErrorEnvelope.from_exception(
            SchemaError("bad")).code == "bad_request"
        assert ErrorEnvelope.from_exception(
            UnsupportedVersionError("old")).code == "unsupported_version"


class TestTelemetrySnapshotSchema:
    def test_round_trip(self):
        snapshot = TelemetrySnapshot.from_snapshot({
            "counters": {"solves_total": 3},
            "gauges": {"queue.depth": 0.0},
            "histograms": {"solve.latency_ms": {"count": 3, "p50": 1.5}},
            "queue": {"depth": 0, "admitted": 3},
            "artifact_cache": {"hits": 2, "builds": 1},
        })
        decoded = TelemetrySnapshot.from_json_dict(snapshot.to_json_dict())
        assert decoded == snapshot
        assert decoded["counters"]["solves_total"] == 3


class TestVersionNegotiation:
    @pytest.fixture(autouse=True)
    def _clean_migrations(self):
        yield
        versioning.clear_migrations()

    def test_unstamped_payload_rejected(self):
        with pytest.raises(SchemaError):
            SolveRequestV1.from_json_dict({"matrix": {"name": "x"}})

    def test_wrong_schema_family_rejected(self):
        payload = SolveRequestV1(matrix="2DFDLaplace_16").to_json_dict()
        payload["schema"] = "someone.else"
        with pytest.raises(SchemaError):
            SolveRequestV1.from_json_dict(payload)

    def test_wrong_kind_rejected(self):
        payload = SolveRequestV1(matrix="2DFDLaplace_16").to_json_dict()
        with pytest.raises(SchemaError):
            SolveResponseV1.from_json_dict(payload)

    def test_future_version_rejected(self):
        payload = SolveRequestV1(matrix="2DFDLaplace_16").to_json_dict()
        payload["version"] = versioning.SCHEMA_VERSION + 1
        with pytest.raises(UnsupportedVersionError):
            SolveRequestV1.from_json_dict(payload)

    def test_old_version_without_migration_rejected(self):
        payload = SolveRequestV1(matrix="2DFDLaplace_16").to_json_dict()
        payload["version"] = 0
        with pytest.raises(UnsupportedVersionError):
            SolveRequestV1.from_json_dict(payload)

    def test_registered_migration_upgrades_old_payloads(self):
        # A hypothetical version 0 spelled the matrix name flat; the hook
        # lifts it into the v1 object shape.
        def upgrade(payload: dict) -> dict:
            payload["matrix"] = {"name": payload.pop("matrix_name")}
            return payload

        versioning.register_migration("solve_request", 0, upgrade)
        payload = versioning.version_stamp("solve_request", version=0)
        payload.update({"matrix_name": "2DFDLaplace_16", "tag": "legacy"})
        request = SolveRequestV1.from_json_dict(payload)
        assert request.matrix == "2DFDLaplace_16"
        assert request.tag == "legacy"
