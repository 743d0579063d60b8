"""Tests of the fingerprinted base64 payload codec."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp

from repro.api import (
    IntegrityError,
    SchemaError,
    UnknownMatrixError,
    decode_array,
    decode_csr,
    encode_array,
    encode_csr,
)
from repro.matrices import laplacian_2d
from repro.sparse.fingerprint import matrix_fingerprint


class TestArrayBlocks:
    def test_round_trip_is_bit_identical(self):
        vector = np.random.default_rng(3).standard_normal(257)
        decoded = decode_array(encode_array(vector))
        assert decoded.dtype == np.float64
        assert np.array_equal(decoded, vector)

    def test_non_float64_input_is_canonicalised(self):
        decoded = decode_array(encode_array(np.arange(5, dtype=np.int32)))
        assert decoded.dtype == np.float64
        assert np.array_equal(decoded, np.arange(5.0))

    def test_two_dimensional_input_rejected(self):
        with pytest.raises(SchemaError):
            encode_array(np.ones((2, 2)))

    def test_complex_input_rejected_not_truncated(self):
        with pytest.raises(SchemaError):
            encode_array(np.ones(4) + 1j)
        with pytest.raises(SchemaError):
            encode_csr(sp.csr_matrix(np.eye(3) * (1 + 1j)))

    def test_corrupted_data_fails_integrity(self):
        payload = encode_array(np.ones(8))
        payload["data"] = encode_array(np.zeros(8))["data"]
        with pytest.raises(IntegrityError):
            decode_array(payload)

    def test_invalid_base64_rejected(self):
        payload = encode_array(np.ones(8))
        payload["data"] = "!!! not base64 !!!"
        with pytest.raises(SchemaError):
            decode_array(payload)

    def test_shape_inconsistent_with_payload_rejected(self):
        payload = encode_array(np.ones(8))
        payload["shape"] = [9]
        with pytest.raises(SchemaError):
            decode_array(payload)

    def test_decoded_array_is_writable(self):
        decoded = decode_array(encode_array(np.ones(4)))
        decoded[0] = 2.0  # frombuffer views are read-only; codec must copy


class TestCSRBlocks:
    def test_round_trip_preserves_content_and_fingerprint(self):
        matrix = laplacian_2d(7)
        payload = encode_csr(matrix)
        decoded = decode_csr(payload)
        assert (decoded != matrix).nnz == 0
        assert matrix_fingerprint(decoded) == payload["fingerprint"]

    def test_canonicalisation_before_fingerprinting(self):
        # A COO matrix with duplicate entries must encode to the same
        # fingerprint as its canonical CSR form.
        coo = sp.coo_matrix(
            (np.array([1.0, 1.0, 2.0]), (np.array([0, 0, 1]),
                                         np.array([0, 0, 1]))), shape=(2, 2))
        canonical = sp.csr_matrix(np.array([[2.0, 0.0], [0.0, 2.0]]))
        assert encode_csr(coo)["fingerprint"] == \
            encode_csr(canonical)["fingerprint"]

    def test_tampered_values_fail_integrity(self):
        payload = encode_csr(laplacian_2d(4))
        other = encode_csr(laplacian_2d(4) * 2.0)
        payload["data"] = other["data"]
        with pytest.raises(IntegrityError):
            decode_csr(payload)

    def test_inconsistent_blocks_rejected(self):
        payload = encode_csr(laplacian_2d(4))
        payload["shape"] = [3, 3]
        with pytest.raises(SchemaError):
            decode_csr(payload)

    def test_out_of_range_indices_rejected(self):
        matrix = sp.csr_matrix(np.eye(3))
        payload = encode_csr(matrix)
        bad_indices = np.array([0, 1, 5], dtype=np.int64)
        import base64

        payload["indices"] = base64.b64encode(bad_indices.tobytes()).decode()
        with pytest.raises(SchemaError):
            decode_csr(payload)

    def test_non_object_payload_rejected(self):
        with pytest.raises(SchemaError):
            decode_csr("not an object")
        with pytest.raises(SchemaError):
            decode_array([1, 2, 3])


class TestMatrixRefs:
    """A matrix the receiver holds travels as its fingerprint alone."""

    def test_held_fingerprint_encodes_as_a_ref(self):
        matrix = laplacian_2d(5)
        fingerprint = matrix_fingerprint(matrix)
        assert encode_csr(matrix, {fingerprint}) == {"ref": fingerprint}
        assert encode_csr(matrix, {"0" * 32})["fingerprint"] == fingerprint

    def test_encode_hashes_the_matrix_once(self, monkeypatch):
        import repro.sparse.fingerprint as fingerprint_module

        calls = []
        real = fingerprint_module.content_hash

        def counting(*parts):
            calls.append(parts[0])
            return real(*parts)

        monkeypatch.setattr(fingerprint_module, "content_hash", counting)
        encode_csr(laplacian_2d(5), {"0" * 32})
        assert len(calls) == 1

    def test_ref_resolves_through_the_lookup(self):
        matrix = laplacian_2d(5)
        fingerprint = matrix_fingerprint(matrix)
        held = {fingerprint: matrix}
        assert decode_csr({"ref": fingerprint}, held.get) is matrix
        with pytest.raises(UnknownMatrixError) as excinfo:
            decode_csr({"ref": "0" * 32}, held.get)
        assert excinfo.value.fingerprint == "0" * 32
        with pytest.raises(UnknownMatrixError):
            decode_csr({"ref": fingerprint})  # nothing held without a lookup

    @pytest.mark.parametrize("ref", [7, None, ["a"], "0" * 31, "0" * 33,
                                     "A" * 32, "g" * 32, " " + "0" * 31])
    def test_malformed_ref_is_a_schema_error(self, ref):
        with pytest.raises(SchemaError) as excinfo:
            decode_csr({"ref": ref}, lambda fingerprint: laplacian_2d(3))
        assert not isinstance(excinfo.value, UnknownMatrixError)

    def test_fingerprint_prefix_does_not_resolve(self):
        matrix = laplacian_2d(5)
        fingerprint = matrix_fingerprint(matrix)
        held = {fingerprint: matrix}
        with pytest.raises(SchemaError) as excinfo:
            decode_csr({"ref": fingerprint[:12]}, held.get)
        assert not isinstance(excinfo.value, UnknownMatrixError)
