"""Tests for the autodiff tensor and functional operations.

Every differentiable operation is verified against central finite differences;
hypothesis drives the property-based checks on broadcasting and segment
reductions.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.exceptions import AutodiffError
from repro.nn import functional as F
from repro.nn.tensor import Tensor, no_grad
from oracles.reference import LayerNorm as MeanVarLayerNorm


def finite_difference_check(function, x0, *, eps=1e-6, atol=1e-6):
    """Compare the analytic gradient of ``sum(function(x))`` with central differences."""
    x = Tensor(x0.copy(), requires_grad=True)
    output = function(x)
    F.sum(output).backward()
    analytic = x.grad.copy()
    numeric = np.zeros_like(x0)
    flat = x0.ravel()
    for index in range(flat.size):
        plus = x0.copy().ravel()
        minus = x0.copy().ravel()
        plus[index] += eps
        minus[index] -= eps
        f_plus = function(Tensor(plus.reshape(x0.shape))).data.sum()
        f_minus = function(Tensor(minus.reshape(x0.shape))).data.sum()
        numeric.ravel()[index] = (f_plus - f_minus) / (2 * eps)
    np.testing.assert_allclose(analytic, numeric, atol=atol)


@pytest.fixture()
def x0():
    return np.random.default_rng(0).standard_normal((4, 5))


class TestTensorBasics:
    def test_shape_and_dtype(self):
        tensor = Tensor([[1, 2], [3, 4]])
        assert tensor.shape == (2, 2)
        assert tensor.data.dtype == np.float64

    def test_item_scalar(self):
        assert Tensor(3.5).item() == 3.5

    def test_item_nonscalar_raises(self):
        with pytest.raises(AutodiffError):
            Tensor(np.ones(3)).item()

    def test_detach_cuts_tape(self):
        a = Tensor(np.ones(3), requires_grad=True)
        b = (a * 2.0).detach()
        assert not b.requires_grad

    def test_backward_nonscalar_requires_gradient(self):
        tensor = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(AutodiffError):
            (tensor * 2.0).backward()

    def test_gradient_accumulation_across_uses(self):
        a = Tensor(np.array([2.0]), requires_grad=True)
        out = a * 3.0 + a * 4.0
        out.sum().backward()
        np.testing.assert_allclose(a.grad, [7.0])

    def test_zero_grad(self):
        a = Tensor(np.ones(2), requires_grad=True)
        (a * 2.0).sum().backward()
        a.zero_grad()
        assert a.grad is None

    def test_no_grad_context(self):
        a = Tensor(np.ones(2), requires_grad=True)
        with no_grad():
            out = a * 2.0
        assert out._parents == ()

    def test_operator_sugar(self):
        a = Tensor(np.array([1.0, 2.0]))
        np.testing.assert_allclose((a + 1.0).data, [2.0, 3.0])
        np.testing.assert_allclose((2.0 - a).data, [1.0, 0.0])
        np.testing.assert_allclose((a / 2.0).data, [0.5, 1.0])
        np.testing.assert_allclose((-a).data, [-1.0, -2.0])
        np.testing.assert_allclose((a * a).data, [1.0, 4.0])


class TestGradients:
    def test_matmul_relu(self, x0):
        weight = Tensor(np.random.default_rng(1).standard_normal((5, 3)))
        finite_difference_check(lambda x: F.relu(F.matmul(x, weight)), x0)

    def test_broadcast_add_mul(self, x0):
        bias = Tensor(np.random.default_rng(2).standard_normal(5))
        finite_difference_check(lambda x: F.mul(F.add(x, bias), Tensor(2.0)), x0)

    def test_div(self, x0):
        denominator = Tensor(np.abs(np.random.default_rng(3).standard_normal(5)) + 1.0)
        finite_difference_check(lambda x: F.div(x, denominator), x0)

    def test_softplus_sigmoid_tanh_exp(self, x0):
        finite_difference_check(F.softplus, x0)
        finite_difference_check(F.sigmoid, x0)
        finite_difference_check(F.tanh, x0)
        finite_difference_check(F.exp, x0, atol=1e-5)

    def test_log(self):
        positive = np.abs(np.random.default_rng(4).standard_normal((3, 3))) + 0.5
        finite_difference_check(F.log, positive)

    def test_leaky_relu(self, x0):
        finite_difference_check(lambda x: F.leaky_relu(x, 0.1), x0)

    def test_pow_scalar(self, x0):
        finite_difference_check(lambda x: F.pow_scalar(x, 3.0), x0, atol=1e-4)

    def test_mean_and_reshape(self, x0):
        finite_difference_check(lambda x: F.mean(x, axis=1), x0)
        finite_difference_check(lambda x: F.reshape(x, (20,)), x0)

    def test_layer_norm(self, x0):
        gamma = Tensor(np.random.default_rng(5).standard_normal(5))
        beta = Tensor(np.random.default_rng(6).standard_normal(5))
        finite_difference_check(lambda x: F.layer_norm(x, gamma, beta), x0, atol=1e-5)

    def test_concat_and_stack(self, x0):
        finite_difference_check(lambda x: F.concat([x, F.mul(x, Tensor(2.0))], axis=1), x0)
        finite_difference_check(lambda x: F.stack([x, x], axis=0), x0)

    def test_gather_and_segments(self, x0):
        indices = np.array([0, 2, 2, 3])
        segments = np.array([0, 0, 1, 2])
        finite_difference_check(lambda x: F.gather_rows(x, indices), x0)
        finite_difference_check(lambda x: F.segment_sum(x, segments, 3), x0)
        finite_difference_check(lambda x: F.segment_mean(x, segments, 3), x0)
        finite_difference_check(lambda x: F.segment_max(x, segments, 3), x0)

    def test_losses(self, x0):
        target = Tensor(np.random.default_rng(7).standard_normal((4, 5)))
        finite_difference_check(lambda x: F.mse_loss(x, target), x0)
        finite_difference_check(
            lambda x: F.gaussian_nll_loss(x, F.softplus(x), target), x0, atol=1e-5)

    def test_matmul_vector_cases(self):
        rng = np.random.default_rng(8)
        matrix = rng.standard_normal((4, 3))
        vector = rng.standard_normal(4)
        finite_difference_check(lambda x: F.matmul(Tensor(vector), x), matrix)
        finite_difference_check(lambda x: F.matmul(x, Tensor(matrix)), vector)


class TestDropout:
    def test_eval_mode_is_identity(self, x0):
        out = F.dropout(Tensor(x0), 0.5, training=False)
        np.testing.assert_allclose(out.data, x0)

    def test_training_mode_preserves_expectation(self):
        rng = np.random.default_rng(0)
        data = np.ones((2000,))
        out = F.dropout(Tensor(data), 0.3, training=True, rng=rng)
        assert out.data.mean() == pytest.approx(1.0, abs=0.08)

    def test_invalid_probability(self, x0):
        with pytest.raises(AutodiffError):
            F.dropout(Tensor(x0), 1.0, training=True)

    def test_gradient_masks_match_forward(self):
        rng = np.random.default_rng(1)
        x = Tensor(np.ones(100), requires_grad=True)
        out = F.dropout(x, 0.5, training=True, rng=rng)
        F.sum(out).backward()
        np.testing.assert_allclose((x.grad == 0.0), (out.data == 0.0))


class TestSegmentEdgeCases:
    def test_segment_ids_length_mismatch(self, x0):
        with pytest.raises(AutodiffError):
            F.segment_sum(Tensor(x0), np.array([0, 1]), 2)

    def test_empty_segment_yields_zero(self):
        values = Tensor(np.array([[1.0], [2.0]]))
        out = F.segment_mean(values, np.array([0, 0]), 3)
        np.testing.assert_allclose(out.data, [[1.5], [0.0], [0.0]])
        out_max = F.segment_max(values, np.array([0, 0]), 3)
        np.testing.assert_allclose(out_max.data, [[2.0], [0.0], [0.0]])

    @pytest.mark.parametrize("reduction", [F.segment_sum, F.segment_mean,
                                           F.segment_max])
    @pytest.mark.parametrize("ids", [[0, -1, 1], [0, 2, 1], [5, 0, 0]])
    def test_segment_ids_outside_the_segments_rejected(self, reduction, ids):
        values = Tensor(np.arange(6.0).reshape(3, 2))
        with pytest.raises(AutodiffError, match=r"\[0, 2\)"):
            reduction(values, np.array(ids), 2)

    @pytest.mark.parametrize("indices", [[0, -1], [3], [-3, 0]])
    def test_gather_indices_outside_the_rows_rejected(self, indices):
        with pytest.raises(AutodiffError, match=r"\[0, 3\)"):
            F.gather_rows(Tensor(np.ones((3, 2))), np.array(indices))

    def test_empty_ids_accepted(self):
        out = F.segment_sum(Tensor(np.ones((0, 2))), np.array([], dtype=int), 2)
        np.testing.assert_array_equal(out.data, np.zeros((2, 2)))
        assert F.gather_rows(Tensor(np.ones((3, 2))), []).shape == (0, 2)

    def test_concat_empty_list(self):
        with pytest.raises(AutodiffError):
            F.concat([], axis=0)


@settings(max_examples=25, deadline=None)
@given(rows=st.integers(min_value=1, max_value=12),
       cols=st.integers(min_value=1, max_value=6),
       segments=st.integers(min_value=1, max_value=5))
def test_segment_sum_matches_dense_property(rows, cols, segments):
    """Property: segment_sum equals a dense one-hot matmul."""
    rng = np.random.default_rng(rows * 31 + cols)
    values = rng.standard_normal((rows, cols))
    ids = rng.integers(0, segments, size=rows)
    result = F.segment_sum(Tensor(values), ids, segments).data
    expected = np.zeros((segments, cols))
    for row, segment in enumerate(ids):
        expected[segment] += values[row]
    np.testing.assert_allclose(result, expected, atol=1e-12)


@settings(max_examples=25, deadline=None)
@given(shape=st.tuples(st.integers(1, 4), st.integers(1, 4)))
def test_add_broadcast_gradient_shape_property(shape):
    """Property: gradients always match the operand shapes under broadcasting."""
    rng = np.random.default_rng(shape[0] * 7 + shape[1])
    a = Tensor(rng.standard_normal(shape), requires_grad=True)
    b = Tensor(rng.standard_normal((1, shape[1])), requires_grad=True)
    F.sum(F.add(a, b)).backward()
    assert a.grad.shape == a.shape
    assert b.grad.shape == b.shape


@settings(max_examples=300, deadline=None)
@given(shape=st.sampled_from([(1, 16), (1, 32), (3, 5), (64, 16), (514, 32),
                              (2, 5, 8)]),
       exponent=st.sampled_from([-150, -8, 0, 8, 150]),
       special=st.sampled_from([None, np.nan, np.inf, -np.inf, "constant"]),
       fortran=st.booleans(),
       seed=st.integers(0, 2**16))
def test_layer_norm_one_pass_statistics_match_mean_var_bitwise(
        shape, exponent, special, fortran, seed):
    """Property: the one-pass row statistics of ``LayerNorm`` reproduce the
    ``ndarray.mean`` / ``ndarray.var`` operation byte for byte, forward and
    backward to every input, whatever the magnitude, the non-finite entries
    or the memory order."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal(shape) * 10.0 ** exponent
    if special == "constant":
        a[..., :] = a[..., :1]
    elif special is not None:
        a.flat[rng.integers(a.size)] = special
    if fortran:
        a = np.asfortranarray(a)
    gamma = rng.standard_normal(shape[-1])
    beta = rng.standard_normal(shape[-1])
    grad = rng.standard_normal(shape)
    new, old = F.LayerNorm(1e-5), MeanVarLayerNorm(1e-5)
    with np.errstate(all="ignore"):
        outputs = [(new.forward(a, gamma, beta), old.forward(a, gamma, beta))]
        outputs += [(new.backward(grad, index), old.backward(grad, index))
                    for index in range(3)]
    for got, expected in outputs:
        assert got.shape == expected.shape
        assert got.tobytes() == expected.tobytes()
