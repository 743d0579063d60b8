"""Tests for the operation-tape autodiff engine.

Covers the engine-owned cross-cutting concerns (buffer release and
``retain_graph``, thread-scoped ``no_grad``, tape pruning, in-place gradient
accumulation) and the bit-exactness contract against the seed closure
implementation preserved in ``tests/oracles/closure_reference.py``: every
operation's gradients, and a multi-step Adam training trajectory of the
mirror GNN surrogate, must be *identical* -- not merely close.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.exceptions import AutodiffError
from repro.nn import autograd
from oracles import closure_reference as C
from repro.nn import functional as F
from repro.nn.autograd import Operation, apply, is_grad_enabled
from repro.nn.optim import Adam
from repro.nn.tensor import Tensor, no_grad


class TestBufferRelease:
    def test_second_backward_raises_typed_error(self):
        x = Tensor(np.arange(3.0), requires_grad=True)
        loss = F.sum(F.mul(x, x))
        loss.backward()
        with pytest.raises(AutodiffError, match="released"):
            loss.backward()

    def test_retain_graph_allows_second_pass(self):
        x = Tensor(np.arange(3.0), requires_grad=True)
        loss = F.sum(F.mul(x, x))
        loss.backward(retain_graph=True)
        first = x.grad.copy()
        loss.backward(retain_graph=True)
        np.testing.assert_array_equal(x.grad, 2.0 * first)

    def test_retain_then_release(self):
        x = Tensor(np.arange(3.0), requires_grad=True)
        loss = F.sum(F.tanh(x))
        loss.backward(retain_graph=True)
        loss.backward()  # final pass releases
        with pytest.raises(AutodiffError, match="retain_graph"):
            loss.backward()

    def test_release_drops_saved_activations(self):
        x = Tensor(np.arange(1.0, 4.0), requires_grad=True)
        out = F.sigmoid(x)
        op = out._op
        assert hasattr(op, "out")
        F.sum(out).backward()
        assert not hasattr(op, "out")
        assert op._released
        assert op.inputs == ()

    def test_partial_backward_releases_only_visited_nodes(self):
        x = Tensor(np.arange(3.0), requires_grad=True)
        hidden = F.mul(x, x)
        left = F.sum(hidden)
        right = F.sum(F.relu(hidden))
        left.backward()
        # ``right`` shares the released ``hidden`` subgraph.
        with pytest.raises(AutodiffError):
            right.backward()


class TestNoGradThreadSafety:
    def test_no_grad_is_scoped_per_thread(self):
        """One thread inside ``no_grad`` must not disable another's tape."""
        inside_no_grad = threading.Barrier(2, timeout=10.0)
        done_recording = threading.Barrier(2, timeout=10.0)
        observed = {}

        def inference_thread():
            with no_grad():
                observed["inference_enabled"] = is_grad_enabled()
                inside_no_grad.wait()
                done_recording.wait()

        def training_thread():
            inside_no_grad.wait()  # the other thread is inside no_grad now
            x = Tensor(np.ones(2), requires_grad=True)
            out = F.mul(x, x)
            observed["training_enabled"] = is_grad_enabled()
            observed["recorded"] = out._op is not None
            done_recording.wait()
            F.sum(out).backward()
            observed["grad"] = x.grad

        threads = [threading.Thread(target=inference_thread),
                   threading.Thread(target=training_thread)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10.0)
        assert observed["inference_enabled"] is False
        assert observed["training_enabled"] is True
        assert observed["recorded"] is True
        np.testing.assert_array_equal(observed["grad"], 2.0 * np.ones(2))

    def test_no_grad_nests_and_restores(self):
        assert is_grad_enabled()
        with no_grad():
            assert not is_grad_enabled()
            with no_grad():
                assert not is_grad_enabled()
            assert not is_grad_enabled()
        assert is_grad_enabled()


class TestTapePruning:
    def test_constant_subgraphs_are_not_recorded(self):
        a = Tensor(np.ones(3))
        b = Tensor(np.ones(3))
        out = F.add(F.mul(a, b), a)
        assert out._op is None
        assert out._parents == ()

    def test_mixed_graph_records_only_connected_nodes(self):
        x = Tensor(np.ones(3), requires_grad=True)
        const = F.mul(Tensor(np.ones(3)), Tensor(np.ones(3)))
        assert const._op is None
        out = F.add(x, const)
        assert out._op is not None
        F.sum(out).backward()
        np.testing.assert_array_equal(x.grad, np.ones(3))

    def test_no_grad_blocks_recording(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with no_grad():
            out = F.mul(x, x)
        assert out._op is None
        F.sum(out).backward()  # no-op: nothing was recorded
        assert x.grad is None


class TestAccumulationStats:
    def test_fan_in_allocates_once_then_accumulates_in_place(self):
        autograd.reset_backward_stats()
        x = Tensor(np.ones(4), requires_grad=True)
        # x receives four gradient contributions (mul uses it twice, plus
        # tanh and exp): the first is stored as-is, the second allocates the
        # single owned buffer, the remaining two accumulate in place.
        loss = F.sum(F.add(F.add(F.mul(x, x), F.tanh(x)), F.exp(x)))
        loss.backward()
        stats = autograd.backward_stats()
        assert stats["buffer_allocations"] == 1
        assert stats["inplace_accumulations"] == 2
        assert stats["leaf_donations"] >= 1

    def test_linear_chain_allocates_nothing(self):
        autograd.reset_backward_stats()
        x = Tensor(np.ones(4), requires_grad=True)
        F.sum(F.tanh(F.exp(x))).backward()
        stats = autograd.backward_stats()
        assert stats["buffer_allocations"] == 0
        assert stats["inplace_accumulations"] == 0


class TestOperationProtocol:
    def test_custom_operation_via_apply(self):
        class Square(Operation):
            def forward(self, a):
                self.a = a
                return a * a

            def backward(self, grad, index):
                return 2.0 * grad * self.a

        x = Tensor(np.arange(3.0), requires_grad=True)
        out = apply(Square(), x)
        np.testing.assert_array_equal(out.data, x.data ** 2)
        F.sum(out).backward()
        np.testing.assert_array_equal(x.grad, 2.0 * x.data)

    def test_base_class_is_abstract(self):
        op = Operation()
        with pytest.raises(NotImplementedError):
            op.forward(np.ones(1))
        with pytest.raises(NotImplementedError):
            op.backward(np.ones(1), 0)


# ---------------------------------------------------------------------------
# Bit-exact equivalence against the seed closure implementation
# ---------------------------------------------------------------------------

def _rng():
    return np.random.default_rng(7)


def _segment_ids():
    return np.array([0, 0, 1, 2, 2, 2], dtype=np.int64)


#: (name, op(ops, *tensors), input arrays) -- every case is run under both
#: engines and all gradients compared bitwise.
EQUIVALENCE_CASES = [
    ("add", lambda ops, a, b: ops.add(a, b),
     lambda r: (r.standard_normal((3, 4)), r.standard_normal((3, 4)))),
    ("add_broadcast", lambda ops, a, b: ops.add(a, b),
     lambda r: (r.standard_normal((3, 4)), r.standard_normal(4))),
    ("sub_broadcast", lambda ops, a, b: ops.sub(a, b),
     lambda r: (r.standard_normal((2, 3, 4)), r.standard_normal((1, 4)))),
    ("mul", lambda ops, a, b: ops.mul(a, b),
     lambda r: (r.standard_normal((3, 4)), r.standard_normal((3, 1)))),
    ("div", lambda ops, a, b: ops.div(a, b),
     lambda r: (r.standard_normal((3, 4)), r.standard_normal(4) + 3.0)),
    ("neg", lambda ops, a: ops.neg(a), lambda r: (r.standard_normal(5),)),
    ("pow_scalar", lambda ops, a: ops.pow_scalar(a, 3.0),
     lambda r: (r.standard_normal(5),)),
    ("matmul_22", lambda ops, a, b: ops.matmul(a, b),
     lambda r: (r.standard_normal((3, 4)), r.standard_normal((4, 2)))),
    ("matmul_12", lambda ops, a, b: ops.matmul(a, b),
     lambda r: (r.standard_normal(4), r.standard_normal((4, 2)))),
    ("matmul_21", lambda ops, a, b: ops.matmul(a, b),
     lambda r: (r.standard_normal((3, 4)), r.standard_normal(4))),
    ("matmul_11", lambda ops, a, b: ops.matmul(a, b),
     lambda r: (r.standard_normal(4), r.standard_normal(4))),
    ("sum_axis", lambda ops, a: ops.sum(a, axis=1),
     lambda r: (r.standard_normal((3, 4)),)),
    ("mean_keepdims", lambda ops, a: ops.mean(a, axis=0, keepdims=True),
     lambda r: (r.standard_normal((3, 4)),)),
    ("reshape", lambda ops, a: ops.reshape(a, (4, 3)),
     lambda r: (r.standard_normal((3, 4)),)),
    ("concat", lambda ops, a, b, c: ops.concat([a, b, c], axis=-1),
     lambda r: (r.standard_normal((3, 2)), r.standard_normal((3, 4)),
                r.standard_normal((3, 1)))),
    ("stack", lambda ops, a, b: ops.stack([a, b], axis=0),
     lambda r: (r.standard_normal((3, 2)), r.standard_normal((3, 2)))),
    ("relu", lambda ops, a: ops.relu(a), lambda r: (r.standard_normal((3, 4)),)),
    ("leaky_relu", lambda ops, a: ops.leaky_relu(a, 0.1),
     lambda r: (r.standard_normal((3, 4)),)),
    ("sigmoid", lambda ops, a: ops.sigmoid(a), lambda r: (r.standard_normal(6),)),
    ("tanh", lambda ops, a: ops.tanh(a), lambda r: (r.standard_normal(6),)),
    ("exp", lambda ops, a: ops.exp(a), lambda r: (r.standard_normal(6),)),
    ("log", lambda ops, a: ops.log(a), lambda r: (r.random(6) + 0.5,)),
    ("softplus", lambda ops, a: ops.softplus(a),
     lambda r: (r.standard_normal(6),)),
    ("layer_norm", lambda ops, a, g, b: ops.layer_norm(a, g, b),
     lambda r: (r.standard_normal((5, 4)), r.standard_normal(4) + 1.0,
                r.standard_normal(4))),
    ("gather_rows",
     lambda ops, a: ops.gather_rows(a, np.array([0, 2, 2, 1], dtype=np.int64)),
     lambda r: (r.standard_normal((3, 4)),)),
    ("segment_sum", lambda ops, a: ops.segment_sum(a, _segment_ids(), 4),
     lambda r: (r.standard_normal((6, 3)),)),
    ("segment_mean", lambda ops, a: ops.segment_mean(a, _segment_ids(), 4),
     lambda r: (r.standard_normal((6, 3)),)),
    ("segment_max", lambda ops, a: ops.segment_max(a, _segment_ids(), 4),
     lambda r: (r.standard_normal((6, 3)),)),
    ("mse_loss", lambda ops, a, b: ops.mse_loss(a, b),
     lambda r: (r.standard_normal(6), r.standard_normal(6))),
    ("gaussian_nll", lambda ops, m, s, t: ops.gaussian_nll_loss(m, s, t),
     lambda r: (r.standard_normal(6), r.random(6) + 0.5,
                r.standard_normal(6))),
]


@pytest.mark.parametrize("name,op,make_inputs", EQUIVALENCE_CASES,
                         ids=[case[0] for case in EQUIVALENCE_CASES])
class TestBitwiseEquivalence:
    def test_forward_and_gradients_identical(self, name, op, make_inputs):
        arrays = make_inputs(_rng())
        tape_inputs = [Tensor(a.copy(), requires_grad=True) for a in arrays]
        closure_inputs = [C.ClosureTensor(a.copy(), requires_grad=True)
                          for a in arrays]
        tape_out = op(F, *tape_inputs)
        closure_out = op(C, *closure_inputs)
        np.testing.assert_array_equal(tape_out.data, closure_out.data)

        F.sum(tape_out).backward()
        C.sum(closure_out).backward()
        for tape_t, closure_t in zip(tape_inputs, closure_inputs):
            assert tape_t.grad is not None
            assert closure_t.grad is not None
            np.testing.assert_array_equal(tape_t.grad, closure_t.grad)


class TestDropoutEquivalence:
    def test_training_mask_identical_under_same_seed(self):
        arrays = _rng().standard_normal((5, 4))
        tape_in = Tensor(arrays.copy(), requires_grad=True)
        closure_in = C.ClosureTensor(arrays.copy(), requires_grad=True)
        tape_out = F.dropout(tape_in, 0.4, training=True,
                             rng=np.random.default_rng(11))
        closure_out = C.dropout(closure_in, 0.4, training=True,
                                rng=np.random.default_rng(11))
        np.testing.assert_array_equal(tape_out.data, closure_out.data)
        F.sum(tape_out).backward()
        C.sum(closure_out).backward()
        np.testing.assert_array_equal(tape_in.grad, closure_in.grad)

    def test_eval_mode_is_identity(self):
        x = Tensor(np.ones((2, 2)), requires_grad=True)
        out = F.dropout(x, 0.5, training=False)
        np.testing.assert_array_equal(out.data, x.data)
        F.sum(out).backward()
        np.testing.assert_array_equal(x.grad, np.ones((2, 2)))


class TestSurrogateTrajectoryEquivalence:
    """Seeded surrogate training must follow the identical parameter path."""

    def test_loss_and_gradients_bitwise_identical(self):
        problem = C.seeded_surrogate_problem(0)
        arrays = C.init_surrogate_parameters(0)
        tape_params = {k: Tensor(v.copy(), requires_grad=True)
                       for k, v in arrays.items()}
        closure_params = {k: C.ClosureTensor(v.copy(), requires_grad=True)
                          for k, v in arrays.items()}
        tape_loss = C.surrogate_loss_tensor(F, tape_params, problem)
        closure_loss = C.surrogate_loss_tensor(C, closure_params, problem)
        assert tape_loss.item() == closure_loss.item()
        autograd.reset_backward_stats()
        C.reset_allocation_counter()
        tape_loss.backward()
        closure_loss.backward()
        for name in arrays:
            assert tape_params[name].grad is not None, name
            np.testing.assert_array_equal(tape_params[name].grad,
                                          closure_params[name].grad,
                                          err_msg=name)
        # In-place accumulation: the same gradients from strictly fewer
        # gradient buffers than the closures' one-per-contribution.
        assert (autograd.backward_stats()["buffer_allocations"]
                < C.allocation_counter())

    def test_adam_trajectory_bitwise_identical(self):
        problem = C.seeded_surrogate_problem(3)
        arrays = C.init_surrogate_parameters(3)
        tape_params = {k: Tensor(v.copy(), requires_grad=True)
                       for k, v in arrays.items()}
        closure_params = {k: C.ClosureTensor(v.copy(), requires_grad=True)
                          for k, v in arrays.items()}
        tape_adam = Adam(list(tape_params.values()), lr=2e-3,
                         weight_decay=1e-2)
        closure_adam = Adam(list(closure_params.values()), lr=2e-3,
                            weight_decay=1e-2)
        for _ in range(5):
            tape_adam.zero_grad()
            closure_adam.zero_grad()
            tape_loss = C.surrogate_loss_tensor(F, tape_params, problem)
            closure_loss = C.surrogate_loss_tensor(C, closure_params, problem)
            assert tape_loss.item() == closure_loss.item()
            tape_loss.backward()
            closure_loss.backward()
            tape_adam.step()
            closure_adam.step()
        for name in arrays:
            np.testing.assert_array_equal(tape_params[name].data,
                                          closure_params[name].data,
                                          err_msg=name)
