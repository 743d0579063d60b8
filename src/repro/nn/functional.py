"""Differentiable operations on :class:`~repro.nn.tensor.Tensor`.

Every primitive is an :class:`~repro.nn.autograd.Operation` subclass: the
``forward`` method computes the output array eagerly (saving whatever the
backward pass needs as instance attributes) and ``backward(grad, index)``
returns the gradient with respect to one input.  The module-level functions
are thin wrappers that route through the single
:func:`repro.nn.autograd.apply` entry point, which records the node on the
tape; the graph engine owns the cross-cutting concerns (un-broadcasting,
gradient accumulation, topological walk, buffer release), so operations with
broadcasting semantics simply declare ``broadcastable = True`` and return raw
gradients.

Beyond the usual dense operations, the module provides the *segment*
reductions (:func:`segment_sum`, :func:`segment_mean`, :func:`segment_max`)
used by the message-passing layers to aggregate edge messages per target node
and node embeddings per graph.

Adding a new operation::

    class Square(Operation):
        def forward(self, a):
            self.a = a
            return a * a

        def backward(self, grad, index):
            return 2.0 * grad * self.a

    def square(a: Tensor) -> Tensor:
        return apply(Square(), a)

then gate it with :func:`repro.nn.gradcheck.gradcheck` (see
``tests/test_nn_gradcheck.py``).
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.exceptions import AutodiffError
from repro.nn.autograd import Operation, apply, unbroadcast
from repro.nn.tensor import Tensor, _ensure_tensor

__all__ = [
    "add", "sub", "mul", "div", "neg", "matmul", "pow_scalar",
    "sum", "mean", "reshape", "concat", "stack",
    "relu", "leaky_relu", "sigmoid", "tanh", "exp", "log", "softplus",
    "dropout", "layer_norm",
    "gather_rows", "segment_sum", "segment_mean", "segment_max",
    "mse_loss", "gaussian_nll_loss",
]

#: Backwards-compatible alias; the engine owns the implementation now.
_unbroadcast = unbroadcast


# --------------------------------------------------------------------------
# Arithmetic
# --------------------------------------------------------------------------

class Add(Operation):
    broadcastable = True

    def forward(self, a, b):
        return a + b

    def backward(self, grad, index):
        return grad


class Sub(Operation):
    broadcastable = True

    def forward(self, a, b):
        return a - b

    def backward(self, grad, index):
        return grad if index == 0 else -grad


class Mul(Operation):
    broadcastable = True

    def forward(self, a, b):
        self.a, self.b = a, b
        return a * b

    def backward(self, grad, index):
        return grad * self.b if index == 0 else grad * self.a


class Div(Operation):
    broadcastable = True

    def forward(self, a, b):
        self.a, self.b = a, b
        return a / b

    def backward(self, grad, index):
        if index == 0:
            return grad / self.b
        return -grad * self.a / (self.b ** 2)


class Neg(Operation):
    def forward(self, a):
        return -a

    def backward(self, grad, index):
        return -grad


class PowScalar(Operation):
    def __init__(self, exponent: float) -> None:
        self.exponent = exponent

    def forward(self, a):
        self.a = a
        return a ** self.exponent

    def backward(self, grad, index):
        return grad * self.exponent * self.a ** (self.exponent - 1.0)


class MatMul(Operation):
    """Matrix multiplication (2-D x 2-D, or 1-D promoted on either side)."""

    def forward(self, a, b):
        self.a, self.b = a, b
        return a @ b

    def backward(self, grad, index):
        a, b = self.a, self.b
        if a.ndim == 1 and b.ndim == 2:
            return grad @ b.T if index == 0 else np.outer(a, grad)
        if a.ndim == 2 and b.ndim == 1:
            return np.outer(grad, b) if index == 0 else a.T @ grad
        if a.ndim == 1 and b.ndim == 1:
            return grad * b if index == 0 else grad * a
        return grad @ b.T if index == 0 else a.T @ grad


def add(a: Tensor, b: Tensor) -> Tensor:
    """Element-wise addition with broadcasting."""
    return apply(Add(), a, b)


def sub(a: Tensor, b: Tensor) -> Tensor:
    """Element-wise subtraction with broadcasting."""
    return apply(Sub(), a, b)


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Element-wise multiplication with broadcasting."""
    return apply(Mul(), a, b)


def div(a: Tensor, b: Tensor) -> Tensor:
    """Element-wise division with broadcasting."""
    return apply(Div(), a, b)


def neg(a: Tensor) -> Tensor:
    """Element-wise negation."""
    return apply(Neg(), a)


def pow_scalar(a: Tensor, exponent: float) -> Tensor:
    """Element-wise power with a constant exponent."""
    return apply(PowScalar(exponent), a)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix multiplication (2-D x 2-D, or 1-D promoted on either side)."""
    return apply(MatMul(), a, b)


# --------------------------------------------------------------------------
# Reductions and shape manipulation
# --------------------------------------------------------------------------

class Sum(Operation):
    def __init__(self, axis, keepdims: bool) -> None:
        self.axis = axis
        self.keepdims = keepdims

    def forward(self, a):
        self.in_shape = a.shape
        return a.sum(axis=self.axis, keepdims=self.keepdims)

    def backward(self, grad, index):
        if self.axis is None:
            return np.broadcast_to(grad, self.in_shape).copy()
        if not self.keepdims:
            grad = np.expand_dims(grad, axis=self.axis)
        return np.broadcast_to(grad, self.in_shape).copy()


class Mean(Operation):
    def __init__(self, axis, keepdims: bool) -> None:
        self.axis = axis
        self.keepdims = keepdims

    def forward(self, a):
        self.in_shape = a.shape
        self.count = a.size if self.axis is None else a.shape[self.axis]
        return a.mean(axis=self.axis, keepdims=self.keepdims)

    def backward(self, grad, index):
        grad = grad / self.count
        if self.axis is None:
            return np.broadcast_to(grad, self.in_shape).copy()
        if not self.keepdims:
            grad = np.expand_dims(grad, axis=self.axis)
        return np.broadcast_to(grad, self.in_shape).copy()


class Reshape(Operation):
    def __init__(self, shape: tuple[int, ...]) -> None:
        self.shape = shape

    def forward(self, a):
        self.in_shape = a.shape
        return a.reshape(self.shape)

    def backward(self, grad, index):
        return grad.reshape(self.in_shape)


class Concat(Operation):
    def __init__(self, axis: int) -> None:
        self.axis = axis

    def forward(self, *arrays):
        self.offsets = np.cumsum([0] + [arr.shape[self.axis] for arr in arrays])
        return np.concatenate(arrays, axis=self.axis)

    def backward(self, grad, index):
        selector = [slice(None)] * grad.ndim
        selector[self.axis] = slice(self.offsets[index], self.offsets[index + 1])
        return grad[tuple(selector)]


class Stack(Operation):
    def __init__(self, axis: int) -> None:
        self.axis = axis

    def forward(self, *arrays):
        return np.stack(arrays, axis=self.axis)

    def backward(self, grad, index):
        return np.take(grad, index, axis=self.axis)


def sum(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:  # noqa: A001
    """Sum reduction."""
    return apply(Sum(axis, keepdims), a)


def mean(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    """Mean reduction."""
    return apply(Mean(axis, keepdims), a)


def reshape(a: Tensor, shape: tuple[int, ...]) -> Tensor:
    """Reshape preserving the element order."""
    return apply(Reshape(shape), a)


def concat(tensors: list[Tensor], axis: int = -1) -> Tensor:
    """Concatenate tensors along ``axis``."""
    if not tensors:
        raise AutodiffError("concat() requires at least one tensor")
    return apply(Concat(axis), *tensors)


def stack(tensors: list[Tensor], axis: int = 0) -> Tensor:
    """Stack tensors along a new axis."""
    if not tensors:
        raise AutodiffError("stack() requires at least one tensor")
    return apply(Stack(axis), *tensors)


# --------------------------------------------------------------------------
# Non-linearities
# --------------------------------------------------------------------------

class ReLU(Operation):
    def forward(self, a):
        self.mask = a > 0
        return a * self.mask

    def backward(self, grad, index):
        return grad * self.mask


class LeakyReLU(Operation):
    def __init__(self, negative_slope: float) -> None:
        self.negative_slope = negative_slope

    def forward(self, a):
        self.mask = a > 0
        return np.where(self.mask, a, self.negative_slope * a)

    def backward(self, grad, index):
        return grad * np.where(self.mask, 1.0, self.negative_slope)


class Sigmoid(Operation):
    def forward(self, a):
        self.out = 1.0 / (1.0 + np.exp(-a))
        return self.out

    def backward(self, grad, index):
        return grad * self.out * (1.0 - self.out)


class Tanh(Operation):
    def forward(self, a):
        self.out = np.tanh(a)
        return self.out

    def backward(self, grad, index):
        return grad * (1.0 - self.out ** 2)


class Exp(Operation):
    def forward(self, a):
        self.out = np.exp(a)
        return self.out

    def backward(self, grad, index):
        return grad * self.out


class Log(Operation):
    def forward(self, a):
        self.a = a
        return np.log(a)

    def backward(self, grad, index):
        return grad / self.a


class Softplus(Operation):
    """Numerically stable softplus ``ln(1 + e^x)`` (the sigma head of Eq. 1)."""

    def forward(self, a):
        self.sig = 1.0 / (1.0 + np.exp(-a))
        return np.logaddexp(0.0, a)

    def backward(self, grad, index):
        return grad * self.sig


def relu(a: Tensor) -> Tensor:
    """Rectified linear unit."""
    return apply(ReLU(), a)


def leaky_relu(a: Tensor, negative_slope: float = 0.2) -> Tensor:
    """Leaky ReLU (used inside the GATv2-style attention layer)."""
    return apply(LeakyReLU(negative_slope), a)


def sigmoid(a: Tensor) -> Tensor:
    """Logistic sigmoid."""
    return apply(Sigmoid(), a)


def tanh(a: Tensor) -> Tensor:
    """Hyperbolic tangent."""
    return apply(Tanh(), a)


def exp(a: Tensor) -> Tensor:
    """Element-wise exponential."""
    return apply(Exp(), a)


def log(a: Tensor) -> Tensor:
    """Element-wise natural logarithm."""
    return apply(Log(), a)


def softplus(a: Tensor) -> Tensor:
    """Numerically stable softplus ``ln(1 + e^x)`` (the sigma head of Eq. 1)."""
    return apply(Softplus(), a)


# --------------------------------------------------------------------------
# Regularisation and normalisation
# --------------------------------------------------------------------------

class Identity(Operation):
    """Copying identity (the evaluation-mode path of dropout)."""

    def forward(self, a):
        return a.copy()

    def backward(self, grad, index):
        return grad


class DropoutOp(Operation):
    def __init__(self, mask: np.ndarray) -> None:
        self.mask = mask

    def forward(self, a):
        return a * self.mask

    def backward(self, grad, index):
        return grad * self.mask


class LayerNorm(Operation):
    # gamma/beta gradients come back in the row-broadcast shape.
    broadcastable = True

    def __init__(self, eps: float) -> None:
        self.eps = eps

    # The row statistics are numpy's ``mean`` / ``var`` spelled out (sum,
    # divide by the count, squared deviations from that mean), so the values
    # are theirs bit for bit, but each row's mean is taken once and the
    # centred rows are reused for the output.
    def forward(self, a, gamma, beta):
        n = a.shape[-1]
        centred = a - np.add.reduce(a, -1, keepdims=True) / n
        var = np.add.reduce(centred * centred, -1, keepdims=True) / n
        self.inv_std = 1.0 / np.sqrt(var + self.eps)
        self.normalised = centred * self.inv_std
        self.gamma = gamma
        return gamma * self.normalised + beta

    def backward(self, grad, index):
        if index == 1:  # gamma (engine un-broadcasts to its shape)
            return grad * self.normalised
        if index == 2:  # beta
            return grad
        grad_normalised = grad * self.gamma
        n = grad_normalised.shape[-1]
        # Standard layer-norm backward (per-row statistics).
        return (grad_normalised
                - np.add.reduce(grad_normalised, -1, keepdims=True) / n
                - self.normalised * (np.add.reduce(
                    grad_normalised * self.normalised, -1, keepdims=True) / n)
                ) * self.inv_std


def dropout(a: Tensor, p: float, *, training: bool,
            rng: np.random.Generator | None = None) -> Tensor:
    """Inverted dropout.

    During training each element is zeroed with probability ``p`` and the
    survivors are scaled by ``1 / (1 - p)``; at evaluation time the input is
    returned unchanged.
    """
    a = _ensure_tensor(a)
    if not 0.0 <= p < 1.0:
        raise AutodiffError(f"dropout probability must lie in [0, 1), got {p}")
    if not training or p == 0.0:
        return apply(Identity(), a)
    generator = rng if rng is not None else np.random.default_rng()
    mask = (generator.random(a.data.shape) >= p) / (1.0 - p)
    return apply(DropoutOp(mask), a)


def layer_norm(a: Tensor, gamma: Tensor, beta: Tensor, *, eps: float = 1e-5) -> Tensor:
    """Layer normalisation over the last dimension.

    ``y = gamma * (x - mean) / sqrt(var + eps) + beta`` with the statistics
    computed per row (per node / per sample), as used in both the message
    passing layers and the fully connected stacks of the surrogate.
    """
    return apply(LayerNorm(eps), a, gamma, beta)


# --------------------------------------------------------------------------
# Indexing and segment reductions (message passing primitives)
# --------------------------------------------------------------------------

def _checked_ids(ids, count: int, rows: int | None, what: str) -> np.ndarray:
    """``ids`` as int64, each in ``[0, count)`` and, when ``rows`` is given,
    one per row: a negative id would wrap to the end, so it is an error."""
    ids = np.asarray(ids, dtype=np.int64)
    if rows is not None and ids.shape[0] != rows:
        raise AutodiffError(
            f"{what} length {ids.shape[0]} does not match rows {rows}")
    if ids.size and (ids.min() < 0 or ids.max() >= count):
        raise AutodiffError(
            f"{what} must lie in [0, {count}), got values in "
            f"[{ids.min()}, {ids.max()}]")
    return ids


def _scatter_add(values: np.ndarray, ids: np.ndarray, count: int) -> np.ndarray:
    """Rows of ``values`` summed into ``count`` buckets by ``ids``.

    The sum is a product with a ``(count x rows)`` CSR incidence of ones
    whose row ``s`` lists, in row order, the rows with id ``s`` (a stable
    ``argsort`` of the ids; ``indptr`` from a ``bincount``).  scipy's CSR
    product adds each bucket's rows in that order from 0.0, as the
    unbuffered ``np.add.at`` scatter does, and ``1.0 * x`` is exact, so the
    result is bit-identical to ``np.add.at`` (``np.add.reduceat`` is not).
    """
    rows = values.shape[0]
    indptr = np.zeros(count + 1, dtype=np.int64)
    np.cumsum(np.bincount(ids, minlength=count), out=indptr[1:])
    incidence = sp.csr_matrix(
        (np.ones(rows), np.argsort(ids, kind="stable"), indptr),
        shape=(count, rows))
    width = int(np.prod(values.shape[1:]))
    summed = incidence @ values.reshape(rows, width)
    return summed.reshape((count,) + values.shape[1:])


class GatherRows(Operation):
    def __init__(self, indices: np.ndarray) -> None:
        self.indices = indices

    def forward(self, a):
        self.in_shape = a.shape
        return a[self.indices]

    def backward(self, grad, index):
        return _scatter_add(grad, self.indices, self.in_shape[0])


class SegmentSum(Operation):
    def __init__(self, segment_ids: np.ndarray, num_segments: int) -> None:
        self.segment_ids = segment_ids
        self.num_segments = num_segments

    def forward(self, a):
        return _scatter_add(a, self.segment_ids, self.num_segments)

    def backward(self, grad, index):
        return grad[self.segment_ids]


class SegmentMax(Operation):
    def __init__(self, segment_ids: np.ndarray, num_segments: int) -> None:
        self.segment_ids = segment_ids
        self.num_segments = num_segments

    def forward(self, a):
        feature_shape = a.shape[1:]
        out = np.full((self.num_segments,) + feature_shape, -np.inf,
                      dtype=np.float64)
        np.maximum.at(out, self.segment_ids, a)
        empty = ~np.isin(np.arange(self.num_segments), self.segment_ids)
        if empty.any():
            out[empty] = 0.0
        # Winner mask: an element wins if it equals the segment maximum; ties
        # share the gradient equally.
        self.winners = (a == out[self.segment_ids]).astype(np.float64)
        winner_counts = _scatter_add(self.winners, self.segment_ids,
                                     self.num_segments)
        self.winner_counts = np.maximum(winner_counts, 1.0)
        return out

    def backward(self, grad, index):
        return self.winners * (grad / self.winner_counts)[self.segment_ids]


def gather_rows(a: Tensor, indices: np.ndarray) -> Tensor:
    """Select rows ``a[indices]`` (differentiable scatter-add in the backward).

    Every index must lie in ``[0, rows)``: negative indices do not wrap.
    """
    a = _ensure_tensor(a)
    indices = _checked_ids(indices, a.data.shape[0], None, "indices")
    return apply(GatherRows(indices), a)


def segment_sum(a: Tensor, segment_ids: np.ndarray, num_segments: int) -> Tensor:
    """Sum rows of ``a`` into ``num_segments`` buckets given by ``segment_ids``.

    Every id must lie in ``[0, num_segments)``.
    """
    a = _ensure_tensor(a)
    segment_ids = _checked_ids(segment_ids, num_segments, a.data.shape[0],
                               "segment_ids")
    return apply(SegmentSum(segment_ids, num_segments), a)


def segment_mean(a: Tensor, segment_ids: np.ndarray, num_segments: int) -> Tensor:
    """Mean of rows per segment (empty segments yield zeros)."""
    a = _ensure_tensor(a)
    segment_ids = _checked_ids(segment_ids, num_segments, a.data.shape[0],
                               "segment_ids")
    counts = np.bincount(segment_ids, minlength=num_segments).astype(np.float64)
    safe_counts = np.maximum(counts, 1.0)
    summed = apply(SegmentSum(segment_ids, num_segments), a)
    scale = Tensor((1.0 / safe_counts)[:, None] if a.data.ndim > 1 else 1.0 / safe_counts)
    return mul(summed, scale)


def segment_max(a: Tensor, segment_ids: np.ndarray, num_segments: int) -> Tensor:
    """Maximum of rows per segment (empty segments yield zeros).

    The gradient flows only to the element that attained the maximum in each
    segment/feature pair, matching the convention of deep-learning frameworks.
    """
    a = _ensure_tensor(a)
    segment_ids = _checked_ids(segment_ids, num_segments, a.data.shape[0],
                               "segment_ids")
    return apply(SegmentMax(segment_ids, num_segments), a)


# --------------------------------------------------------------------------
# Losses
# --------------------------------------------------------------------------

def mse_loss(prediction: Tensor, target: Tensor) -> Tensor:
    """Mean squared error."""
    prediction = _ensure_tensor(prediction)
    target = _ensure_tensor(target)
    difference = sub(prediction, target)
    return mean(mul(difference, difference))


def gaussian_nll_loss(mu: Tensor, sigma: Tensor, target: Tensor, *,
                      eps: float = 1e-6) -> Tensor:
    """Gaussian negative log-likelihood (the alternative objective of Sec. 3.1).

    ``0.5 * (log(sigma^2) + (target - mu)^2 / sigma^2)`` averaged over the
    batch; ``eps`` guards against the numerical instability for tiny sigma the
    paper mentions as the reason for preferring the MSE objective.
    """
    mu = _ensure_tensor(mu)
    sigma = _ensure_tensor(sigma)
    target = _ensure_tensor(target)
    variance = add(mul(sigma, sigma), Tensor(eps))
    residual = sub(target, mu)
    quadratic = div(mul(residual, residual), variance)
    return mean(mul(add(log(variance), quadratic), Tensor(0.5)))
