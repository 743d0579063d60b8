"""Operation-tape reverse-mode autodiff engine.

The forward pass records one :class:`Operation` node per primitive (created
through the single :func:`apply` entry point); :func:`backward` walks the
recorded graph in reverse topological order and routes gradients to the
operation inputs.  The engine owns every cross-cutting concern the per-op
backward closures of the seed implementation each re-implemented by hand:

* **un-broadcasting** -- operations whose forward broadcasts their operands
  (:attr:`Operation.broadcastable`) return raw gradients and the engine
  reduces them back to the operand shapes with :func:`unbroadcast`;
* **gradient accumulation** -- when a tensor feeds several consumers the
  engine sums the incoming gradients, allocating one owned buffer per fan-in
  point and accumulating in place afterwards (the seed closures allocated a
  fresh array per contribution);
* **tape construction** -- nodes are only recorded while gradients are
  enabled (:func:`no_grad`) *and* at least one input is connected to a leaf
  that requires gradients, so constant subgraphs never pin memory;
* **buffer release** -- after a backward pass each visited operation drops
  its saved activations (:meth:`Operation.release`) instead of pinning the
  whole graph until the output tensor dies; a second backward through a
  released operation raises a typed :class:`~repro.exceptions.AutodiffError`
  unless the first pass was run with ``retain_graph=True``.

The gradient-enabled flag lives in a :class:`contextvars.ContextVar`, so
``no_grad`` is scoped per thread (and per asyncio task): inference running on
one solve-server worker thread cannot disable the tape of a training step on
another.
"""

from __future__ import annotations

import contextvars
from contextlib import contextmanager
from typing import Iterator

import numpy as np

from repro.exceptions import AutodiffError

__all__ = [
    "Operation",
    "apply",
    "backward",
    "toposort",
    "unbroadcast",
    "no_grad",
    "is_grad_enabled",
    "backward_stats",
    "reset_backward_stats",
]

#: Per-context (hence per-thread / per-task) tape switch.  Each thread starts
#: from the default ``True``; ``no_grad`` only mutates the caller's context.
_GRAD_ENABLED: contextvars.ContextVar[bool] = contextvars.ContextVar(
    "repro_nn_grad_enabled", default=True)

#: Tensor class registered by :mod:`repro.nn.tensor` (avoids a circular
#: import: tensor -> autograd at module level, autograd -> tensor at runtime).
_TENSOR_TYPE: type | None = None


def _register_tensor_type(cls: type) -> None:
    global _TENSOR_TYPE
    _TENSOR_TYPE = cls


@contextmanager
def no_grad() -> Iterator[None]:
    """Context manager disabling tape construction (inference mode).

    The switch is stored in a :class:`contextvars.ContextVar`, so disabling
    the tape in one thread does not affect operations recorded concurrently
    by other threads (the solve server runs surrogate inference on worker
    threads while training may be in flight elsewhere).
    """
    token = _GRAD_ENABLED.set(False)
    try:
        yield
    finally:
        _GRAD_ENABLED.reset(token)


def is_grad_enabled() -> bool:
    """Whether operations currently record the autodiff tape (this context)."""
    return _GRAD_ENABLED.get()


def unbroadcast(gradient: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce ``gradient`` so that it matches ``shape`` after broadcasting."""
    if gradient.shape == shape:
        return gradient
    # Sum over leading dimensions added by broadcasting.
    while gradient.ndim > len(shape):
        gradient = gradient.sum(axis=0)
    # Sum over axes that were of size 1 in the original operand.
    for axis, dim in enumerate(shape):
        if dim == 1 and gradient.shape[axis] != 1:
            gradient = gradient.sum(axis=axis, keepdims=True)
    return gradient.reshape(shape)


class Operation:
    """Base class of every differentiable primitive.

    A subclass implements

    * :meth:`forward`, computing the output array from the raw input arrays
      and saving whatever the backward pass needs as instance attributes, and
    * :meth:`backward`, returning the gradient with respect to input
      ``index`` given the upstream gradient of the output (or ``None`` when
      the input is not differentiable, e.g. integer indices).

    Instances are single use: :func:`apply` runs the forward pass, binds the
    input tensors to :attr:`inputs` and records the node on the output
    tensor.  Shape bookkeeping for broadcasting operands is *not* the
    subclass's job -- set :attr:`broadcastable` and the engine reduces the
    returned gradients to the operand shapes.
    """

    #: When True the engine un-broadcasts parent gradients to operand shapes.
    broadcastable = False
    #: Parent tensors, bound by :func:`apply` when the node is recorded.
    inputs: tuple = ()
    #: Set by :meth:`release` once the saved buffers have been dropped.
    _released = False

    def forward(self, *arrays: np.ndarray) -> np.ndarray:
        """Compute the output array (must be overridden)."""
        raise NotImplementedError

    def backward(self, grad: np.ndarray, index: int) -> np.ndarray | None:
        """Gradient of the output with respect to input ``index``."""
        raise NotImplementedError

    def release(self) -> None:
        """Drop saved activations and graph edges after a backward pass.

        Clearing ``inputs`` severs the tape upstream of this node, so the
        whole saved subgraph becomes collectable as soon as the caller drops
        the loss tensor -- the engine calls this after visiting a node unless
        ``retain_graph=True`` was requested.
        """
        state = self.__dict__
        state.clear()
        state["_released"] = True

    @property
    def name(self) -> str:
        """Operation name used in error messages."""
        return type(self).__name__


def apply(operation: Operation, *inputs) -> "np.ndarray":
    """Run ``operation`` forward and record it on the tape.

    This is the single entry point through which every function in
    :mod:`repro.nn.functional` creates graph nodes.  Inputs are coerced to
    tensors; the node is recorded only when gradients are enabled in the
    current context *and* at least one input is connected to the tape (it
    requires gradients itself or was produced by a recorded operation).
    """
    tensor_cls = _TENSOR_TYPE
    tensors = tuple(
        value if isinstance(value, tensor_cls) else tensor_cls(value)
        for value in inputs)
    out_data = operation.forward(*(t.data for t in tensors))
    result = tensor_cls(out_data)
    if _GRAD_ENABLED.get() and any(
            t.requires_grad or t._op is not None for t in tensors):
        operation.inputs = tensors
        result._op = operation
    return result


def toposort(root) -> list:
    """Tensors reachable from ``root`` in topological order (parents first).

    Iterative depth-first walk over the recorded operation nodes; mirrors the
    seed implementation's traversal so gradient accumulation order (and hence
    bit-exact results) is preserved.
    """
    order: list = []
    visited: set[int] = set()
    stack: list[tuple[object, bool]] = [(root, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        operation = node._op
        if operation is not None:
            for parent in operation.inputs:
                if id(parent) not in visited:
                    stack.append((parent, False))
    return order


class _BackwardStats:
    """Counters describing the most recent backward passes.

    ``buffer_allocations`` counts fresh gradient-buffer allocations made at
    fan-in points (a tensor consumed by several operations); once a buffer is
    owned, further contributions accumulate in place
    (``inplace_accumulations``).  ``leaf_donations`` counts owned buffers
    handed to ``Tensor.grad`` without the defensive copy the seed
    implementation always paid.  The counters are process-wide diagnostics
    for the equivalence suite, not synchronised across threads.
    """

    __slots__ = ("buffer_allocations", "inplace_accumulations", "leaf_donations")

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.buffer_allocations = 0
        self.inplace_accumulations = 0
        self.leaf_donations = 0

    def as_dict(self) -> dict[str, int]:
        return {"buffer_allocations": self.buffer_allocations,
                "inplace_accumulations": self.inplace_accumulations,
                "leaf_donations": self.leaf_donations}


_STATS = _BackwardStats()


def backward_stats() -> dict[str, int]:
    """Snapshot of the accumulation counters since the last reset."""
    return _STATS.as_dict()


def reset_backward_stats() -> None:
    """Zero the accumulation counters (used by tests)."""
    _STATS.reset()


def backward(root, gradient: np.ndarray | float | None = None, *,
             retain_graph: bool = False) -> None:
    """Backpropagate from ``root`` through the recorded operation graph.

    Parameters
    ----------
    root:
        Tensor to differentiate; gradients are accumulated into the ``grad``
        attribute of every reachable tensor with ``requires_grad=True``.
    gradient:
        Upstream gradient; defaults to 1 for scalar tensors (the usual loss
        case) and must be supplied explicitly otherwise.
    retain_graph:
        Keep the saved activations after the pass so that a second backward
        through the same graph is possible.  By default buffers are released
        as soon as each node has propagated its gradient, and a repeated
        backward raises :class:`~repro.exceptions.AutodiffError`.
    """
    data = root.data
    owned_seed = False
    if gradient is None:
        if data.size != 1:
            raise AutodiffError(
                "backward() without an explicit gradient requires a scalar "
                f"tensor, got shape {data.shape}")
        gradient = np.ones_like(data)
        owned_seed = True
    gradient = np.asarray(gradient, dtype=np.float64)
    if gradient.shape != data.shape:
        gradient = np.broadcast_to(gradient, data.shape).copy()
        owned_seed = True

    order = toposort(root)
    # id(tensor) -> [gradient buffer, engine owns the buffer].  Buffers start
    # un-owned (they may alias operation internals or views of the upstream
    # gradient); ownership is taken at the first fan-in accumulation.
    grad_map: dict[int, list] = {id(root): [gradient, owned_seed]}
    for node in reversed(order):
        entry = grad_map.pop(id(node), None)
        if entry is None:
            # Constant subgraph (pruned) or unreachable from the seed.
            continue
        node_grad, owned = entry
        if node.requires_grad:
            node.accumulate_grad(node_grad, _owned=owned)
            if owned:
                _STATS.leaf_donations += 1
        operation = node._op
        if operation is None:
            continue
        if operation._released:
            raise AutodiffError(
                f"cannot backpropagate through {operation.name}: its saved "
                "buffers were already released by a previous backward pass; "
                "call backward(retain_graph=True) on the first pass to keep "
                "them")
        for index, parent in enumerate(operation.inputs):
            if not (parent.requires_grad or parent._op is not None):
                continue  # nothing upstream needs this gradient
            parent_grad = operation.backward(node_grad, index)
            if parent_grad is None:
                continue
            parent_grad = np.asarray(parent_grad, dtype=np.float64)
            if operation.broadcastable:
                parent_grad = unbroadcast(parent_grad, parent.data.shape)
            existing = grad_map.get(id(parent))
            if existing is None:
                grad_map[id(parent)] = [parent_grad, False]
            elif existing[1]:
                existing[0] += parent_grad
                _STATS.inplace_accumulations += 1
            else:
                # First fan-in: allocate one owned buffer, accumulate in
                # place from here on.
                existing[0] = existing[0] + parent_grad
                existing[1] = True
                _STATS.buffer_allocations += 1
        if not retain_graph:
            operation.release()
