"""The seed closure-based autodiff kept verbatim as an equivalence oracle.

Before the operation-tape engine (:mod:`repro.nn.autograd`), every function
in :mod:`repro.nn.functional` hand-coded its own backward closure and
``Tensor.backward`` walked those opaque closures.  This module preserves that
implementation -- :class:`ClosureTensor` plus the closure-registering ops --
so that the equivalence suite can assert, in-process and therefore
bit-exactly, that the tape engine produces *identical* gradients and
identical seeded surrogate training trajectories from fewer gradient buffers
(``tests/test_nn_autograd.py``).

The code is transcribed from the seed ``tensor.py`` / ``functional.py`` with
only mechanical changes (``Tensor`` renamed, the tape always records, and a
module-level ``ACCUMULATION_ALLOCATIONS`` counter at the two allocation sites
the new engine optimises).  Do not "improve" it: its value is being the old
behaviour, byte for byte.

:func:`seeded_surrogate_problem` and :func:`surrogate_loss_tensor` build the
seeded GNN-surrogate training step; the step is written against a generic
``ops`` module interface so the *same* model code runs on either engine.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import AutodiffError

__all__ = [
    "ClosureTensor",
    "Tensor",
    "seeded_surrogate_problem",
    "init_surrogate_parameters",
    "surrogate_loss_tensor",
    "reset_allocation_counter",
    "allocation_counter",
]

#: Gradient-buffer allocations made by the closure engine (fan-in additions
#: and first-use leaf copies); the tape engine's ``backward_stats`` is the
#: counterpart the equivalence suite compares it with.
_ALLOCATIONS = 0


def reset_allocation_counter() -> None:
    """Zero the closure engine's gradient-allocation counter."""
    global _ALLOCATIONS
    _ALLOCATIONS = 0


def allocation_counter() -> int:
    """Gradient-buffer allocations since the last reset."""
    return _ALLOCATIONS


class ClosureTensor:
    """The seed autodiff tensor: parents + per-node backward closure."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward_fn",
                 "name")

    def __init__(self, data, requires_grad: bool = False, parents=(),
                 backward_fn=None, name: str = "") -> None:
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self._parents = tuple(parents)
        self._backward_fn = backward_fn
        self.name = name

    @property
    def shape(self):
        return self.data.shape

    def item(self) -> float:
        if self.data.size != 1:
            raise AutodiffError(
                f"item() requires a scalar tensor, got shape {self.shape}")
        return float(self.data.reshape(()))

    def zero_grad(self) -> None:
        self.grad = None

    def accumulate_grad(self, gradient: np.ndarray) -> None:
        global _ALLOCATIONS
        if not self.requires_grad:
            return
        gradient = np.asarray(gradient, dtype=np.float64)
        if gradient.shape != self.data.shape:
            raise AutodiffError(
                f"gradient shape {gradient.shape} does not match tensor shape "
                f"{self.data.shape}")
        if self.grad is None:
            self.grad = gradient.copy()
            _ALLOCATIONS += 1
        else:
            self.grad += gradient

    def _toposort(self):
        order = []
        visited: set[int] = set()
        stack = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                order.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in visited:
                    stack.append((parent, False))
        return order

    def backward(self, gradient: np.ndarray | float | None = None) -> None:
        global _ALLOCATIONS
        if gradient is None:
            if self.data.size != 1:
                raise AutodiffError(
                    "backward() without an explicit gradient requires a "
                    f"scalar tensor, got shape {self.shape}")
            gradient = np.ones_like(self.data)
        gradient = np.asarray(gradient, dtype=np.float64)
        if gradient.shape != self.data.shape:
            gradient = np.broadcast_to(gradient, self.data.shape).copy()

        order = self._toposort()
        grad_map: dict[int, np.ndarray] = {id(self): gradient}
        for node in reversed(order):
            node_grad = grad_map.pop(id(node), None)
            if node_grad is None:
                continue
            if node.requires_grad:
                node.accumulate_grad(node_grad)
            if node._backward_fn is None:
                continue
            parent_grads = node._backward_fn(node_grad)
            if parent_grads is None:
                continue
            for parent, parent_grad in zip(node._parents, parent_grads):
                if parent_grad is None:
                    continue
                existing = grad_map.get(id(parent))
                if existing is None:
                    grad_map[id(parent)] = np.asarray(parent_grad,
                                                      dtype=np.float64)
                else:
                    grad_map[id(parent)] = existing + parent_grad
                    _ALLOCATIONS += 1


#: Alias so generic model code can use ``ops.Tensor`` with either engine.
Tensor = ClosureTensor


def _ensure_tensor(value) -> ClosureTensor:
    if isinstance(value, ClosureTensor):
        return value
    return ClosureTensor(np.asarray(value, dtype=np.float64))


def _unbroadcast(gradient: np.ndarray, shape) -> np.ndarray:
    if gradient.shape == shape:
        return gradient
    while gradient.ndim > len(shape):
        gradient = gradient.sum(axis=0)
    for axis, dim in enumerate(shape):
        if dim == 1 and gradient.shape[axis] != 1:
            gradient = gradient.sum(axis=axis, keepdims=True)
    return gradient.reshape(shape)


def _make(data, parents, backward_fn) -> ClosureTensor:
    return ClosureTensor(data, parents=parents, backward_fn=backward_fn)


def add(a, b):
    a, b = _ensure_tensor(a), _ensure_tensor(b)
    out_data = a.data + b.data

    def backward(grad):
        return _unbroadcast(grad, a.data.shape), _unbroadcast(grad, b.data.shape)

    return _make(out_data, (a, b), backward)


def sub(a, b):
    a, b = _ensure_tensor(a), _ensure_tensor(b)
    out_data = a.data - b.data

    def backward(grad):
        return _unbroadcast(grad, a.data.shape), _unbroadcast(-grad, b.data.shape)

    return _make(out_data, (a, b), backward)


def mul(a, b):
    a, b = _ensure_tensor(a), _ensure_tensor(b)
    out_data = a.data * b.data

    def backward(grad):
        return (_unbroadcast(grad * b.data, a.data.shape),
                _unbroadcast(grad * a.data, b.data.shape))

    return _make(out_data, (a, b), backward)


def div(a, b):
    a, b = _ensure_tensor(a), _ensure_tensor(b)
    out_data = a.data / b.data

    def backward(grad):
        return (_unbroadcast(grad / b.data, a.data.shape),
                _unbroadcast(-grad * a.data / (b.data ** 2), b.data.shape))

    return _make(out_data, (a, b), backward)


def neg(a):
    a = _ensure_tensor(a)

    def backward(grad):
        return (-grad,)

    return _make(-a.data, (a,), backward)


def pow_scalar(a, exponent: float):
    a = _ensure_tensor(a)
    out_data = a.data ** exponent

    def backward(grad):
        return (grad * exponent * a.data ** (exponent - 1.0),)

    return _make(out_data, (a,), backward)


def matmul(a, b):
    a, b = _ensure_tensor(a), _ensure_tensor(b)
    out_data = a.data @ b.data

    def backward(grad):
        a_data, b_data = a.data, b.data
        grad = np.asarray(grad, dtype=np.float64)
        if a_data.ndim == 1 and b_data.ndim == 2:
            grad_a = grad @ b_data.T
            grad_b = np.outer(a_data, grad)
        elif a_data.ndim == 2 and b_data.ndim == 1:
            grad_a = np.outer(grad, b_data)
            grad_b = a_data.T @ grad
        elif a_data.ndim == 1 and b_data.ndim == 1:
            grad_a = grad * b_data
            grad_b = grad * a_data
        else:
            grad_a = grad @ b_data.T
            grad_b = a_data.T @ grad
        return grad_a, grad_b

    return _make(out_data, (a, b), backward)


def sum(a, axis=None, keepdims: bool = False):  # noqa: A001
    a = _ensure_tensor(a)
    out_data = a.data.sum(axis=axis, keepdims=keepdims)

    def backward(grad):
        grad = np.asarray(grad, dtype=np.float64)
        if axis is None:
            return (np.broadcast_to(grad, a.data.shape).copy(),)
        if not keepdims:
            grad = np.expand_dims(grad, axis=axis)
        return (np.broadcast_to(grad, a.data.shape).copy(),)

    return _make(out_data, (a,), backward)


def mean(a, axis=None, keepdims: bool = False):
    a = _ensure_tensor(a)
    out_data = a.data.mean(axis=axis, keepdims=keepdims)
    if axis is None:
        count = a.data.size
    else:
        count = a.data.shape[axis]

    def backward(grad):
        grad = np.asarray(grad, dtype=np.float64) / count
        if axis is None:
            return (np.broadcast_to(grad, a.data.shape).copy(),)
        if not keepdims:
            grad = np.expand_dims(grad, axis=axis)
        return (np.broadcast_to(grad, a.data.shape).copy(),)

    return _make(out_data, (a,), backward)


def reshape(a, shape):
    a = _ensure_tensor(a)
    out_data = a.data.reshape(shape)

    def backward(grad):
        return (np.asarray(grad).reshape(a.data.shape),)

    return _make(out_data, (a,), backward)


def concat(tensors, axis: int = -1):
    tensors = [_ensure_tensor(t) for t in tensors]
    if not tensors:
        raise AutodiffError("concat() requires at least one tensor")
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(grad):
        grad = np.asarray(grad, dtype=np.float64)
        slices = []
        for index in range(len(tensors)):
            selector = [slice(None)] * grad.ndim
            selector[axis] = slice(offsets[index], offsets[index + 1])
            slices.append(grad[tuple(selector)])
        return tuple(slices)

    return _make(out_data, tuple(tensors), backward)


def stack(tensors, axis: int = 0):
    tensors = [_ensure_tensor(t) for t in tensors]
    if not tensors:
        raise AutodiffError("stack() requires at least one tensor")
    out_data = np.stack([t.data for t in tensors], axis=axis)

    def backward(grad):
        grad = np.asarray(grad, dtype=np.float64)
        return tuple(np.take(grad, index, axis=axis)
                     for index in range(len(tensors)))

    return _make(out_data, tuple(tensors), backward)


def relu(a):
    a = _ensure_tensor(a)
    mask = a.data > 0
    out_data = a.data * mask

    def backward(grad):
        return (grad * mask,)

    return _make(out_data, (a,), backward)


def leaky_relu(a, negative_slope: float = 0.2):
    a = _ensure_tensor(a)
    mask = a.data > 0
    out_data = np.where(mask, a.data, negative_slope * a.data)

    def backward(grad):
        return (grad * np.where(mask, 1.0, negative_slope),)

    return _make(out_data, (a,), backward)


def sigmoid(a):
    a = _ensure_tensor(a)
    out_data = 1.0 / (1.0 + np.exp(-a.data))

    def backward(grad):
        return (grad * out_data * (1.0 - out_data),)

    return _make(out_data, (a,), backward)


def tanh(a):
    a = _ensure_tensor(a)
    out_data = np.tanh(a.data)

    def backward(grad):
        return (grad * (1.0 - out_data ** 2),)

    return _make(out_data, (a,), backward)


def exp(a):
    a = _ensure_tensor(a)
    out_data = np.exp(a.data)

    def backward(grad):
        return (grad * out_data,)

    return _make(out_data, (a,), backward)


def log(a):
    a = _ensure_tensor(a)
    out_data = np.log(a.data)

    def backward(grad):
        return (grad / a.data,)

    return _make(out_data, (a,), backward)


def softplus(a):
    a = _ensure_tensor(a)
    out_data = np.logaddexp(0.0, a.data)
    sig = 1.0 / (1.0 + np.exp(-a.data))

    def backward(grad):
        return (grad * sig,)

    return _make(out_data, (a,), backward)


def dropout(a, p: float, *, training: bool, rng=None):
    a = _ensure_tensor(a)
    if not 0.0 <= p < 1.0:
        raise AutodiffError(f"dropout probability must lie in [0, 1), got {p}")
    if not training or p == 0.0:
        def backward_identity(grad):
            return (grad,)

        return _make(a.data.copy(), (a,), backward_identity)
    generator = rng if rng is not None else np.random.default_rng()
    mask = (generator.random(a.data.shape) >= p) / (1.0 - p)
    out_data = a.data * mask

    def backward(grad):
        return (grad * mask,)

    return _make(out_data, (a,), backward)


def layer_norm(a, gamma, beta, *, eps: float = 1e-5):
    a = _ensure_tensor(a)
    gamma = _ensure_tensor(gamma)
    beta = _ensure_tensor(beta)
    mu = a.data.mean(axis=-1, keepdims=True)
    var = a.data.var(axis=-1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + eps)
    normalised = (a.data - mu) * inv_std
    out_data = gamma.data * normalised + beta.data

    def backward(grad):
        grad = np.asarray(grad, dtype=np.float64)
        grad_gamma = _unbroadcast(grad * normalised, gamma.data.shape)
        grad_beta = _unbroadcast(grad, beta.data.shape)
        grad_normalised = grad * gamma.data
        grad_a = (grad_normalised
                  - grad_normalised.mean(axis=-1, keepdims=True)
                  - normalised * (grad_normalised * normalised
                                  ).mean(axis=-1, keepdims=True)
                  ) * inv_std
        return grad_a, grad_gamma, grad_beta

    return _make(out_data, (a, gamma, beta), backward)


def gather_rows(a, indices):
    a = _ensure_tensor(a)
    indices = np.asarray(indices, dtype=np.int64)
    out_data = a.data[indices]

    def backward(grad):
        grad_a = np.zeros_like(a.data)
        np.add.at(grad_a, indices, np.asarray(grad, dtype=np.float64))
        return (grad_a,)

    return _make(out_data, (a,), backward)


def segment_sum(a, segment_ids, num_segments: int):
    a = _ensure_tensor(a)
    segment_ids = np.asarray(segment_ids, dtype=np.int64)
    if segment_ids.shape[0] != a.data.shape[0]:
        raise AutodiffError(
            f"segment_ids length {segment_ids.shape[0]} does not match rows "
            f"{a.data.shape[0]}")
    out_shape = (num_segments,) + a.data.shape[1:]
    out_data = np.zeros(out_shape, dtype=np.float64)
    np.add.at(out_data, segment_ids, a.data)

    def backward(grad):
        return (np.asarray(grad, dtype=np.float64)[segment_ids],)

    return _make(out_data, (a,), backward)


def segment_mean(a, segment_ids, num_segments: int):
    a = _ensure_tensor(a)
    segment_ids = np.asarray(segment_ids, dtype=np.int64)
    counts = np.bincount(segment_ids, minlength=num_segments).astype(np.float64)
    safe_counts = np.maximum(counts, 1.0)
    summed = segment_sum(a, segment_ids, num_segments)
    scale = ClosureTensor((1.0 / safe_counts)[:, None]
                          if a.data.ndim > 1 else 1.0 / safe_counts)
    return mul(summed, scale)


def segment_max(a, segment_ids, num_segments: int):
    a = _ensure_tensor(a)
    segment_ids = np.asarray(segment_ids, dtype=np.int64)
    feature_shape = a.data.shape[1:]
    out_data = np.full((num_segments,) + feature_shape, -np.inf,
                       dtype=np.float64)
    np.maximum.at(out_data, segment_ids, a.data)
    empty = ~np.isin(np.arange(num_segments), segment_ids)
    if empty.any():
        out_data[empty] = 0.0

    winners = (a.data == out_data[segment_ids]).astype(np.float64)
    winner_counts = np.zeros((num_segments,) + feature_shape, dtype=np.float64)
    np.add.at(winner_counts, segment_ids, winners)
    winner_counts = np.maximum(winner_counts, 1.0)

    def backward(grad):
        grad = np.asarray(grad, dtype=np.float64)
        return (winners * (grad / winner_counts)[segment_ids],)

    return _make(out_data, (a,), backward)


def mse_loss(prediction, target):
    prediction = _ensure_tensor(prediction)
    target = _ensure_tensor(target)
    difference = sub(prediction, target)
    return mean(mul(difference, difference))


def gaussian_nll_loss(mu, sigma, target, *, eps: float = 1e-6):
    mu = _ensure_tensor(mu)
    sigma = _ensure_tensor(sigma)
    target = _ensure_tensor(target)
    variance = add(mul(sigma, sigma), ClosureTensor(eps))
    residual = sub(target, mu)
    quadratic = div(mul(residual, residual), variance)
    return mean(mul(add(log(variance), quadratic), ClosureTensor(0.5)))


# --------------------------------------------------------------------------
# Seeded GNN-surrogate training step
# --------------------------------------------------------------------------

#: Mirror-surrogate dimensions (EdgeConv x2, multi + mean aggregation, three
#: MLP stacks and the two heads of Eq. 1) -- small enough for fast tests yet
#: exercising gather/segment/concat/layer-norm/matmul/softplus end to end.
_DIMS = {"node": 3, "edge": 1, "hidden": 6, "xa": 4, "xa_hidden": 5,
         "xm": 3, "xm_hidden": 5, "combined_hidden": 8}


def seeded_surrogate_problem(seed: int = 0, *, num_graphs: int = 2,
                             nodes_per_graph: int = 7,
                             samples: int = 6) -> dict[str, np.ndarray]:
    """Synthetic batched-graph regression problem for the mirror surrogate."""
    rng = np.random.default_rng(seed)
    num_nodes = num_graphs * nodes_per_graph
    sources, targets, node_to_graph = [], [], []
    for graph in range(num_graphs):
        base = graph * nodes_per_graph
        node_to_graph.extend([graph] * nodes_per_graph)
        for node in range(nodes_per_graph):
            # Ring plus one random chord per node, both directions.
            neighbour = base + (node + 1) % nodes_per_graph
            chord = base + int(rng.integers(nodes_per_graph))
            for src, dst in ((base + node, neighbour), (neighbour, base + node),
                             (base + node, chord)):
                sources.append(src)
                targets.append(dst)
    edge_index = np.array([sources, targets], dtype=np.int64)
    return {
        "edge_index": edge_index,
        "edge_features": rng.standard_normal((edge_index.shape[1],
                                              _DIMS["edge"])),
        "node_features": rng.standard_normal((num_nodes, _DIMS["node"])),
        "node_to_graph": np.array(node_to_graph, dtype=np.int64),
        "num_nodes": np.int64(num_nodes),
        "num_graphs": np.int64(num_graphs),
        "sample_graph_index": rng.integers(num_graphs, size=samples),
        "x_a": rng.standard_normal((samples, _DIMS["xa"])),
        "x_m": rng.standard_normal((samples, _DIMS["xm"])),
        "y_mean": np.abs(rng.standard_normal(samples)),
        "y_std": np.abs(rng.standard_normal(samples)) + 0.1,
    }


def init_surrogate_parameters(seed: int = 0) -> dict[str, np.ndarray]:
    """Seeded parameter arrays for the mirror surrogate (name -> ndarray)."""
    rng = np.random.default_rng(seed + 1)
    d = _DIMS

    def linear(name: str, fan_in: int, fan_out: int) -> dict[str, np.ndarray]:
        bound = np.sqrt(6.0 / fan_in)
        return {f"{name}.weight": rng.uniform(-bound, bound, (fan_in, fan_out)),
                f"{name}.bias": np.zeros(fan_out)}

    def norm(name: str, width: int) -> dict[str, np.ndarray]:
        return {f"{name}.gamma": np.ones(width), f"{name}.beta": np.zeros(width)}

    params: dict[str, np.ndarray] = {}
    # conv0: EdgeConv message MLP, "multi" aggregation needs a projection.
    params.update(linear("conv0.message", 2 * d["node"] + d["edge"], d["hidden"]))
    params.update(linear("conv0.project", 3 * d["hidden"], d["hidden"]))
    params.update(norm("conv0.norm", d["hidden"]))
    # conv1: EdgeConv with mean aggregation (the paper's selection).
    params.update(linear("conv1.message", 2 * d["hidden"] + d["edge"], d["hidden"]))
    params.update(norm("conv1.norm", d["hidden"]))
    # Auxiliary MLPs and the combined stack.
    params.update(linear("xa.0", d["xa"], d["xa_hidden"]))
    params.update(norm("xa.0.norm", d["xa_hidden"]))
    params.update(linear("xm.0", d["xm"], d["xm_hidden"]))
    params.update(norm("xm.0.norm", d["xm_hidden"]))
    params.update(linear("xm.1", d["xm_hidden"], d["xm_hidden"]))
    params.update(norm("xm.1.norm", d["xm_hidden"]))
    combined_in = d["hidden"] + d["xa_hidden"] + d["xm_hidden"]
    params.update(linear("combined.0", combined_in, d["combined_hidden"]))
    params.update(norm("combined.0.norm", d["combined_hidden"]))
    params.update(linear("combined.1", d["combined_hidden"], d["combined_hidden"]))
    params.update(norm("combined.1.norm", d["combined_hidden"]))
    params.update(linear("mu_head", d["combined_hidden"], 1))
    params.update(linear("sigma_head", d["combined_hidden"], 1))
    return params


def _block(ops, params, name, x):
    """Linear -> LayerNorm -> ReLU against the generic ops interface."""
    hidden = ops.add(ops.matmul(x, params[f"{name}.weight"]),
                     params[f"{name}.bias"])
    hidden = ops.layer_norm(hidden, params[f"{name}.norm.gamma"],
                            params[f"{name}.norm.beta"])
    return ops.relu(hidden)


def surrogate_loss_tensor(ops, params, problem):
    """One differentiable loss evaluation of the mirror surrogate.

    ``ops`` is either :mod:`repro.nn.functional` (tape engine) or this module
    (closure oracle); ``params`` maps the names of
    :func:`init_surrogate_parameters` to tensors of the matching engine.
    """
    num_nodes = int(problem["num_nodes"])
    num_graphs = int(problem["num_graphs"])
    source_index, target_index = problem["edge_index"]
    edge_features = ops.Tensor(problem["edge_features"])

    x = ops.Tensor(problem["node_features"])
    for layer, aggregation in (("conv0", "multi"), ("conv1", "mean")):
        source = ops.gather_rows(x, source_index)
        target = ops.gather_rows(x, target_index)
        stacked = ops.concat([target, ops.sub(source, target), edge_features],
                             axis=-1)
        messages = ops.relu(ops.add(
            ops.matmul(stacked, params[f"{layer}.message.weight"]),
            params[f"{layer}.message.bias"]))
        if aggregation == "multi":
            aggregated = ops.concat([
                ops.segment_sum(messages, target_index, num_nodes),
                ops.segment_mean(messages, target_index, num_nodes),
                ops.segment_max(messages, target_index, num_nodes),
            ], axis=-1)
            aggregated = ops.add(
                ops.matmul(aggregated, params[f"{layer}.project.weight"]),
                params[f"{layer}.project.bias"])
        else:
            aggregated = ops.segment_mean(messages, target_index, num_nodes)
        x = ops.relu(ops.layer_norm(aggregated, params[f"{layer}.norm.gamma"],
                                    params[f"{layer}.norm.beta"]))

    graph_embedding = ops.segment_mean(x, problem["node_to_graph"], num_graphs)
    per_sample = ops.gather_rows(graph_embedding, problem["sample_graph_index"])
    h_a = _block(ops, params, "xa.0", ops.Tensor(problem["x_a"]))
    h_m = _block(ops, params, "xm.1",
                 _block(ops, params, "xm.0", ops.Tensor(problem["x_m"])))
    hidden = ops.concat([per_sample, h_a, h_m], axis=-1)
    hidden = _block(ops, params, "combined.1",
                    _block(ops, params, "combined.0", hidden))
    mu = ops.relu(ops.add(ops.matmul(hidden, params["mu_head.weight"]),
                          params["mu_head.bias"]))
    sigma = ops.softplus(ops.add(ops.matmul(hidden, params["sigma_head.weight"]),
                                 params["sigma_head.bias"]))
    mu = ops.reshape(mu, (mu.shape[0],))
    sigma = ops.reshape(sigma, (sigma.shape[0],))
    loss = ops.add(ops.mse_loss(mu, ops.Tensor(problem["y_mean"])),
                   ops.mse_loss(sigma, ops.Tensor(problem["y_std"])))
    nll = ops.gaussian_nll_loss(mu, sigma, ops.Tensor(problem["y_mean"]))
    return ops.add(loss, ops.mul(nll, ops.Tensor(0.1)))
