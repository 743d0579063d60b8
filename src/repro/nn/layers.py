"""Neural-network modules built on the autodiff tensor.

:class:`Module` provides parameter registration, recursive traversal, train /
eval mode switching and ``state_dict`` round-trips; the concrete layers cover
exactly what the paper's surrogate needs: linear layers, ReLU / softplus
activations, layer normalisation, dropout, and the small MLP stacks used for
the auxiliary inputs ``x_A`` and ``x_M``.

The chain-shaped layers list their forward pass once, as
:meth:`Module.operations`; their forward runs that list on the tape and
:class:`OperationChain` runs it without one.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.exceptions import SurrogateError
from repro.nn import functional as F
from repro.nn.autograd import Operation, apply
from repro.nn.init import kaiming_uniform, ones, xavier_uniform, zeros
from repro.nn.tensor import Tensor

__all__ = ["Module", "Linear", "Sequential", "MLP", "LayerNorm", "Dropout",
           "ReLU", "Softplus", "OperationChain"]

#: A module's forward as ``(operation, constant operands)`` steps: the input
#: enters each operation as its first operand.
Steps = list[tuple[Operation, tuple[Tensor, ...]]]


class Module:
    """Base class of all layers and models.

    Subclasses assign :class:`~repro.nn.tensor.Tensor` parameters and child
    modules as attributes; :meth:`parameters` and :meth:`named_parameters`
    discover them recursively.  ``training`` toggles dropout behaviour.
    """

    def __init__(self) -> None:
        self.training = True

    # -- traversal ------------------------------------------------------------
    def named_parameters(self, prefix: str = "") -> Iterator[tuple[str, Tensor]]:
        """Yield ``(name, parameter)`` pairs recursively."""
        for attribute, value in vars(self).items():
            if attribute.startswith("_modules_list"):
                continue
            name = f"{prefix}{attribute}"
            if isinstance(value, Tensor) and value.requires_grad:
                yield name, value
            elif isinstance(value, Module):
                yield from value.named_parameters(prefix=f"{name}.")
            elif isinstance(value, (list, tuple)):
                for index, item in enumerate(value):
                    if isinstance(item, Module):
                        yield from item.named_parameters(prefix=f"{name}.{index}.")
                    elif isinstance(item, Tensor) and item.requires_grad:
                        yield f"{name}.{index}", item

    def parameters(self) -> list[Tensor]:
        """All trainable parameters of the module tree."""
        return [parameter for _, parameter in self.named_parameters()]

    def modules(self) -> Iterator["Module"]:
        """Yield this module and all sub-modules."""
        yield self
        for value in vars(self).values():
            if isinstance(value, Module):
                yield from value.modules()
            elif isinstance(value, (list, tuple)):
                for item in value:
                    if isinstance(item, Module):
                        yield from item.modules()

    # -- mode switching ---------------------------------------------------------
    def train(self) -> "Module":
        """Switch the whole module tree to training mode."""
        for module in self.modules():
            module.training = True
        return self

    def eval(self) -> "Module":
        """Switch the whole module tree to evaluation mode."""
        for module in self.modules():
            module.training = False
        return self

    # -- gradients and state -----------------------------------------------------
    def zero_grad(self) -> None:
        """Reset gradients of every parameter."""
        for parameter in self.parameters():
            parameter.zero_grad()

    def num_parameters(self) -> int:
        """Total number of scalar trainable parameters."""
        return int(np.sum([parameter.size for parameter in self.parameters()]))

    def state_dict(self) -> dict[str, np.ndarray]:
        """Copy of every parameter keyed by its dotted name."""
        return {name: parameter.data.copy()
                for name, parameter in self.named_parameters()}

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        """Load parameter values produced by :meth:`state_dict`."""
        parameters = dict(self.named_parameters())
        missing = set(parameters) - set(state)
        unexpected = set(state) - set(parameters)
        if missing or unexpected:
            raise SurrogateError(
                f"state dict mismatch: missing={sorted(missing)}, "
                f"unexpected={sorted(unexpected)}")
        for name, values in state.items():
            parameter = parameters[name]
            values = np.asarray(values, dtype=np.float64)
            if parameter.data.shape != values.shape:
                raise SurrogateError(
                    f"shape mismatch for {name}: model {parameter.data.shape} "
                    f"vs state {values.shape}")
            parameter.data[...] = values

    # -- call protocol -------------------------------------------------------------
    def forward(self, *args, **kwargs):
        """Compute the module output (must be overridden)."""
        raise NotImplementedError

    def operations(self) -> Steps:
        """Fresh operation nodes of the forward pass, in order, each with its
        constant operands (the parameters).  Only chain-shaped layers have
        them; :class:`OperationChain` runs them without the tape."""
        raise SurrogateError(
            f"{type(self).__name__} is not a chain of operations")

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)


class _Chain(Module):
    """A layer whose forward is its :meth:`operations` run on the tape."""

    def forward(self, inputs: Tensor) -> Tensor:
        output = inputs
        for operation, operands in self.operations():
            output = apply(operation, output, *operands)
        return output


class Linear(_Chain):
    """Affine layer ``y = x W + b``."""

    def __init__(self, in_features: int, out_features: int, *, bias: bool = True,
                 rng: np.random.Generator | None = None,
                 init: str = "kaiming") -> None:
        super().__init__()
        if in_features <= 0 or out_features <= 0:
            raise SurrogateError(
                f"invalid Linear dimensions ({in_features}, {out_features})")
        generator = rng if rng is not None else np.random.default_rng()
        if init == "kaiming":
            weight = kaiming_uniform((in_features, out_features), generator)
        elif init == "xavier":
            weight = xavier_uniform((in_features, out_features), generator)
        else:
            raise SurrogateError(f"unknown init {init!r}")
        self.weight = Tensor(weight, requires_grad=True, name="weight")
        self.bias = Tensor(zeros((out_features,)), requires_grad=True,
                           name="bias") if bias else None
        self.in_features = in_features
        self.out_features = out_features

    def operations(self) -> Steps:
        steps: Steps = [(F.MatMul(), (self.weight,))]
        if self.bias is not None:
            steps.append((F.Add(), (self.bias,)))
        return steps


class ReLU(_Chain):
    """ReLU activation as a module (for use inside :class:`Sequential`)."""

    def operations(self) -> Steps:
        return [(F.ReLU(), ())]


class Softplus(_Chain):
    """Softplus activation as a module."""

    def operations(self) -> Steps:
        return [(F.Softplus(), ())]


class LayerNorm(_Chain):
    """Layer normalisation over the last dimension with learnable affine."""

    def __init__(self, normalized_shape: int, *, eps: float = 1e-5) -> None:
        super().__init__()
        if normalized_shape <= 0:
            raise SurrogateError(
                f"normalized_shape must be positive, got {normalized_shape}")
        self.gamma = Tensor(ones((normalized_shape,)), requires_grad=True, name="gamma")
        self.beta = Tensor(zeros((normalized_shape,)), requires_grad=True, name="beta")
        self.eps = eps

    def operations(self) -> Steps:
        return [(F.LayerNorm(self.eps), (self.gamma, self.beta))]


class Dropout(Module):
    """Inverted dropout driven by an explicit generator for reproducibility."""

    def __init__(self, p: float = 0.1, *, rng: np.random.Generator | None = None) -> None:
        super().__init__()
        if not 0.0 <= p < 1.0:
            raise SurrogateError(f"dropout probability must lie in [0, 1), got {p}")
        self.p = p
        self._rng = rng if rng is not None else np.random.default_rng(0)

    def operations(self) -> Steps:
        """The evaluation-mode identity; a training-mode mask is drawn per
        input, so it is no fixed chain."""
        if self.training and self.p > 0.0:
            raise SurrogateError("dropout in training mode is not a chain of "
                                 "operations; call eval() first")
        return [(F.Identity(), ())]

    def forward(self, inputs: Tensor) -> Tensor:
        return F.dropout(inputs, self.p, training=self.training, rng=self._rng)


class Sequential(Module):
    """Chain of modules applied in order."""

    def __init__(self, *modules: Module) -> None:
        super().__init__()
        self.layers = list(modules)

    def operations(self) -> Steps:
        return [step for layer in self.layers for step in layer.operations()]

    def forward(self, inputs: Tensor) -> Tensor:
        output = inputs
        for layer in self.layers:
            output = layer(output)
        return output

    def __len__(self) -> int:
        return len(self.layers)

    def __getitem__(self, index: int) -> Module:
        return self.layers[index]


class MLP(Module):
    """Stack of ``Linear -> LayerNorm -> ReLU (-> Dropout)`` blocks.

    This is the fully connected building block of the surrogate: the paper
    applies layer normalisation and ReLU inside both the message-passing and
    FC stacks, with dropout only in the combined head.
    """

    def __init__(self, in_features: int, hidden_features: int, *,
                 num_layers: int = 1, out_features: int | None = None,
                 dropout: float = 0.0, layer_norm: bool = True,
                 final_activation: bool = True,
                 rng: np.random.Generator | None = None) -> None:
        super().__init__()
        if num_layers < 1:
            raise SurrogateError(f"num_layers must be >= 1, got {num_layers}")
        generator = rng if rng is not None else np.random.default_rng(0)
        out_features = hidden_features if out_features is None else out_features
        layers: list[Module] = []
        current = in_features
        for layer_index in range(num_layers):
            is_last = layer_index == num_layers - 1
            width = out_features if is_last else hidden_features
            layers.append(Linear(current, width, rng=generator))
            if not is_last or final_activation:
                if layer_norm:
                    layers.append(LayerNorm(width))
                layers.append(ReLU())
                if dropout > 0.0:
                    layers.append(Dropout(dropout, rng=generator))
            current = width
        self.body = Sequential(*layers)
        self.in_features = in_features
        self.out_features = out_features

    def operations(self) -> Steps:
        return self.body.operations()

    def forward(self, inputs: Tensor) -> Tensor:
        return self.body(inputs)


class OperationChain:
    """Operation steps run as plain ``forward`` / ``backward`` calls.

    The ``Function`` idiom: :meth:`forward` maps an array through the steps'
    ``Operation.forward`` (each node keeps what its backward needs) and
    :meth:`backward` maps an output gradient back through their
    ``Operation.backward`` to the chain's *input* only.  No tape is built and
    no parameter gradient is computed.  These are the operation classes and
    calls the tape makes for the same modules, so the values are the tape's
    bit for bit.  Each :meth:`backward` belongs to the latest
    :meth:`forward`.
    """

    def __init__(self, steps: Steps) -> None:
        self.steps = [(operation, tuple(operand.data for operand in operands))
                      for operation, operands in steps]

    def forward(self, inputs: np.ndarray) -> np.ndarray:
        output = inputs
        for operation, operands in self.steps:
            output = operation.forward(output, *operands)
        return output

    def backward(self, grad: np.ndarray) -> np.ndarray:
        for operation, _operands in reversed(self.steps):
            grad = operation.backward(grad, 0)
        return grad
