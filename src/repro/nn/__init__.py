"""Minimal reverse-mode automatic differentiation and neural-network layers.

The paper's surrogate is a graph neural network trained with Adam; no deep
learning framework is assumed to be available, so this package provides the
required machinery from scratch on top of NumPy:

* :mod:`repro.nn.autograd` -- the operation-tape graph engine:
  :class:`Operation` base class, the :func:`apply` recording entry point,
  thread-safe ``no_grad``, topological backward walk with gradient
  accumulation, un-broadcasting and buffer release;
* :mod:`repro.nn.tensor` -- a :class:`Tensor` wrapping an ``ndarray`` with a
  dynamic tape for reverse-mode differentiation;
* :mod:`repro.nn.functional` -- differentiable operations (matmul, ReLU,
  softplus, layer norm, dropout, segment reductions for message passing, MSE),
  each an :class:`Operation` subclass;
* :mod:`repro.nn.gradcheck` -- central finite-difference gradient checking;
* :mod:`repro.nn.layers` -- ``Module`` base class, ``Linear``, ``MLP``,
  ``LayerNorm``, ``Dropout``, ``Sequential``, and ``OperationChain`` (a
  layer stack's operations run forward / backward without the tape);
* :mod:`repro.nn.optim` -- SGD and Adam (with decoupled weight decay);
* :mod:`repro.nn.init` -- Glorot/He initialisers;
* :mod:`repro.nn.serialization` -- ``state_dict`` save/load round-trips.

The implementation favours clarity and testability over raw speed: the
surrogate models used in the experiments have at most a few hundred thousand
parameters and train in seconds to minutes on a laptop CPU.
"""

from repro.nn.tensor import Tensor, no_grad
from repro.nn.autograd import Operation, apply, is_grad_enabled
from repro.nn.gradcheck import gradcheck
from repro.nn import functional
from repro.nn.layers import (
    Module,
    Linear,
    Sequential,
    MLP,
    LayerNorm,
    Dropout,
    ReLU,
    Softplus,
    OperationChain,
)
from repro.nn.optim import SGD, Adam, Optimizer
from repro.nn.init import xavier_uniform, kaiming_uniform, zeros, ones
from repro.nn.serialization import save_state_dict, load_state_dict

__all__ = [
    "Tensor",
    "no_grad",
    "is_grad_enabled",
    "Operation",
    "apply",
    "gradcheck",
    "functional",
    "Module",
    "Linear",
    "Sequential",
    "MLP",
    "LayerNorm",
    "Dropout",
    "ReLU",
    "Softplus",
    "OperationChain",
    "Optimizer",
    "SGD",
    "Adam",
    "xavier_uniform",
    "kaiming_uniform",
    "zeros",
    "ones",
    "save_state_dict",
    "load_state_dict",
]
