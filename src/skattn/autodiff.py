"""Reverse-mode differentiation over taped primitives, plus a
finite-difference oracle for validating analytic gradients.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import AutodiffError, OracleError
from .tensor import Rng, Tape, Tensor, _key_to_u64

__all__ = ["Parameter", "Module", "backward", "grad_check", "GradCheckResult", "Tape"]


@dataclass
class Parameter:
    """A named parameter tensor inside a model."""

    name: str
    tensor: Tensor


class Module:
    """Minimal parameter container with hierarchical naming.

    Subclasses register parameters and child modules in __init__ and
    implement `forward`. Parameter names are dotted paths unique within
    the root module.
    """

    def __init__(self):
        self._params: dict[str, Tensor] = {}
        self._modules: dict[str, Module] = {}
        self.training = False

    def register(self, name: str, tensor: Tensor) -> Tensor:
        if name in self._params or name in self._modules:
            raise ValueError(f"duplicate name {name!r}")
        self._params[name] = tensor
        return tensor

    def add_module(self, name: str, module: "Module") -> "Module":
        if name in self._params or name in self._modules:
            raise ValueError(f"duplicate name {name!r}")
        self._modules[name] = module
        return module

    def named_parameters(self, prefix: str = "") -> list[Parameter]:
        out = [Parameter(prefix + name, tensor) for name, tensor in self._params.items()]
        for name, module in self._modules.items():
            out.extend(module.named_parameters(prefix + name + "."))
        return out

    def train(self, mode: bool = True) -> "Module":
        self.training = mode
        for m in self._modules.values():
            m.train(mode)
        return self

    def eval(self) -> "Module":
        return self.train(False)

    def forward(self, *args, **kwargs):
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)


def backward(tape: Tape, loss: Tensor) -> dict[Tensor, np.ndarray]:
    """Walk the tape in reverse, returning gradients of `loss`.

    Seeds the loss gradient with 1.0 and accumulates by summation at
    fan-out. Returns {tensor: gradient} (Tensors hash by identity) over every
    tensor reached, intermediates included, and sets each one's `.grad`; a
    gradient may be a read-only view, since no backward rule writes into it.
    Raises if the loss is not a scalar or was not produced on this tape.
    """
    if loss.size != 1:
        raise AutodiffError(f"loss must be scalar, got shape {loss.shape}")
    if not any(out is loss for out, _, _ in tape.entries):
        raise AutodiffError("loss tensor was not produced on this tape")

    grads: dict[Tensor, np.ndarray] = {loss: np.ones_like(loss.data)}
    for out, inputs, bwd in reversed(tape.entries):
        g = grads.get(out)
        if g is None:
            continue
        for t, gt in zip(inputs, bwd(g)):
            if gt is None:
                continue
            prev = grads.get(t)
            grads[t] = gt if prev is None else prev + gt

    for t, g in grads.items():
        t.grad = g
    return grads


@dataclass
class GradCheckResult:
    name: str
    max_rel_error: float
    passed: bool


def _rel_error(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b), 1e-8)


def grad_check(f: Callable[[], Tensor], params: list[Parameter], *,
               epsilon: float = 1e-5, tolerance: float = 1e-5,
               max_coords: int = 64) -> list[GradCheckResult]:
    """Compare analytic gradients of `f` against central differences.

    `f` takes no arguments (closing over the parameters) and returns a
    scalar Tensor. Large tensors are sub-sampled to at least `max_coords`
    coordinates, chosen deterministically from a hash of the parameter
    name. `f` is evaluated twice up front; any mismatch means the oracle
    cannot be trusted (non-deterministic loss) and raises OracleError.
    """
    v1 = f().data.item()
    v2 = f().data.item()
    if v1 != v2:
        raise OracleError(f"loss function is not deterministic: {v1!r} != {v2!r}")

    with Tape() as tape:
        out = f()
    grads = backward(tape, out)

    results = []
    for p in params:
        analytic = grads.get(p.tensor)
        # perturb an owned C-contiguous copy: reshape(-1) of a strided view copies
        p.tensor.data = np.array(p.tensor.data, order="C")
        flat = p.tensor.data.reshape(-1)
        ana_flat = None if analytic is None else analytic.reshape(-1)
        n = flat.size
        if n <= max_coords:
            coords = np.arange(n)
        else:
            coords = Rng(_key_to_u64(p.name)).permutation(n)[:max_coords]
        worst = 0.0
        for c in coords:
            orig = flat[c]
            flat[c] = orig + epsilon
            f_plus = f().data.item()
            flat[c] = orig - epsilon
            f_minus = f().data.item()
            flat[c] = orig
            numeric = (f_plus - f_minus) / (2.0 * epsilon)
            ana = 0.0 if ana_flat is None else float(ana_flat[c])
            worst = max(worst, _rel_error(ana, numeric))
        results.append(GradCheckResult(p.name, worst, worst < tolerance))
    return results
