"""Parameter containers and initializers.

All learnable tensors live in a :class:`ParamBag`: an insertion-ordered
name -> Tensor map. Checkpoint serialization, Adam moments, and gradient
checks all key off this order, so construction order is the declaration
order everywhere.
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np

from .tensor import STANDARD, Tensor


class ParamBag:
    def __init__(self):
        self.tensors: "OrderedDict[str, Tensor]" = OrderedDict()

    def add(self, name: str, array: np.ndarray) -> Tensor:
        if name in self.tensors:
            raise ValueError(f"duplicate parameter name {name!r}")
        t = Tensor(np.asarray(array, dtype=STANDARD), requires_grad=True)
        self.tensors[name] = t
        return t

    def __len__(self):
        return len(self.tensors)

    def items(self):
        return self.tensors.items()

    def zero_grads(self):
        for t in self.tensors.values():
            t.grad = None


def truncated_normal(rng: np.random.Generator, shape, std: float = 0.02) -> np.ndarray:
    """Normal(0, std) resampled until every draw lies within two deviations."""
    out = rng.normal(0.0, std, size=shape)
    for _ in range(16):
        bad = np.abs(out) > 2.0 * std
        if not bad.any():
            break
        out[bad] = rng.normal(0.0, std, size=int(bad.sum()))
    return np.clip(out, -2.0 * std, 2.0 * std)
