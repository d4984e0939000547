#!/usr/bin/env python3
"""Tour of the autodiff core: build a graph, run backward, check gradients."""

import numpy as np

from symtrans import tensor as T
from symtrans.cemsa import multi_head_attention
from symtrans.tensor import Tensor

# Tensors wrap numpy arrays; requires_grad marks graph leaves.
x = Tensor(np.array([1.0, -2.0, 3.0], dtype=np.float32), requires_grad=True)
y = Tensor(np.array([0.5, 0.5, 0.5], dtype=np.float32), requires_grad=True)

# loss = sum((x * y + x)^2)
z = T.add(T.mul(x, y), x)
loss = T.sum_all(T.mul(z, z))
loss.backward()

print("loss      =", loss.item())
print("dloss/dx  =", x.grad)   # 2 (x y + x)(y + 1)
print("dloss/dy  =", y.grad)   # 2 (x y + x) x
print("expected x grad:", 2 * (x.data * y.data + x.data) * (y.data + 1))

# Every op ships a backward rule; grad_check compares them against central
# finite differences evaluated in float64. scale-aware eps, seeded sampling.
rng = np.random.default_rng(0)
w0 = rng.normal(size=(4, 6))
x0 = rng.normal(size=(5, 6))


def build(leaves):
    h = T.matmul(leaves["x"], T.transpose2d(leaves["w"]))
    return T.mean_all(T.mul(T.gelu(h), h))


report = T.grad_check(build, {"x": x0, "w": w0}, wide=True, coords_per_leaf=10)
print("\ngrad_check over a matmul+gelu graph:", report)

# Two precisions are supported as a tensor attribute: float32 for training,
# float64 for oracles and gradient checks. Mixing them is an error.
wide = Tensor(np.ones(3), dtype=np.float64)
try:
    T.add(wide, Tensor(np.ones(3), dtype=np.float32))
except TypeError as e:
    print("\nmixed precision is rejected:", e)

# Attention's softmax rows are probability vectors, stabilized by max
# subtraction: with every value 1, each output is a row sum, so 1.
q, k = (Tensor(rng.normal(size=(6, 4), scale=40).astype(np.float32)) for _ in range(2))
ones = Tensor(np.ones((6, 4), dtype=np.float32))
out = multi_head_attention(q, k, ones, heads=2)
print("\nattention outputs with V all ones:", out.data.min(), "to", out.data.max())
