"""Reverse-mode autodiff on N-dimensional numpy arrays.

Every learnable operation in the package is built from the ops here (or
registers its own forward/backward pair through :func:`make_op`). Two scalar
precisions are supported as a tensor-level attribute: ``float32`` (standard,
used for training) and ``float64`` (wide, used for gradient checks and
oracles). Every op refuses parents of different dtypes (:func:`make_op`
checks), and ``add``, ``sub`` and ``mul`` take two Tensors of one shape:
nothing is broadcast or coerced. Inside :func:`no_grad` the ops compute the
same values but record no tape.

The tape keeps rules, not values. A taped op's place in the graph is a
node that holds its backward rule, its parents' nodes (a leaf Tensor for a
leaf, nothing for a parent that needs no gradient), the gradient flowing in
and its output's shape and dtype. A rule saves the arrays and flags it
reads, never a Tensor. So an intermediate array lives only while the
forward code or some rule still holds it.
"""

from __future__ import annotations

import contextlib
from concurrent import futures

import numpy as np
from scipy.special import erf

STANDARD = np.float32
WIDE = np.float64
LAYER_NORM_EPS = 1e-5

_INV_SQRT2 = 0.7071067811865476
_INV_SQRT_2PI = 0.3989422804014327


class Tensor:
    """Array value participating in a reverse-mode differentiation graph.

    ``data`` is a numpy array (float32 or float64), ``grad`` is populated by
    :meth:`backward` for every leaf with ``requires_grad``. A tensor that a
    taped op made links to its ``_Node``, which holds the op's rule and its
    parents' nodes but no value: once the forward code drops such a tensor,
    its array is freed unless some rule saved it.
    """

    __slots__ = ("data", "requires_grad", "grad", "_node")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        arr = np.asarray(data)
        if dtype is not None:
            arr = arr.astype(dtype, copy=False)
        elif arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(STANDARD)
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self._node = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def size(self):
        return self.data.size

    @property
    def ndim(self):
        return self.data.ndim

    def item(self) -> float:
        return float(self.data)

    def backward(self):
        """Populate ``grad`` on every reachable leaf with ``requires_grad``.

        The walk runs over the graph's nodes, which hold rules, not values:
        what a rule reads is what its closure saved, arrays and flags only.
        Nodes are visited in reverse topological order: the reverse of a
        depth-first post-order from the loss that expands a node's parents
        last first. That is not reverse execution order: for ``a = op1(x)``,
        ``b = op2(x)``, ``c = op3(a, b)`` the rules run op3, op1, op2. The
        order fixes the order in which gradients accumulate, and so their
        bytes. Gradients flowing into a node reached through several paths
        accumulate additively, in the order the rules produce them: the
        first is adopted when the rule made it for this node alone (see
        :func:`make_op`) and copied otherwise, the rest are added in place.

        The walk consumes the graph: once a node's rule has run, the node
        drops its gradient, its parents and its rule, and with the rule the
        arrays the rule's closure saved. Only leaves keep their gradients. A
        second ``backward()`` through a consumed node raises a
        ``RuntimeError``; build the graph again instead.

        A rule may return a ``concurrent.futures.Future`` as the gradient of
        any parent, for work another thread finishes while the rule goes on.
        A node's Future is resolved where the walk accumulates it. No rule
        reads a leaf's gradient, so every leaf contribution, Future or
        array, waits and is accumulated after the walk, in walk order: the
        bytes are those of the inline walk. Every Future is waited for on
        every exit path, also when a rule raises, and only then is the first
        error raised. When a rule or its job raises, no leaf's gradient has
        changed yet.
        """
        if self.data.size != 1:
            raise ValueError(
                f"backward() needs a scalar loss, got shape {self.data.shape}"
            )
        if self._node is None:  # a leaf or a constant: the graph is itself
            self.grad = np.ones_like(self.data)
            return
        order: list[_Node] = []
        seen: set[int] = set()
        stack: list[tuple[_Node, bool]] = [(self._node, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node.parents:
                if isinstance(p, _Node) and id(p) not in seen:
                    stack.append((p, False))

        self._node.grad = np.ones_like(self.data)
        pending: list[futures.Future] = []
        leaves = []  # (leaf, contribution, adoptable), in walk order
        try:
            while order:
                node = order.pop()  # the walk holds no node it has passed
                rule, parents, g_out = node.rule, node.parents, node.grad
                node.rule, node.parents, node.grad = _consumed, (), None
                if g_out is None:
                    continue
                grads = rule(g_out)
                pending += (g for g in grads if isinstance(g, futures.Future))
                for parent, g in zip(parents, grads):
                    if g is None or parent is None:
                        continue
                    # the incoming gradient, or one array handed to two
                    # parents, is copied; so is a view, which does not own
                    # its memory (checked when it is accumulated)
                    adoptable = g is not g_out and sum(h is g for h in grads) == 1
                    if isinstance(parent, _Node):
                        _accumulate(parent, _resolved(g), adoptable)
                    else:
                        leaves.append((parent, g, adoptable))
        finally:
            futures.wait(pending)
        for future in pending:
            future.result()
        for leaf, g, adoptable in leaves:
            _accumulate(leaf, _resolved(g), adoptable)

    def __repr__(self):
        return f"Tensor(shape={tuple(self.shape)}, dtype={self.data.dtype}, requires_grad={self.requires_grad})"


class _Node:
    """A taped op's place in the graph: its rule, and no value.

    ``parents`` has one entry per parent of the op: the parent's node, the
    parent itself when it is a leaf that requires a gradient, or ``None``
    when it requires none. ``grad`` is the gradient flowing in during a
    walk; ``shape`` and ``dtype`` are the output's, which every incoming
    gradient must match.
    """

    __slots__ = ("parents", "rule", "grad", "shape", "dtype")

    def __init__(self, parents, rule, shape, dtype):
        self.parents = parents
        self.rule = rule
        self.grad = None
        self.shape = shape
        self.dtype = dtype


def _accumulate(target, g: np.ndarray, adoptable: bool):
    """Add ``g`` into the gradient of ``target``, a leaf Tensor or a node.

    The first gradient is adopted as it is when ``adoptable`` and it owns
    C-ordered memory, which is what a copy would be; otherwise it is copied.
    """
    if g.shape != target.shape:
        raise ValueError(
            f"backward rule produced shape {g.shape} for parent "
            f"of shape {target.shape}"
        )
    if g.dtype != target.dtype:
        raise TypeError(
            f"backward rule produced dtype {g.dtype} for parent "
            f"of dtype {target.dtype}"
        )
    if target.grad is None:
        own = adoptable and g.flags.owndata and g.flags.c_contiguous
        target.grad = g if own else g.copy()
    else:
        target.grad += g


def _resolved(g):
    """A rule's gradient for one parent, waiting for it if it is a Future."""
    return g.result() if isinstance(g, futures.Future) else g


def _consumed(g):
    """The rule of a node whose graph a ``backward()`` walk has consumed."""
    raise RuntimeError("an earlier backward() consumed this graph and freed what its "
                       "rules saved; build the graph again to differentiate it again")


_taping = True


@contextlib.contextmanager
def no_grad():
    """Record no tape inside the block, whatever the inputs require.

    Op results are constants: no node, and so nothing keeps the
    intermediate arrays alive. The previous state comes back on exit, also
    when the block raises.
    """
    global _taping
    previous, _taping = _taping, False
    try:
        yield
    finally:
        _taping = previous


def make_op(parents, out_data, backward_rule) -> Tensor:
    """Wrap an op result into the graph.

    Parents of different dtypes are refused, with taping on or off.
    ``backward_rule(out_grad) -> tuple of parent grads (or None)`` is only
    attached when some parent requires a gradient and taping is on; it goes
    into a new node, which links to the parents' nodes, not to the parents.

    The rule's contract: its closure saves arrays and flags, never a
    Tensor, so that no value outlives the forward code's use of it unless a
    rule reads it. And it returns fresh arrays, views of its incoming
    gradient, or Futures of fresh arrays (for any parent, see
    :meth:`Tensor.backward`), never an array it saved: the walk adopts a
    fresh array as a parent's gradient and adds into it in place.
    """
    dtype = parents[0].dtype
    for p in parents[1:]:
        if p.dtype != dtype:
            raise TypeError(f"mixed precisions: {dtype} vs {p.dtype}")
    out = Tensor(out_data)
    if _taping and any(p.requires_grad for p in parents):
        out.requires_grad = True
        links = tuple(p._node or (p if p.requires_grad else None) for p in parents)
        out._node = _Node(links, backward_rule, out.data.shape, out.data.dtype)
    return out


def _check_binary(a, b, opname: str):
    if not isinstance(a, Tensor) or not isinstance(b, Tensor):
        raise TypeError(f"{opname}: operands must be Tensors, got "
                        f"{type(a).__name__} and {type(b).__name__}")
    if a.shape != b.shape:
        raise ValueError(f"{opname}: shape mismatch {a.shape} vs {b.shape}")


def add(a: Tensor, b: Tensor) -> Tensor:
    _check_binary(a, b, "add")

    def rule(g):
        return g, g

    return make_op((a, b), a.data + b.data, rule)


def sub(a: Tensor, b: Tensor) -> Tensor:
    _check_binary(a, b, "sub")

    def rule(g):
        return g, np.negative(g)

    return make_op((a, b), a.data - b.data, rule)


def mul(a: Tensor, b: Tensor) -> Tensor:
    _check_binary(a, b, "mul")
    ad, bd = a.data, b.data

    def rule(g):
        return g * bd, g * ad

    return make_op((a, b), ad * bd, rule)


def scalar_mul(a: Tensor, c: float) -> Tensor:
    c = a.dtype.type(float(c))
    out = a.data * c

    def rule(g):
        return (g * c,)

    return make_op((a,), out, rule)


def leaky_relu(x: Tensor) -> Tensor:
    """LeakyReLU with the model's negative slope, 0.2."""
    slope = x.dtype.type(0.2)
    out = np.where(x.data >= 0, x.data, slope * x.data)
    xd = x.data

    def rule(g):
        return (np.where(xd >= 0, g, slope * g),)

    return make_op((x,), out, rule)


def gelu(x: Tensor) -> Tensor:
    """Exact (erf-form) GELU: 0.5 * x * (1 + erf(x / sqrt(2)))."""
    xd, dtype = x.data, x.dtype
    phi = 0.5 * (1.0 + erf(xd * _INV_SQRT2))
    out = (xd * phi).astype(dtype, copy=False)

    def rule(g):
        pdf = np.exp(-0.5 * xd * xd) * _INV_SQRT_2PI
        return ((g * (phi + xd * pdf)).astype(dtype),)

    return make_op((x,), out, rule)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.ndim != 2 or b.ndim != 2:
        raise ValueError(f"matmul expects 2-D operands, got {a.shape} and {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"matmul: inner extents differ, {a.shape} vs {b.shape}")
    out = a.data @ b.data
    ad, bd = a.data, b.data

    def rule(g):
        return g @ bd.T, ad.T @ g

    return make_op((a, b), out, rule)


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor) -> Tensor:
    """Per-row normalization over the last axis, then affine scale/shift."""
    dim = x.shape[-1]
    if gamma.shape != (dim,) or beta.shape != (dim,):
        raise ValueError(
            f"layer_norm: gamma/beta shapes {gamma.shape}/{beta.shape} "
            f"do not match feature dim {dim}"
        )
    xd, gd, dtype = x.data, gamma.data, x.dtype
    mu = xd.mean(axis=-1, keepdims=True)
    xc = xd - mu
    var = np.mean(xc * xc, axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + dtype.type(LAYER_NORM_EPS))
    xhat = xc * inv
    out = xhat * gd + beta.data

    def rule(g):
        dgamma = np.sum(g * xhat, axis=tuple(range(g.ndim - 1))).astype(dtype)
        dbeta = np.sum(g, axis=tuple(range(g.ndim - 1))).astype(dtype)
        dxhat = g * gd
        m1 = dxhat.mean(axis=-1, keepdims=True)
        m2 = (dxhat * xhat).mean(axis=-1, keepdims=True)
        dx = inv * (dxhat - m1 - xhat * m2)
        return dx.astype(dtype), dgamma, dbeta

    return make_op((x, gamma, beta), out.astype(dtype, copy=False), rule)


def reshape(x: Tensor, new_shape) -> Tensor:
    new_shape = tuple(int(s) for s in new_shape)
    if int(np.prod(new_shape)) != x.size:
        raise ValueError(f"reshape: cannot view {x.shape} as {new_shape}")
    old_shape = x.shape

    def rule(g):
        return (g.reshape(old_shape),)

    return make_op((x,), x.data.reshape(new_shape), rule)


def permute(x: Tensor, axes) -> Tensor:
    axes = tuple(int(a) for a in axes)
    if sorted(axes) != list(range(x.ndim)):
        raise ValueError(f"permute: {axes} is not a permutation of {x.ndim} axes")
    inv = np.argsort(axes)

    def rule(g):
        return (np.transpose(g, inv),)

    return make_op((x,), np.transpose(x.data, axes), rule)


def transpose2d(x: Tensor) -> Tensor:
    return permute(x, (1, 0))


def concat(tensors, axis: int = 0) -> Tensor:
    tensors = list(tensors)
    if not tensors:
        raise ValueError("concat of zero tensors")
    out = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def rule(g):
        pieces = []
        for i in range(len(sizes)):
            sl = [slice(None)] * g.ndim
            sl[axis] = slice(int(offsets[i]), int(offsets[i + 1]))
            pieces.append(g[tuple(sl)])
        return tuple(pieces)

    return make_op(tuple(tensors), out, rule)


def narrow(x: Tensor, axis: int, start: int, length: int) -> Tensor:
    """Contiguous slice along one axis; backward scatters into zeros."""
    sl = [slice(None)] * x.ndim
    sl[axis] = slice(start, start + length)
    sl = tuple(sl)
    shape = x.shape

    def rule(g):
        full = np.zeros(shape, dtype=g.dtype)
        full[sl] = g
        return (full,)

    return make_op((x,), x.data[sl].copy(), rule)


def sum_all(x: Tensor) -> Tensor:
    shape, dtype = x.shape, x.dtype

    def rule(g):
        return (np.full(shape, g, dtype=dtype),)

    return make_op((x,), np.array(x.data.sum(), dtype=dtype), rule)


def mean_all(x: Tensor) -> Tensor:
    n, shape, dtype = x.size, x.shape, x.dtype

    def rule(g):
        return (np.full(shape, g / n, dtype=dtype),)

    return make_op((x,), np.array(x.data.mean(), dtype=dtype), rule)


def add_rowvec(x: Tensor, b: Tensor) -> Tensor:
    """Add a vector to every row of a (rows, dim) tensor."""
    if x.ndim != 2 or b.shape != (x.shape[1],):
        raise ValueError(f"add_rowvec: {x.shape} + {b.shape}")

    def rule(g):
        return g, g.sum(axis=0)

    return make_op((x, b), x.data + b.data, rule)


class GradCheckReport:
    """Per-leaf max relative error between analytic and central differences."""

    def __init__(self):
        self.per_leaf: dict[str, float] = {}
        self.worst_leaf: str | None = None
        self.worst_err: float = 0.0

    def record(self, name: str, err: float):
        self.per_leaf[name] = max(self.per_leaf.get(name, 0.0), err)
        if err >= self.worst_err:
            self.worst_err = err
            self.worst_leaf = name

    def max_err(self) -> float:
        return self.worst_err

    def __repr__(self):
        return (
            f"GradCheckReport(max={self.worst_err:.3e} at {self.worst_leaf!r}, "
            f"{len(self.per_leaf)} leaves)"
        )


def grad_check(
    build,
    leaves: dict[str, np.ndarray],
    eps_scale: float = 1e-3,
    coords_per_leaf: int = 5,
    rng: np.random.Generator | None = None,
    wide: bool = False,
) -> GradCheckReport:
    """Compare analytic gradients against central finite differences.

    ``build`` maps a dict of leaf Tensors to a scalar-loss Tensor and must be
    deterministic. The analytic side runs at standard precision (or wide when
    ``wide=True``); the difference quotient is always evaluated in wide
    precision so the check measures the engine, not float32 roundoff. For each
    leaf, ``coords_per_leaf`` randomly chosen coordinates are probed with
    ``eps = eps_scale * scale(x)`` where ``scale(x) = max(1, rms(x))``. The
    reported error is ``|analytic - numeric| / max(1, |analytic|, |numeric|)``,
    i.e. relative for O(1)-or-larger gradients and absolute below that, which
    keeps central-difference truncation noise on near-zero entries from
    swamping the report.
    """
    if rng is None:
        rng = np.random.default_rng(0)

    dtype = WIDE if wide else STANDARD
    t_leaves = {
        k: Tensor(v.astype(dtype), requires_grad=True) for k, v in leaves.items()
    }
    loss = build(t_leaves)
    loss.backward()
    analytic = {}
    for k, t in t_leaves.items():
        analytic[k] = (
            np.zeros_like(t.data, dtype=WIDE) if t.grad is None else t.grad.astype(WIDE)
        )

    report = GradCheckReport()
    base = {k: v.astype(WIDE) for k, v in leaves.items()}
    for name, arr in base.items():
        n = arr.size
        k = min(coords_per_leaf, n)
        idx = rng.choice(n, size=k, replace=False) if n > k else np.arange(n)
        rms = float(np.sqrt(np.mean(arr ** 2))) if n else 1.0
        eps = eps_scale * max(1.0, rms)
        num = np.zeros(k, dtype=WIDE)
        for j, flat in enumerate(idx):
            for sign in (+1.0, -1.0):
                pert = {kk: vv.copy() for kk, vv in base.items()}
                pert[name].flat[flat] += sign * eps
                t = {kk: Tensor(vv, requires_grad=False) for kk, vv in pert.items()}
                val = float(build(t).data)
                num[j] += sign * val
            num[j] /= 2.0 * eps
        ana = analytic[name].flat[idx]
        for j in range(k):
            denom = max(abs(ana[j]), abs(num[j]), 1.0)
            report.record(name, abs(ana[j] - num[j]) / denom)
    return report
