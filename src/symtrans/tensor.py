"""Reverse-mode autodiff on N-dimensional numpy arrays.

Every learnable operation in the package is built from the ops here (or
registers its own forward/backward pair through :func:`make_op`). Two scalar
precisions are supported as a tensor-level attribute: ``float32`` (standard,
used for training) and ``float64`` (wide, used for gradient checks and
oracles). Every op refuses parents of different dtypes (:func:`make_op`
checks), and ``add``, ``sub`` and ``mul`` take two Tensors of one shape:
nothing is broadcast or coerced. Inside :func:`no_grad` the ops compute the
same values but record no tape.
"""

from __future__ import annotations

import contextlib
from concurrent import futures

import numpy as np
from scipy.special import erf

STANDARD = np.float32
WIDE = np.float64

_INV_SQRT2 = 0.7071067811865476
_INV_SQRT_2PI = 0.3989422804014327


class Tensor:
    """Array value participating in a reverse-mode differentiation graph.

    ``data`` is a numpy array (float32 or float64), ``grad`` is populated by
    :meth:`backward` for every leaf with ``requires_grad``. Non-leaf tensors
    keep references to their parents and a backward rule closure until a
    :meth:`backward` walk consumes them.
    """

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward_rule")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        arr = np.asarray(data)
        if dtype is not None:
            arr = arr.astype(dtype, copy=False)
        elif arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(STANDARD)
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self._parents = ()
        self._backward_rule = None

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

        The graph is traversed in exact reverse execution order (reverse
        topological order); gradients flowing into a node reached through
        several paths accumulate additively, in the order the rules produce
        them: the first is copied, the rest are added in place.

        The walk consumes the graph: once a node's rule has run, the node
        drops its gradient, its parents and its rule, and with the rule the
        arrays the rule's closure saved. Only leaves keep their gradients. A
        second ``backward()`` through a consumed node raises a
        ``RuntimeError``; build the graph again instead.

        A rule may return a ``concurrent.futures.Future`` as the gradient of
        a leaf (a parent with no backward rule), for work another thread
        finishes while the walk goes on: no later rule reads a leaf's
        gradient. From its first Future on, a leaf's contributions wait in
        order and are resolved and accumulated after the walk, so the bytes
        are those of the inline walk. A Future for any other parent is a
        ``TypeError``. Every Future is waited for on every exit path, also
        when a rule raises, and only then is the first error raised.
        """
        if self.data.size != 1:
            raise ValueError(
                f"backward() needs a scalar loss, got shape {self.data.shape}"
            )
        order: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in seen and p.requires_grad:
                    stack.append((p, False))

        self.grad = np.ones_like(self.data)
        pending: list[futures.Future] = []
        # leaf -> its contributions from its first Future on
        deferred: dict[Tensor, list] = {}
        try:
            while order:
                node = order.pop()  # the walk holds no node it has passed
                rule, parents, g_out = node._backward_rule, node._parents, node.grad
                if rule is None:
                    continue  # a leaf keeps its gradient
                node._backward_rule, node._parents, node.grad = _consumed, (), None
                if g_out is None:
                    continue
                grads = rule(g_out)
                for parent, g in zip(parents, grads):
                    if isinstance(g, futures.Future):
                        pending.append(g)
                        if parent._backward_rule is not None:
                            raise TypeError("backward rule returned a Future for a "
                                            "parent that has a backward rule")
                    if g is None or not parent.requires_grad:
                        continue
                    if isinstance(g, futures.Future) or parent in deferred:
                        deferred.setdefault(parent, []).append(g)
                    else:
                        parent._accumulate(g)
        finally:
            futures.wait(pending)
        for future in pending:
            future.result()
        for parent, contributions in deferred.items():
            for g in contributions:
                parent._accumulate(g.result() if isinstance(g, futures.Future) else g)

    def _accumulate(self, g: np.ndarray):
        if g.shape != self.data.shape:
            raise ValueError(
                f"backward rule produced shape {g.shape} for parent "
                f"of shape {self.data.shape}"
            )
        if g.dtype != self.data.dtype:
            raise TypeError(
                f"backward rule produced dtype {g.dtype} for parent "
                f"of dtype {self.data.dtype}"
            )
        if self.grad is None:
            self.grad = g.copy()
        else:
            self.grad += g

    def __repr__(self):
        return f"Tensor(shape={tuple(self.shape)}, dtype={self.data.dtype}, requires_grad={self.requires_grad})"


def _consumed(g):
    """The rule of a node whose graph a ``backward()`` walk has consumed."""
    raise RuntimeError("an earlier backward() consumed this graph and freed what its "
                       "rules saved; build the graph again to differentiate it again")


_taping = True


@contextlib.contextmanager
def no_grad():
    """Record no tape inside the block, whatever the inputs require.

    Op results are constants: no parents, no backward rule, and so nothing
    keeps the intermediate arrays alive. The previous state comes back on
    exit, also when the block raises.
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
    attached when some parent requires a gradient and taping is on.
    """
    dtype = parents[0].dtype
    for p in parents[1:]:
        if p.dtype != dtype:
            raise TypeError(f"mixed precisions: {dtype} vs {p.dtype}")
    out = Tensor(out_data)
    if _taping and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward_rule = backward_rule
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
    c = float(c)
    out = a.data * a.dtype.type(c)

    def rule(g):
        return (g * a.dtype.type(c),)

    return make_op((a,), out, rule)


def leaky_relu(x: Tensor, slope: float = 0.2) -> Tensor:
    out = np.where(x.data >= 0, x.data, x.dtype.type(slope) * x.data)
    xd = x.data

    def rule(g):
        return (np.where(xd >= 0, g, x.dtype.type(slope) * g),)

    return make_op((x,), out, rule)


def gelu(x: Tensor) -> Tensor:
    """Exact (erf-form) GELU: 0.5 * x * (1 + erf(x / sqrt(2)))."""
    xd = x.data
    phi = 0.5 * (1.0 + erf(xd * _INV_SQRT2))
    out = (xd * phi).astype(x.dtype, copy=False)

    def rule(g):
        pdf = np.exp(-0.5 * xd * xd) * _INV_SQRT_2PI
        return ((g * (phi + xd * pdf)).astype(x.dtype),)

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


def softmax_lastdim(x: Tensor) -> Tensor:
    """Numerically stable softmax over the last axis."""
    xd = x.data
    # exp and normalize in place: the shifted copy is the only temporary
    s = xd - xd.max(axis=-1, keepdims=True)
    np.exp(s, out=s)
    np.divide(s, s.sum(axis=-1, keepdims=True), out=s)

    def rule(g):
        dot = np.sum(g * s, axis=-1, keepdims=True)
        return (s * (g - dot),)

    return make_op((x,), s.astype(x.dtype, copy=False), rule)


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-5) -> Tensor:
    """Per-row normalization over the last axis, then affine scale/shift."""
    dim = x.shape[-1]
    if gamma.shape != (dim,) or beta.shape != (dim,):
        raise ValueError(
            f"layer_norm: gamma/beta shapes {gamma.shape}/{beta.shape} "
            f"do not match feature dim {dim}"
        )
    xd = x.data
    mu = xd.mean(axis=-1, keepdims=True)
    xc = xd - mu
    var = np.mean(xc * xc, axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + x.dtype.type(eps))
    xhat = xc * inv
    out = xhat * gamma.data + beta.data

    def rule(g):
        dgamma = np.sum(g * xhat, axis=tuple(range(g.ndim - 1))).astype(x.dtype)
        dbeta = np.sum(g, axis=tuple(range(g.ndim - 1))).astype(x.dtype)
        dxhat = g * gamma.data
        m1 = dxhat.mean(axis=-1, keepdims=True)
        m2 = (dxhat * xhat).mean(axis=-1, keepdims=True)
        dx = inv * (dxhat - m1 - xhat * m2)
        return dx.astype(x.dtype), dgamma, dbeta

    return make_op((x, gamma, beta), out.astype(x.dtype, copy=False), rule)


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
    shape = x.shape

    def rule(g):
        return (np.full(shape, g, dtype=x.dtype),)

    return make_op((x,), np.array(x.data.sum(), dtype=x.dtype), rule)


def mean_all(x: Tensor) -> Tensor:
    n = x.size
    shape = x.shape

    def rule(g):
        return (np.full(shape, g / n, dtype=x.dtype),)

    return make_op((x,), np.array(x.data.mean(), dtype=x.dtype), rule)


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
