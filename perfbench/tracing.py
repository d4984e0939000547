"""Spans and work counters recorded around the public functions of symtrans.

The tracer rebinds functions from the outside: every module of the package
that holds a reference to a traced function (``from .ops import conv3d`` makes
a copy in ``model`` and ``cemsa``) gets the wrapper, so no call path escapes.
Backward rules are timed by wrapping ``make_op`` as each module sees it; the
rule is keyed by the op that created the node.

Spans stay in memory as ``[name, start, end, parent, op]`` and are written out
when the run ends. A layer's self time is its span minus its child spans;
whatever an op spends outside every span is reported as ``unattributed.s``.
All byte counts are computed from array sizes, not measured traffic.
"""

from __future__ import annotations

import functools
import json
import os
import sys
from collections import defaultdict
from time import perf_counter

import numpy as np

from symtrans import cemsa, deformation, losses, model, ops, svol, tensor, training

# Every per-layer metric a traced run reports, with its unit, in the order of
# BENCHMARK.json. Times are per-op self times; counts and bytes are per op.
LAYER_METRICS = (
    ("ops.conv3d.dw.fwd_s", "s"),
    ("ops.conv3d.dw.bwd_s", "s"),
    ("ops.conv3d.dw.macs", "count"),
    ("ops.conv3d.dw.bytes", "B"),
    ("ops.conv3d.other.fwd_s", "s"),
    ("ops.conv3d.other.bwd_s", "s"),
    ("ops.conv3d.other.macs", "count"),
    ("ops.conv3d.other.bytes", "B"),
    ("ops.conv3d.calls", "count"),
    ("cemsa.cemsa_block.fwd_s", "s"),
    ("cemsa.multi_head_attention.fwd_s", "s"),
    ("cemsa.multi_head_attention.score_bytes", "B"),
    ("tensor.backward.s", "s"),
    ("tensor.tape.nodes", "count"),
    ("tensor.tape.bytes", "B"),
    ("tensor.matmul.bwd_s", "s"),
    ("tensor.softmax_lastdim.bwd_s", "s"),
    ("tensor.layer_norm.bwd_s", "s"),
    ("tensor.other.bwd_s", "s"),
    ("tensor.matmul.macs", "count"),
    ("deformation.trilinear_sample.fwd_s", "s"),
    ("deformation.trilinear_sample.bwd_s", "s"),
    ("deformation.trilinear_sample.calls", "count"),
    ("deformation.integrate.s", "s"),
    ("deformation.jacobian_determinant.s", "s"),
    ("deformation.jacobian_determinant.calls", "count"),
    ("losses.total_loss.s", "s"),
    ("losses.metrics_report.s", "s"),
    ("training.generate_pair.s", "s"),
    ("training.adam_step.s", "s"),
    ("training.register.s", "s"),
    ("model.forward.s", "s"),
    ("model.forward.macs", "count"),
    ("model.save_checkpoint.s", "s"),
    ("model.save_checkpoint.bytes", "B"),
    ("model.load_checkpoint.s", "s"),
    ("model.load_checkpoint.bytes", "B"),
    ("svol.read_svol.s", "s"),
    ("svol.write_svol.s", "s"),
    ("svol.bytes", "B"),
    ("unattributed.s", "s"),
    ("trace.overhead", "ratio"),
)

# Backward-rule span per creating function; every other creator is tensor.other.
_BWD_SPANS = {
    "trilinear_sample": "deformation.trilinear_sample.bwd_s",
    "matmul": "tensor.matmul.bwd_s",
    "softmax_lastdim": "tensor.softmax_lastdim.bwd_s",
    "layer_norm": "tensor.layer_norm.bwd_s",
}


def _conv_kind(x_shape, weight_shape) -> str:
    """``dw`` when groups equal the channels and k > 1 (the CEMSA trunk)."""
    out_ch, in_per_group, k = weight_shape[0], weight_shape[1], weight_shape[2]
    return "dw" if in_per_group == 1 and out_ch == x_shape[0] and k > 1 else "other"


class Patches:
    """Attribute rebindings that can be undone in reverse order."""

    def __init__(self):
        self._undo = []

    def set(self, obj, name, value):
        self._undo.append((obj, name, getattr(obj, name)))
        setattr(obj, name, value)

    def replace_everywhere(self, original, wrapper):
        """Rebind ``original`` in every loaded symtrans module that holds it."""
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "symtrans"
                                   or mod_name.startswith("symtrans.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self.set(mod, attr, wrapper)

    def undo(self):
        while self._undo:
            obj, name, value = self._undo.pop()
            setattr(obj, name, value)


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self.op = None  # index of the op being timed, None outside timed ops
        self.counts = defaultdict(lambda: defaultdict(float))
        self._forward_depth = 0
        self._patches = Patches()

    # --- recording -------------------------------------------------------

    def _open(self, name) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter(), 0.0, parent, self.op])
        self._stack.append(idx)
        return idx

    def _close(self, idx):
        self.spans[idx][2] = perf_counter()
        self._stack.pop()

    def count(self, name, value=1):
        if self.op is not None:
            self.counts[self.op][name] += value

    def _count_macs(self, name, macs):
        self.count(name, macs)
        if self._forward_depth:
            self.count("model.forward.macs", macs)

    # --- wrappers --------------------------------------------------------

    def _timed(self, fn, name, after=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if after is not None:
                after(out, *args, **kwargs)
            return out

        return wrapper

    def _conv3d(self, fn):
        @functools.wraps(fn)
        def conv3d(x, p):
            kind = _conv_kind(x.shape, p.weight.shape)
            idx = self._open(f"ops.conv3d.{kind}.fwd_s")
            try:
                out = fn(x, p)
            finally:
                self._close(idx)
            w = p.weight.data
            self._count_macs(f"ops.conv3d.{kind}.macs",
                             out.data.size * int(np.prod(w.shape[1:])))
            self.count(f"ops.conv3d.{kind}.bytes", x.data.nbytes + w.nbytes
                       + p.bias.data.nbytes + out.data.nbytes)
            self.count("ops.conv3d.calls")
            return out

        return conv3d

    def _matmul(self, fn):
        @functools.wraps(fn)
        def matmul(a, b):
            self._count_macs("tensor.matmul.macs", a.shape[0] * a.shape[1] * b.shape[1])
            return fn(a, b)

        return matmul

    def _forward(self, fn):
        timed = self._timed(fn, "model.forward.s")

        @functools.wraps(fn)
        def forward(*args, **kwargs):
            self._forward_depth += 1
            try:
                return timed(*args, **kwargs)
            finally:
                self._forward_depth -= 1

        return forward

    def _make_op(self, fn):
        @functools.wraps(fn)
        def make_op(parents, out_data, backward_rule):
            creator = sys._getframe(1).f_code.co_name
            if creator == "conv3d":
                name = f"ops.conv3d.{_conv_kind(parents[0].shape, parents[1].shape)}.bwd_s"
            else:
                name = _BWD_SPANS.get(creator, "tensor.other.bwd_s")

            def rule(grad):
                idx = self._open(name)
                try:
                    return backward_rule(grad)
                finally:
                    self._close(idx)

            out = fn(parents, out_data, rule)
            if out.requires_grad:
                self.count("tensor.tape.nodes")
                self.count("tensor.tape.bytes", out.data.nbytes)
            return out

        return make_op

    def _backward(self, fn):
        @functools.wraps(fn)
        def backward(node):
            idx = self._open("tensor.backward.s")
            try:
                return fn(node)
            finally:
                self._close(idx)

        return backward

    def install(self):
        """Rebind every traced function in every symtrans module."""
        def file_bytes(counter):
            def after(out, path, *args, **kwargs):
                self.count(counter, os.path.getsize(path))
            return after

        def mha_scores(out, q, k, v, heads, *args, **kwargs):
            self.count("cemsa.multi_head_attention.score_bytes",
                       heads * q.shape[0] * k.shape[0] * q.data.itemsize)

        def calls(counter):
            return lambda *args, **kwargs: self.count(counter)

        wrappers = [
            (ops.conv3d, self._conv3d(ops.conv3d)),
            (tensor.matmul, self._matmul(tensor.matmul)),
            (tensor.make_op, self._make_op(tensor.make_op)),
            (model.forward, self._forward(model.forward)),
            (cemsa.cemsa_block, self._timed(cemsa.cemsa_block, "cemsa.cemsa_block.fwd_s")),
            (cemsa.multi_head_attention,
             self._timed(cemsa.multi_head_attention,
                         "cemsa.multi_head_attention.fwd_s", mha_scores)),
            (deformation.trilinear_sample,
             self._timed(deformation.trilinear_sample, "deformation.trilinear_sample.fwd_s",
                         calls("deformation.trilinear_sample.calls"))),
            (deformation.integrate, self._timed(deformation.integrate, "deformation.integrate.s")),
            (deformation.jacobian_determinant,
             self._timed(deformation.jacobian_determinant, "deformation.jacobian_determinant.s",
                         calls("deformation.jacobian_determinant.calls"))),
            (losses.total_loss, self._timed(losses.total_loss, "losses.total_loss.s")),
            (losses.metrics_report, self._timed(losses.metrics_report, "losses.metrics_report.s")),
            (training.generate_pair, self._timed(training.generate_pair, "training.generate_pair.s")),
            (training.adam_step, self._timed(training.adam_step, "training.adam_step.s")),
            (training.register, self._timed(training.register, "training.register.s")),
            (model.save_checkpoint,
             self._timed(model.save_checkpoint, "model.save_checkpoint.s",
                         file_bytes("model.save_checkpoint.bytes"))),
            (model.load_checkpoint,
             self._timed(model.load_checkpoint, "model.load_checkpoint.s",
                         file_bytes("model.load_checkpoint.bytes"))),
            (svol.read_svol, self._timed(svol.read_svol, "svol.read_svol.s",
                                         file_bytes("svol.bytes"))),
            (svol.write_svol, self._timed(svol.write_svol, "svol.write_svol.s",
                                          file_bytes("svol.bytes"))),
        ]
        for original, wrapper in wrappers:
            self._patches.replace_everywhere(original, wrapper)
        self._patches.set(tensor.Tensor, "backward", self._backward(tensor.Tensor.backward))

    def uninstall(self):
        self._patches.undo()

    # --- reporting -------------------------------------------------------

    def layer_metrics(self, timed_ops) -> dict:
        """Per-op means over ``timed_ops`` of every self time and counter.

        ``timed_ops`` maps op index to its wall seconds. ``trace.overhead`` is
        left to the caller, which holds the untraced timings.
        """
        n = len(timed_ops)
        self_time = defaultdict(float)
        child = [0.0] * len(self.spans)
        for name, start, end, parent, op in self.spans:
            if parent >= 0:
                child[parent] += end - start
        for (name, start, end, parent, op), inner in zip(self.spans, child):
            if op in timed_ops:
                self_time[name] += end - start - inner
        out = {}
        for name, unit in LAYER_METRICS:
            if name == "unattributed.s":
                out[name] = (sum(timed_ops.values()) - sum(self_time.values())) / n
            elif unit == "s":
                out[name] = self_time[name] / n
            elif name != "trace.overhead":
                out[name] = sum(self.counts[op][name] for op in timed_ops) / n
        return out

    def write_spans(self, path):
        with open(path, "w") as f:
            for span in self.spans:
                f.write(json.dumps(span) + "\n")
