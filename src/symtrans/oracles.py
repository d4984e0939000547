"""Naive wide-precision reference implementations.

These are deliberately written the slow, obvious way (fully nested loops,
direct formulas) and stay independent of the vectorized forward paths they
check. Each one backs a check of ``verify --suite oracles`` (acceptance
criterion A2): convolution, attention, trilinear warping and composition,
Adam, and the objective's similarity and smoothness terms. The test suite
runs them too.
"""

from __future__ import annotations

import math

import numpy as np


def conv3d_reference(x, w, b, stride=1, padding=0, groups=1):
    """Seven-deep nested-loop grouped 3-D convolution in float64."""
    x = np.asarray(x, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    cin, d, h, wi = x.shape
    cout, cig, k = w.shape[0], w.shape[1], w.shape[2]
    cog = cout // groups
    do = (d + 2 * padding - k) // stride + 1
    ho = (h + 2 * padding - k) // stride + 1
    wo = (wi + 2 * padding - k) // stride + 1
    out = np.zeros((cout, do, ho, wo))
    for o in range(cout):
        g = o // cog
        for zd in range(do):
            for zh in range(ho):
                for zw in range(wo):
                    acc = 0.0
                    for i in range(cig):
                        ci = g * cig + i
                        for a in range(k):
                            xd = zd * stride + a - padding
                            if xd < 0 or xd >= d:
                                continue
                            for bb in range(k):
                                xh = zh * stride + bb - padding
                                if xh < 0 or xh >= h:
                                    continue
                                for c in range(k):
                                    xw = zw * stride + c - padding
                                    if xw < 0 or xw >= wi:
                                        continue
                                    acc += w[o, i, a, bb, c] * x[ci, xd, xh, xw]
                    out[o, zd, zh, zw] = acc + b[o]
    return out


def attention_reference(q, k, v, heads):
    """Direct per-head softmax(Q K^T / sqrt(d_k)) V, before output projection."""
    q = np.asarray(q, dtype=np.float64)
    k = np.asarray(k, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    n, dm = q.shape
    m = k.shape[0]
    dk = dm // heads
    out = np.zeros((n, dm))
    for h in range(heads):
        qs = q[:, h * dk : (h + 1) * dk]
        ks = k[:, h * dk : (h + 1) * dk]
        vs = v[:, h * dk : (h + 1) * dk]
        for i in range(n):
            scores = np.array(
                [np.dot(qs[i], ks[j]) / math.sqrt(dk) for j in range(m)]
            )
            scores -= scores.max()
            weights = np.exp(scores)
            weights /= weights.sum()
            out[i, h * dk : (h + 1) * dk] = sum(
                weights[j] * vs[j] for j in range(m)
            )
    return out


def trilinear_reference(field, offsets):
    """Per-voxel trilinear pull with clamp-to-border, all scalar loops."""
    field = np.asarray(field, dtype=np.float64)
    offsets = np.asarray(offsets, dtype=np.float64)
    c, d, h, w = field.shape
    out = np.zeros_like(field)
    for zd in range(d):
        for zh in range(h):
            for zw in range(w):
                pd = min(max(zd + offsets[0, zd, zh, zw], 0.0), d - 1.0)
                ph = min(max(zh + offsets[1, zd, zh, zw], 0.0), h - 1.0)
                pw = min(max(zw + offsets[2, zd, zh, zw], 0.0), w - 1.0)
                d0, h0, w0 = int(pd), int(ph), int(pw)
                d1, h1, w1 = min(d0 + 1, d - 1), min(h0 + 1, h - 1), min(w0 + 1, w - 1)
                fd, fh, fw = pd - d0, ph - h0, pw - w0
                for ch in range(c):
                    f = field[ch]
                    out[ch, zd, zh, zw] = (
                        f[d0, h0, w0] * (1 - fd) * (1 - fh) * (1 - fw)
                        + f[d1, h0, w0] * fd * (1 - fh) * (1 - fw)
                        + f[d0, h1, w0] * (1 - fd) * fh * (1 - fw)
                        + f[d0, h0, w1] * (1 - fd) * (1 - fh) * fw
                        + f[d1, h1, w0] * fd * fh * (1 - fw)
                        + f[d1, h0, w1] * fd * (1 - fh) * fw
                        + f[d0, h1, w1] * (1 - fd) * fh * fw
                        + f[d1, h1, w1] * fd * fh * fw
                    )
    return out


def compose_reference(a, b):
    """(a after b)(p) = b(p) + a(p + b(p)), with a resampled trilinearly."""
    return np.asarray(b, dtype=np.float64) + trilinear_reference(a, b)


def adam_reference(x0, grad_fn, lr, beta1=0.9, beta2=0.999, eps=1e-8, steps=10):
    """Scalar-loop Adam in float64; returns the trajectory of iterates."""
    x = np.asarray(x0, dtype=np.float64).copy()
    m = np.zeros_like(x)
    v = np.zeros_like(x)
    traj = [x.copy()]
    for t in range(1, steps + 1):
        g = np.asarray(grad_fn(x), dtype=np.float64)
        for i in range(x.size):
            m.flat[i] = beta1 * m.flat[i] + (1 - beta1) * g.flat[i]
            v.flat[i] = beta2 * v.flat[i] + (1 - beta2) * g.flat[i] ** 2
            mhat = m.flat[i] / (1 - beta1 ** t)
            vhat = v.flat[i] / (1 - beta2 ** t)
            x.flat[i] -= lr * mhat / (math.sqrt(vhat) + eps)
        traj.append(x.copy())
    return traj


def mse_reference(a, b):
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    acc = 0.0
    for u, w in zip(a.flat, b.flat):
        acc += (u - w) ** 2
    return acc / a.size


def smoothness_reference(u):
    """Mean squared forward difference, averaged over the three axes."""
    u = np.asarray(u, dtype=np.float64)
    terms = []
    for axis in (1, 2, 3):
        d = np.diff(u, axis=axis)
        acc = 0.0
        for val in d.flat:
            acc += val * val
        terms.append(acc / d.size)
    return sum(terms) / 3.0
