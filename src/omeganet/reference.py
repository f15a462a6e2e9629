"""Scalar-loop reference implementations and the finite-difference checker.

These are deliberately dumb: nested Python loops over ndarray elements, no
vectorization, no shared code with the fast paths in :mod:`omeganet.tensor`.
They exist to cross-check the production kernels at desk scale and are far
too slow for anything else.
"""
from __future__ import annotations

import math

import numpy as np

from .tensor import Tensor, no_grad
from .train import BETA1, BETA2, EPS, DivergenceError


def conv2d_naive(x, w, b, stride=1, padding=0, dilation=1):
    """Direct 4-loop convolution over an (N, C, H, W) ndarray."""
    n, c_in, h, wd = x.shape
    c_out, _, kh, kw = w.shape
    out_h = (h + 2 * padding - dilation * (kh - 1) - 1) // stride + 1
    out_w = (wd + 2 * padding - dilation * (kw - 1) - 1) // stride + 1
    out = np.zeros((n, c_out, out_h, out_w), dtype=x.dtype)
    for ni in range(n):
        for o in range(c_out):
            for y in range(out_h):
                for xx in range(out_w):
                    acc = b[o]
                    for c in range(c_in):
                        for i in range(kh):
                            for j in range(kw):
                                yy = y * stride - padding + i * dilation
                                xj = xx * stride - padding + j * dilation
                                if 0 <= yy < h and 0 <= xj < wd:
                                    acc = acc + w[o, c, i, j] * x[ni, c, yy, xj]
                    out[ni, o, y, xx] = acc
    return out


def transposed_conv2d_naive(x, w, b, stride=2):
    """Scatter-accumulate transposed convolution; weight is (C_in, C_out, kH, kW)."""
    n, c_in, h, wd = x.shape
    _, c_out, kh, kw = w.shape
    out_h = (h - 1) * stride + kh
    out_w = (wd - 1) * stride + kw
    out = np.zeros((n, c_out, out_h, out_w), dtype=x.dtype)
    for ni in range(n):
        for c in range(c_in):
            for y in range(h):
                for xx in range(wd):
                    for o in range(c_out):
                        for i in range(kh):
                            for j in range(kw):
                                out[ni, o, y * stride + i, xx * stride + j] += (
                                    w[c, o, i, j] * x[ni, c, y, xx]
                                )
    out += b.reshape(1, c_out, 1, 1)
    return out


def maxpool2d_naive(x, window=2):
    n, c, h, w = x.shape
    out_h, out_w = h // window, w // window
    out = np.empty((n, c, out_h, out_w), dtype=x.dtype)
    for ni in range(n):
        for ci in range(c):
            for y in range(out_h):
                for xx in range(out_w):
                    best = x[ni, ci, y * window, xx * window]
                    for i in range(window):
                        for j in range(window):
                            v = x[ni, ci, y * window + i, xx * window + j]
                            if v > best:
                                best = v
                    out[ni, ci, y, xx] = best
    return out


def adaptive_pool_naive(x, k):
    """Contiguous-bin means over row-major flattened positions; returns (N, C, k)."""
    n, c, h, w = x.shape
    npos = h * w
    flat = x.reshape(n, c, npos)
    out = np.empty((n, c, k), dtype=x.dtype)
    for b in range(k):
        lo = (b * npos) // k
        hi = ((b + 1) * npos) // k
        for ni in range(n):
            for ci in range(c):
                s = 0.0
                for p in range(lo, hi):
                    s += flat[ni, ci, p]
                out[ni, ci, b] = s / (hi - lo)
    return out


def matmul_naive(a, b):
    r, s = a.shape
    s2, t = b.shape
    out = np.zeros((r, t), dtype=a.dtype)
    for i in range(r):
        for kk in range(s):
            for j in range(t):
                out[i, j] += a[i, kk] * b[kk, j]
    return out


def softmax_naive(x):
    """Two-pass exp/normalize per row, no stabilization."""
    out = np.empty_like(x)
    for r in range(x.shape[0]):
        e = [math.exp(v) for v in x[r]]
        z = sum(e)
        for c, ev in enumerate(e):
            out[r, c] = ev / z
    return out


def spatial_attention_naive(m2, d):
    """Dense position attention on one item: m2 is (C, N), d is (C, K).

    a[j, i] = exp(d_i . m_j) / sum_i' exp(d_i' . m_j); out_j = sum_i a[j, i] d_i + m_j.
    Returns (out (C, N), a (N, K)).
    """
    c, npos = m2.shape
    _, k = d.shape
    a = np.zeros((npos, k), dtype=m2.dtype)
    for j in range(npos):
        logits = [sum(d[ci, i] * m2[ci, j] for ci in range(c)) for i in range(k)]
        e = [math.exp(v) for v in logits]
        z = sum(e)
        for i in range(k):
            a[j, i] = e[i] / z
    out = np.zeros_like(m2)
    for j in range(npos):
        for ci in range(c):
            s = 0.0
            for i in range(k):
                s += a[j, i] * d[ci, i]
            out[ci, j] = s + m2[ci, j]
    return out, a


def channel_attention_naive(m2):
    """Channel attention on one item: m2 is (C, N).

    a[j, i] = exp(m_i . m_j) / sum_i' exp(m_i' . m_j) over channels;
    out_j = sum_i a[j, i] m_i + m_j.  Returns (out (C, N), a (C, C)).
    """
    c, npos = m2.shape
    a = np.zeros((c, c), dtype=m2.dtype)
    for j in range(c):
        logits = [sum(m2[i, p] * m2[j, p] for p in range(npos)) for i in range(c)]
        mx = max(logits)
        e = [math.exp(v - mx) for v in logits]
        z = sum(e)
        for i in range(c):
            a[j, i] = e[i] / z
    out = np.zeros_like(m2)
    for j in range(c):
        for p in range(npos):
            s = 0.0
            for i in range(c):
                s += a[j, i] * m2[i, p]
            out[j, p] = s + m2[j, p]
    return out, a


def bce_naive(logits, target):
    """Plain sigmoid + log formula in float64; assumes moderate logits."""
    z = logits.astype(np.float64)
    y = target.astype(np.float64)
    p = 1.0 / (1.0 + np.exp(-z))
    total = 0.0
    for zi, yi, pi in zip(z.ravel(), y.ravel(), p.ravel()):
        total += -(yi * math.log(pi) + (1.0 - yi) * math.log(1.0 - pi))
    return total / z.size


def metrics_naive(prob, mask, threshold=0.5):
    """Per-channel confusion counts by per-pixel loops; returns list of dicts."""
    n, l, h, w = prob.shape
    reports = []
    for c in range(l):
        tp = fp = fn = tn = 0
        for ni in range(n):
            for y in range(h):
                for x in range(w):
                    p = prob[ni, c, y, x] > threshold
                    t = mask[ni, c, y, x] > 0.5
                    if p and t:
                        tp += 1
                    elif p and not t:
                        fp += 1
                    elif t:
                        fn += 1
                    else:
                        tn += 1
        reports.append({"tp": tp, "fp": fp, "fn": fn, "tn": tn})
    return reports


def adam_step_naive(params, grads, state) -> None:
    """Adam as one whole-array formula per parameter, rebinding ``p.data``.

    The oracle for ``train.adam_step``: g <- grad + weight_decay * param;
    m, v exponential moments with bias correction;
    param <- param - lr * m_hat / (sqrt(v_hat) + eps).
    """
    for name, _ in params:
        if not np.isfinite(grads[name]).all():
            raise DivergenceError(f"non-finite gradient for parameter {name!r}")
    state.t += 1
    bc1 = 1.0 - BETA1 ** state.t
    bc2 = 1.0 - BETA2 ** state.t
    for name, p in params:
        g = grads[name]
        if g.shape != p.data.shape:
            raise ValueError(
                f"gradient shape {g.shape} does not match parameter {name!r} {p.data.shape}"
            )
        if state.weight_decay:
            g = g + state.weight_decay * p.data
        m = state.m.get(name)
        if m is None:
            m = state.m[name] = np.zeros_like(p.data)
            state.v[name] = np.zeros_like(p.data)
        v = state.v[name]
        m *= BETA1
        m += (1.0 - BETA1) * g
        v *= BETA2
        v += (1.0 - BETA2) * (g * g)
        p.data = p.data - state.lr * (m / bc1) / (np.sqrt(v / bc2) + EPS)


def kaiming_conv_naive(rng, in_channels, out_channels, kernel, *, transposed=False,
                       dtype=np.float32) -> np.ndarray:
    """Kaiming-uniform fan-in weight drawn whole in float64, then cast.

    The oracle for ``blocks.kaiming_conv``'s chunked fill.
    """
    fan_in = in_channels * kernel * kernel
    bound = np.sqrt(6.0 / fan_in)
    if transposed:
        shape = (in_channels, out_channels, kernel, kernel)
    else:
        shape = (out_channels, in_channels, kernel, kernel)
    return rng.uniform(-bound, bound, size=shape).astype(dtype)


# ---------------------------------------------------------------------------
# Finite differences
# ---------------------------------------------------------------------------

def finite_difference_grad(loss_fn, param: Tensor, h: float = 1e-3) -> np.ndarray:
    """Central-difference gradient of a scalar-valued closure w.r.t. one tensor.

    Perturbs each element of ``param.data`` in place; the closure must
    recompute the loss from scratch.  Run in float64.
    """
    flat = param.data.ravel()
    grad = np.zeros_like(flat)
    with no_grad():
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            f_plus = loss_fn()
            flat[i] = orig - h
            f_minus = loss_fn()
            flat[i] = orig
            grad[i] = (f_plus - f_minus) / (2.0 * h)
    return grad.reshape(param.shape)


def relative_error(a: np.ndarray, b: np.ndarray) -> float:
    """max |a - b| scaled by the larger of the two max-norms; 0 when both vanish."""
    denom = max(np.abs(a).max(initial=0.0), np.abs(b).max(initial=0.0))
    if denom == 0.0:
        return 0.0
    return float(np.abs(a - b).max() / denom)


def check_gradients(loss_fn, named_params, h: float = 1e-3):
    """Compare autodiff gradients against central differences for every tensor.

    ``loss_fn()`` must rebuild the graph and return the scalar loss Tensor.
    Returns a dict name -> relative error.
    """
    for _, p in named_params:
        p.zero_grad()
    loss = loss_fn()
    loss.backward()
    errors = {}
    for name, p in named_params:
        ad = p.grad if p.grad is not None else np.zeros_like(p.data)
        fd = finite_difference_grad(lambda: loss_fn().item(), p, h=h)
        errors[name] = relative_error(ad, fd)
    return errors
