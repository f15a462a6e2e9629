"""Dense float tensors with reverse-mode automatic differentiation.

Everything is stored row-major; feature maps are rank-4 (N, C, H, W) and
attention matrices are plain rank-2/3 arrays.  The graph is rebuilt on every
forward pass: each op that has a tracked input returns a Tensor carrying a
backward closure over its parents, and ``Tensor.backward()`` replays those
closures in reverse topological order.  Every closure hands each operand's
gradient to ``_accumulate``, which drops it for an operand that needs none
and keeps, instead of copying, a buffer the closure made for it alone.
Backward consumes the graph: once a node's closure has run, the node drops
its gradient, closure and parents, so each intermediate output is freed as
soon as its last consumer is done.

A tensor may be built with a pending fill (``Tensor.pending``): its shape and
dtype are known but it holds no memory until the first read of ``data``,
which allocates the array, runs the fill once and drops it.  ``shape``,
``ndim``, ``size`` and ``dtype`` never run it, and assigning ``data``
discards it, so a weight that is replaced before it is read is never filled.

Ops preserve the dtype of their inputs.  Networks run in float32; the
gradient-check suites build float64 tensors and exercise the identical code
paths.  A conv is im2col + GEMM (the naive loops in :mod:`omeganet.reference`
are test oracles), with stride 1, an odd square kernel, any dilation and
"same" zero padding, so it keeps its input's extent.  im2col copies one
strided window view of a zero buffer holding the input rows it needs.  The
forward gathers each sample's columns in tiles of whole output rows, about
``CONV_TILE_BYTES`` each, and each tile's GEMM writes its slice of the
output; floors on a tile's columns, multiply-adds and alignment keep every
tile's GEMM rounding as the whole product does, so tiling moves no bits.
col2im adds each kernel tap's shifted, clipped slab straight into the input
gradient.  The backward gathers each sample's columns whole for the weight
gradient, since splitting that sum over positions would move bits.  A conv
may end in relu, clamping its output in place and masking the gradient by
out > 0, so the tape keeps no pre-activation.  A transposed conv up-samples by its square
kernel's size k with stride k; its windows never overlap, so it is a GEMM
plus a pixel shuffle.
"""
from __future__ import annotations

import math

import numpy as np


class ShapeError(ValueError):
    """An operand shape violates the operation's contract."""


_grad_enabled = True


class no_grad:
    """Disable graph recording inside a ``with`` block (inference, finite differences)."""

    def __enter__(self):
        global _grad_enabled
        self._prev = _grad_enabled
        _grad_enabled = False

    def __exit__(self, *exc):
        global _grad_enabled
        _grad_enabled = self._prev
        return False


class Tensor:
    """A numpy array plus the bookkeeping needed for reverse-mode autodiff.

    Attributes:
        data: the underlying ndarray (float32 or float64); a pending fill runs
            on its first read.
        requires_grad: whether gradients should be accumulated into ``grad``.
        grad: ndarray of the same shape as ``data``, populated by ``backward``.
    """

    __slots__ = ("_data", "_fill", "requires_grad", "grad", "_parents", "_backward_fn",
                 "__weakref__")

    def __init__(self, data, requires_grad=False, dtype=None):
        arr = np.asarray(data, dtype=dtype)
        if not np.issubdtype(arr.dtype, np.floating):
            arr = arr.astype(np.float32)
        self._data = arr
        self._fill = None
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self._parents = ()
        self._backward_fn = None

    @classmethod
    def pending(cls, shape, dtype, fill):
        """A tracked tensor (a parameter) whose array is allocated and passed
        to ``fill`` on the first read of ``data``; until then it holds a
        zero-stride placeholder that only answers ``shape``, ``ndim``,
        ``size`` and ``dtype``."""
        t = cls(np.broadcast_to(np.zeros((), dtype=dtype), shape), requires_grad=True)
        t._fill = fill
        return t

    @property
    def data(self):
        if self._fill is not None:
            arr = np.empty(self._data.shape, dtype=self._data.dtype)
            self._fill(arr)
            self.data = arr
        return self._data

    @data.setter
    def data(self, arr):
        self._data = arr
        self._fill = None

    @property
    def shape(self):
        return self._data.shape

    @property
    def ndim(self):
        return self._data.ndim

    @property
    def dtype(self):
        return self._data.dtype

    @property
    def size(self):
        return self._data.size

    def item(self):
        return float(self.data)

    def zero_grad(self):
        self.grad = None

    def backward(self):
        """Reverse-accumulate gradients of this scalar into every tracked tensor.

        Gradients add across fan-out and across repeated ``backward`` calls
        (leaves are not zeroed here); the gradient of a tracked loss w.r.t.
        itself is 1, and an untracked one keeps ``grad`` None.  The graph is
        consumed as it goes: after a non-leaf node's closure has run, its
        ``grad``, closure and parents are dropped, so only leaf gradients
        survive and the graph cannot be replayed.
        """
        if self.data.size != 1:
            raise ShapeError(
                f"backward requires a scalar loss, got shape {self.data.shape}"
            )
        topo = []
        visited = set()
        stack = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in visited:
                    stack.append((parent, False))
        _accumulate(self, np.ones_like(self.data))
        while topo:
            node = topo.pop()
            if node._backward_fn is None:
                continue
            if node.grad is not None:
                node._backward_fn(node.grad)
            node.grad = None
            node._backward_fn = None
            node._parents = ()

    def reshape(self, new_shape):
        return reshape(self, new_shape)

    def sum(self):
        return sum_all(self)

    def mean(self):
        return mean_all(self)

    def __repr__(self):
        return (
            f"Tensor(shape={tuple(self.shape)}, dtype={self.dtype},"
            f" requires_grad={self.requires_grad})"
        )


def _accumulate(t: Tensor, g: np.ndarray, owned: bool = False) -> None:
    if not t.requires_grad:  # the one gradient gate: untracked operands get none
        return
    if t.grad is None:
        # one pass, no zero fill; adding +0.0 keeps the bits of 0 + g (-0.0 -> +0.0)
        t.grad = np.add(g, 0.0, out=g if owned else np.empty_like(t.data))
    else:
        t.grad += g


def _node(out_data: np.ndarray, parents: tuple, backward_fn) -> Tensor:
    """Wrap an op result, recording the closure only when something upstream tracks."""
    tracked = _grad_enabled and any(p.requires_grad for p in parents)
    out = Tensor(out_data, requires_grad=tracked)
    if tracked:
        out._parents = parents
        out._backward_fn = backward_fn
    return out


# ---------------------------------------------------------------------------
# im2col / col2im machinery (stride-1 conv2d only)
# ---------------------------------------------------------------------------

def _im2col(x: np.ndarray, k: int, dilation: int, y0: int = 0, y1: int | None = None):
    """Gather the (N, C*k*k, (y1-y0)*W) columns of output rows [y0, y1) of a
    stride-1 "same" conv of ``x``; the defaults gather every row.

    Column (c, i, j) at output pixel (y, x) holds
    x[n, c, y - r + i*dilation, x - r + j*dilation], zero outside ``x``, with
    r = dilation*(k-1)/2.  One copy of the window view of a zero buffer that
    holds input rows [y0 - r, y1 + r); a 1x1 kernel's columns are a view of
    ``x`` with no copy.
    """
    n, c, h, w = x.shape
    y1 = h if y1 is None else y1
    r = dilation * (k - 1) // 2
    xp = x[:, :, y0:y1]
    if r:
        lo, hi = max(y0 - r, 0), min(y1 + r, h)
        xp = np.zeros((n, c, y1 - y0 + 2 * r, w + 2 * r), dtype=x.dtype)
        xp[:, :, lo - y0 + r:hi - y0 + r, r:r + w] = x[:, :, lo:hi]
    sn, sc, sh, sw = xp.strides
    windows = np.lib.stride_tricks.as_strided(
        xp, (n, c, k, k, y1 - y0, w), (sn, sc, sh * dilation, sw * dilation, sh, sw),
        writeable=False,
    )
    return windows.reshape(n, c * k * k, (y1 - y0) * w)


def _tap_slices(offset: int, extent: int):
    """(input, output) slices of a tap that reads input position out + offset, clipped."""
    lo = max(0, -offset)
    hi = max(lo, min(extent, extent - offset))
    return slice(lo + offset, hi + offset), slice(lo, hi)


def _col2im(cols: np.ndarray, dx: np.ndarray, k: int, dilation: int) -> np.ndarray:
    """Scatter-add columns into ``dx``, of the input's shape, and return it; adjoint of _im2col.

    Taps are added in (i, j) order, each shifted by (i*dilation - r,
    j*dilation - r) and clipped to the input, so every pixel of a zeroed
    ``dx`` sums the same terms in the same order from +0.0 as a scatter into
    the padded extent would.
    """
    n, c, h, w = dx.shape
    r = dilation * (k - 1) // 2
    cols = cols.reshape(n, c, k, k, h, w)
    for i in range(k):
        dst_y, src_y = _tap_slices(i * dilation - r, h)
        for j in range(k):
            dst_x, src_x = _tap_slices(j * dilation - r, w)
            dx[:, :, dst_y, dst_x] += cols[:, :, i, j, src_y, src_x]
    return dx


# ---------------------------------------------------------------------------
# Convolution family
# ---------------------------------------------------------------------------

# A conv's forward gathers one sample's columns in tiles of whole output rows,
# about CONV_TILE_BYTES each.  OpenBLAS rounds a column of a tile's GEMM as it
# does in the whole product only if the tile starts a multiple of
# CONV_TILE_ALIGN columns in and holds at least CONV_TILE_MIN_COLUMNS columns
# and CONV_TILE_MIN_MACS multiply-adds (below about 10**6 it switches to its
# small-matrix kernel), so every tile keeps those floors or is the whole output.
CONV_TILE_BYTES = 2 << 20
CONV_TILE_MIN_COLUMNS = 1024
CONV_TILE_MIN_MACS = 2 << 20
CONV_TILE_ALIGN = 64


def _row_tiles(c_in: int, c_out: int, h: int, w: int, k: int, itemsize: int):
    """[(y0, y1)] output row tiles covering [0, h) for one sample's conv
    columns; a short remainder joins the tile before it."""
    if k == 1 or not c_in * c_out * w:  # a 1x1 kernel's columns are a view of the input
        return [(0, h)]
    min_columns = max(CONV_TILE_MIN_COLUMNS, -(-CONV_TILE_MIN_MACS // (c_out * c_in * k * k)))
    rows = max(CONV_TILE_BYTES // (c_in * k * k * w * itemsize), -(-min_columns // w))
    step = CONV_TILE_ALIGN // math.gcd(w, CONV_TILE_ALIGN)  # rows * w is then aligned
    rows = -(-rows // step) * step
    starts = list(range(0, h, rows))
    if len(starts) > 1 and (h - starts[-1]) * w < min_columns:
        starts.pop()
    return list(zip(starts, starts[1:] + [h]))


def conv2d(x: Tensor, weight: Tensor, bias: Tensor, dilation: int = 1, relu=False) -> Tensor:
    """2-d stride-1 cross-correlation with "same" zero padding, then ``relu``.

    The kernel is odd and square, k x k, and the input is padded by
    r = dilation*(k-1)/2 on every side, so the output keeps the input's extent:
    out[n,o,y,x] = bias[o] + sum_{c,i,j} weight[o,c,i,j] *
                   x[n, c, y - r + i*dilation, x - r + j*dilation]
    """
    if x.ndim != 4:
        raise ShapeError(f"conv2d expects rank-4 input, got shape {x.shape}")
    if weight.ndim != 4:
        raise ShapeError(f"conv2d expects rank-4 weight, got shape {weight.shape}")
    n, c_in, h, w = x.shape
    c_out, c_w, k, kw = weight.shape
    if k != kw or k % 2 == 0:
        raise ShapeError(f"conv2d needs an odd square kernel, got {k}x{kw}")
    if c_in != c_w:
        raise ShapeError(
            f"conv2d channel mismatch: input has {c_in} channels, weight expects {c_w}"
        )
    if bias.shape != (c_out,):
        raise ShapeError(f"conv2d bias must have shape ({c_out},), got {bias.shape}")
    if dilation < 1:
        raise ValueError("conv2d requires dilation >= 1")

    # one tile of a sample's columns at a time, its GEMM writing straight into
    # its slice of the output; backward gathers each sample's columns whole
    w2 = weight.data.reshape(c_out, -1)
    out = np.empty((n, c_out, h * w), dtype=np.result_type(w2, x.data))
    tiles = _row_tiles(c_in, c_out, h, w, k, x.dtype.itemsize)
    for i in range(n):
        for y0, y1 in tiles:
            np.matmul(w2, _im2col(x.data[i:i + 1], k, dilation, y0, y1)[0],
                      out=out[i, :, y0 * w:y1 * w])
    out += bias.data.reshape(1, c_out, 1)
    if relu:
        np.maximum(out, 0, out=out)
    out = out.reshape(n, c_out, h, w)

    def backward(g):
        if relu:  # g is this node's own buffer: mask by out > 0, then +0.0 as a copy adds
            np.add(np.multiply(g, out > 0, out=g), 0.0, out=g)
        g2 = g.reshape(n, c_out, h * w)
        _accumulate(bias, g2.sum(axis=(0, 2)), owned=True)
        # the per-sample products, summed in sample order (a test pins the order)
        dw = sum(np.matmul(g2[i], _im2col(x.data[i:i + 1], k, dilation)[0].T) for i in range(n))
        _accumulate(weight, dw.reshape(weight.shape), owned=True)
        dx = np.zeros(x.shape, dtype=g2.dtype)
        for i in range(n):
            _col2im(np.matmul(w2.T, g2[i]), dx[i:i + 1], k, dilation)
        _accumulate(x, dx, owned=True)

    return _node(out, (x, weight, bias), backward)


def transposed_conv2d(x: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """Up-sampling by k: the transposed convolution with a square k x k kernel
    and stride k, whose windows tile the (k*H, k*W) output without overlap.

    ``weight`` has shape (C_in, C_out, k, k); it is the adjoint of the
    unpadded conv with the same kernel and stride k (Dumoulin & Visin 2016,
    arXiv:1603.07285).  Each output pixel gets one product, so a pixel shuffle
    (Shi et al. 2016, arXiv:1609.05158) places the GEMM's columns.
    """
    if x.ndim != 4 or weight.ndim != 4:
        raise ShapeError("transposed_conv2d expects rank-4 input and weight")
    n, c_in, h, w = x.shape
    c_w, c_out, k, kw = weight.shape
    if c_in != c_w:
        raise ShapeError(
            f"transposed_conv2d channel mismatch: input has {c_in} channels,"
            f" weight expects {c_w}"
        )
    if bias.shape != (c_out,):
        raise ShapeError(f"transposed_conv2d bias must have shape ({c_out},), got {bias.shape}")
    if k != kw:
        raise ShapeError(f"transposed_conv2d needs a square kernel, got {k}x{kw}")

    w2 = weight.data.reshape(c_in, c_out * k * k)
    cols = np.matmul(w2.T, x.data.reshape(n, c_in, h * w))
    out = (cols.reshape(n, c_out, k, k, h, w).transpose(0, 1, 4, 2, 5, 3)
           .reshape(n, c_out, k * h, k * w))
    out += bias.data.reshape(1, c_out, 1, 1)

    def backward(g):
        gcols = (g.reshape(n, c_out, h, k, w, k).transpose(0, 1, 3, 5, 2, 4)
                 .reshape(n, c_out * k * k, h * w))
        _accumulate(bias, g.sum(axis=(0, 2, 3)), owned=True)
        dw = np.matmul(x.data.reshape(n, c_in, h * w),
                       gcols.transpose(0, 2, 1)).sum(axis=0)
        _accumulate(weight, dw.reshape(weight.shape), owned=True)
        dx = np.matmul(w2, gcols)
        _accumulate(x, dx.reshape(n, c_in, h, w), owned=True)

    return _node(out, (x, weight, bias), backward)


def maxpool2d(x: Tensor) -> Tensor:
    """Non-overlapping 2x2 max pooling (stride 2); gradient goes to the first
    max in each window."""
    if x.ndim != 4:
        raise ShapeError(f"maxpool2d expects rank-4 input, got shape {x.shape}")
    n, c, h, w = x.shape
    if h % 2 or w % 2:
        raise ShapeError(f"maxpool2d requires spatial extents divisible by 2, got {h}x{w}")
    out_h, out_w = h // 2, w // 2
    # windows flattened row-major so argmax picks the first occurrence on ties
    windows = (
        x.data.reshape(n, c, out_h, 2, out_w, 2)
        .transpose(0, 1, 2, 4, 3, 5)
        .reshape(n, c, out_h, out_w, 4)
    )
    idx = windows.argmax(axis=-1).astype(np.uint8)  # 0-3: the tape keeps one byte each
    out = np.take_along_axis(windows, idx[..., None], axis=-1)[..., 0]

    def backward(g):
        dwin = np.zeros((n, c, out_h, out_w, 4), dtype=g.dtype)
        np.put_along_axis(dwin, idx[..., None], g[..., None], axis=-1)
        dx = (dwin.reshape(n, c, out_h, out_w, 2, 2).transpose(0, 1, 2, 4, 3, 5)
              .reshape(n, c, h, w))
        _accumulate(x, dx, owned=True)

    return _node(out, (x,), backward)


def adaptive_avg_pool_to_k(x: Tensor, k: int) -> Tensor:
    """Mean-pool the row-major flattened H*W positions into k contiguous bins.

    Bin b covers positions [floor(b*n/k), floor((b+1)*n/k)); output is (N, C, k).
    """
    if x.ndim != 4:
        raise ShapeError(f"adaptive_avg_pool_to_k expects rank-4 input, got shape {x.shape}")
    n, c, h, w = x.shape
    npos = h * w
    if k < 1 or k > npos:
        raise ShapeError(
            f"adaptive_avg_pool_to_k requires 1 <= k <= H*W, got k={k} for {h}x{w}"
        )
    bounds = np.array([(b * npos) // k for b in range(k + 1)], dtype=np.int64)
    sizes = np.diff(bounds)
    inv_sizes = (1.0 / sizes).astype(x.dtype)
    flat = x.data.reshape(n, c, npos)
    out = np.add.reduceat(flat, bounds[:-1], axis=-1) * inv_sizes

    def backward(g):
        dflat = np.repeat(g * inv_sizes, sizes, axis=-1)
        _accumulate(x, dflat.reshape(n, c, h, w), owned=True)

    return _node(out, (x,), backward)


# ---------------------------------------------------------------------------
# Matrix and pointwise ops
# ---------------------------------------------------------------------------

def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product of two rank-2 tensors, or batched over a shared leading axis."""
    if a.ndim not in (2, 3) or b.ndim not in (2, 3) or a.ndim != b.ndim:
        raise ShapeError(f"matmul expects two rank-2 or two rank-3 tensors, got {a.shape} @ {b.shape}")
    if a.ndim == 3 and a.shape[0] != b.shape[0]:
        raise ShapeError(f"matmul batch mismatch: {a.shape[0]} vs {b.shape[0]}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul inner mismatch: {a.shape} @ {b.shape}")
    out = np.matmul(a.data, b.data)

    def backward(g):
        _accumulate(a, np.matmul(g, b.data.swapaxes(-1, -2)), owned=True)
        _accumulate(b, np.matmul(a.data.swapaxes(-1, -2), g), owned=True)

    return _node(out, (a, b), backward)


def transpose_last2(x: Tensor) -> Tensor:
    """Swap the last two axes (matrix transpose, batched for rank-3)."""
    if x.ndim < 2:
        raise ShapeError(f"transpose_last2 expects rank >= 2, got shape {x.shape}")
    out = x.data.swapaxes(-1, -2).copy()

    def backward(g):
        _accumulate(x, g.swapaxes(-1, -2))

    return _node(out, (x,), backward)


def softmax_rows(x: Tensor) -> Tensor:
    """Softmax along the last axis with exact max-subtraction stabilization."""
    if x.ndim < 2:
        raise ShapeError(f"softmax_rows expects rank >= 2, got shape {x.shape}")
    shifted = x.data - x.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=-1, keepdims=True)

    def backward(g):
        inner = (g * out).sum(axis=-1, keepdims=True)
        _accumulate(x, out * (g - inner), owned=True)

    return _node(out, (x,), backward)


def add(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ShapeError(f"add shape mismatch: {a.shape} vs {b.shape}")
    out = a.data + b.data

    def backward(g):
        _accumulate(a, g)
        _accumulate(b, g)

    return _node(out, (a, b), backward)


def relu(x: Tensor) -> Tensor:
    out = np.maximum(x.data, 0)

    def backward(g):
        _accumulate(x, g * (x.data > 0))

    return _node(out, (x,), backward)


def sigmoid(x: Tensor) -> Tensor:
    """Logistic function, computed via tanh so large |x| cannot overflow."""
    out = 0.5 * (1.0 + np.tanh(0.5 * x.data))

    def backward(g):
        _accumulate(x, g * out * (1.0 - out))

    return _node(out, (x,), backward)


def scale(x: Tensor, c: float) -> Tensor:
    c = float(c)
    out = x.data * c

    def backward(g):
        _accumulate(x, g * c)

    return _node(out, (x,), backward)


def concat_channels(parts) -> Tensor:
    """Concatenate rank-4 tensors along the channel axis, in argument order."""
    parts = list(parts)
    if not parts:
        raise ShapeError("concat_channels requires at least one tensor")
    first = parts[0]
    for p in parts[1:]:
        if p.ndim != 4 or first.ndim != 4:
            raise ShapeError("concat_channels expects rank-4 tensors")
        if (p.shape[0], p.shape[2], p.shape[3]) != (first.shape[0], first.shape[2], first.shape[3]):
            raise ShapeError(
                f"concat_channels spatial/batch mismatch: {first.shape} vs {p.shape}"
            )
    out = np.concatenate([p.data for p in parts], axis=1)
    offsets = np.cumsum([0] + [p.shape[1] for p in parts])

    def backward(g):
        for p, lo, hi in zip(parts, offsets[:-1], offsets[1:]):
            _accumulate(p, g[:, lo:hi])

    return _node(out, tuple(parts), backward)


def reshape(x: Tensor, new_shape) -> Tensor:
    new_shape = tuple(int(s) for s in new_shape)
    if int(np.prod(new_shape, dtype=np.int64)) != x.size:
        raise ShapeError(f"reshape cannot map {x.shape} to {new_shape}")
    out = x.data.reshape(new_shape)

    def backward(g):
        _accumulate(x, g.reshape(x.shape))

    return _node(out, (x,), backward)


def sum_all(x: Tensor) -> Tensor:
    out = x.data.sum()

    def backward(g):
        _accumulate(x, np.broadcast_to(g, x.shape))

    return _node(out, (x,), backward)


def mean_all(x: Tensor) -> Tensor:
    n = x.size
    out = x.data.mean()

    def backward(g):
        _accumulate(x, np.broadcast_to(g / n, x.shape))

    return _node(out, (x,), backward)


def bce_with_logits(logits: Tensor, target: Tensor) -> Tensor:
    """Mean binary cross-entropy from logits, in the stable form
    max(z, 0) - z*y + log(1 + exp(-|z|)).  No gradient flows to the target."""
    if logits.shape != target.shape:
        raise ShapeError(f"bce shape mismatch: logits {logits.shape} vs target {target.shape}")
    z, y = logits.data, target.data
    out = (np.maximum(z, 0) - z * y + np.log1p(np.exp(-np.abs(z)))).mean()
    n = z.size

    def backward(g):
        p = 0.5 * (1.0 + np.tanh(0.5 * z))
        _accumulate(logits, (p - y) * (g / n))

    return _node(np.asarray(out), (logits, target), backward)
