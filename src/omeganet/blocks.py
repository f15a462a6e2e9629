"""Composite layers built from the tensor primitives.

Four building blocks: the double-convolution block used by every encoder and
decoder stage, the cascade multi-scale convolution applied to skip tensors,
and the two attention modules (dense spatial-position attention over K summary
features, channel attention over the C channel maps) whose composition forms
the MDSA stack.  Every block maps (N, C, H, W) to (N, C, H, W).

Convolutions inside blocks end in relu, fused into the conv, except the final
MSC fuse convolution.  There are no normalization layers.  Attention is computed
independently per batch item (realized as batched matrix products).
"""
from __future__ import annotations

from dataclasses import dataclass, fields, is_dataclass

import numpy as np

from .tensor import (
    Tensor,
    add,
    adaptive_avg_pool_to_k,
    concat_channels,
    conv2d,
    matmul,
    reshape,
    softmax_rows,
    transpose_last2,
    transposed_conv2d,
)


@dataclass
class ConvParams:
    """One convolution layer: weight, bias, and its geometry.

    For a regular conv the weight is (out_c, in_c, k, k) with k odd, and the
    conv keeps its input's extent; for a transposed conv it is
    (in_c, out_c, k, k) and k is the up-sampling factor.
    """

    weight: Tensor
    bias: Tensor
    dilation: int = 1
    transposed: bool = False


def named_parameters(tree, prefix=""):
    """Yield (dotted name, Tensor) for every Tensor in ``tree``, depth first.

    Dataclass fields and dict keys extend the name in their order; list items
    are numbered from 1.  Any other leaf (a dilation, a K, a disabled stage's
    None) holds no parameter.
    """
    if isinstance(tree, Tensor):
        yield prefix, tree
        return
    if is_dataclass(tree):
        children = [(f.name, getattr(tree, f.name)) for f in fields(tree)]
    elif isinstance(tree, dict):
        children = tree.items()
    elif isinstance(tree, list):
        children = enumerate(tree, start=1)
    else:
        return
    for key, child in children:
        yield from named_parameters(child, f"{prefix}.{key}" if prefix else str(key))


# Kaiming init draws weights in float64 chunks of this many elements
# (256 KiB), so no whole-weight float64 temporary is made.
KAIMING_CHUNK = 32768


def kaiming_conv(rng, in_channels, out_channels, kernel, *, dilation=1,
                 transposed=False, dtype=np.float32) -> ConvParams:
    """Kaiming-uniform fan-in weights (bound sqrt(6/fan_in)), zero bias.

    The weight is a pending tensor: ``rng`` is advanced at once past the
    doubles the weight needs, and the weight is drawn on its first read from
    a generator set to where ``rng`` stood, so a weight that is replaced
    first (a checkpoint restore) is never drawn.  It is filled by
    ``Generator.uniform`` ``KAIMING_CHUNK`` elements at a time, so it holds
    the bits of ``reference.kaiming_conv_naive`` and leaves ``rng`` in the
    same state, whichever weight is read first.  ``rng``'s bit generator must
    support ``advance`` (``default_rng``'s PCG64 does).
    """
    fan_in = in_channels * kernel * kernel
    bound = np.sqrt(6.0 / fan_in)
    if transposed:
        shape = (in_channels, out_channels, kernel, kernel)
    else:
        shape = (out_channels, in_channels, kernel, kernel)
    bitgen = rng.bit_generator
    start = bitgen.state
    bitgen.advance(int(np.prod(shape)))
    # advance drops the buffered half of a 64-bit draw that next_double never uses
    bitgen.state = {**bitgen.state, "has_uint32": start["has_uint32"],
                    "uinteger": start["uinteger"]}

    def fill(weight):
        replay = type(bitgen)()
        replay.state = start
        draw = np.random.Generator(replay)
        flat = weight.reshape(-1)
        for lo in range(0, flat.size, KAIMING_CHUNK):
            hi = min(lo + KAIMING_CHUNK, flat.size)
            flat[lo:hi] = draw.uniform(-bound, bound, hi - lo)

    bias = Tensor(np.zeros(out_channels, dtype=dtype), requires_grad=True)
    return ConvParams(Tensor.pending(shape, dtype, fill), bias,
                      dilation=dilation, transposed=transposed)


def apply_conv(x: Tensor, p: ConvParams, relu: bool = False) -> Tensor:
    if p.transposed:
        return transposed_conv2d(x, p.weight, p.bias)
    return conv2d(x, p.weight, p.bias, p.dilation, relu=relu)


# ---------------------------------------------------------------------------
# Double convolution
# ---------------------------------------------------------------------------

@dataclass
class ConvBlockParams:
    """Two consecutive 3x3 convolutions, each followed by relu."""

    conv1: ConvParams
    conv2: ConvParams


def init_conv_block(rng, in_channels, out_channels, dtype=np.float32) -> ConvBlockParams:
    return ConvBlockParams(
        kaiming_conv(rng, in_channels, out_channels, 3, dtype=dtype),
        kaiming_conv(rng, out_channels, out_channels, 3, dtype=dtype),
    )


def conv_block(x: Tensor, p: ConvBlockParams) -> Tensor:
    return apply_conv(apply_conv(x, p.conv1, relu=True), p.conv2, relu=True)


# ---------------------------------------------------------------------------
# Cascade multi-scale convolution
# ---------------------------------------------------------------------------

@dataclass
class MscParams:
    """Cascaded 5x5 / 3x3 / 1x1 branches with residual sums, fused by a 1x1 conv."""

    conv5: ConvParams
    conv3: ConvParams
    conv1: ConvParams
    fuse: ConvParams


def init_msc(rng, channels, dtype=np.float32) -> MscParams:
    return MscParams(
        kaiming_conv(rng, channels, channels, 5, dtype=dtype),
        kaiming_conv(rng, channels, channels, 3, dtype=dtype),
        kaiming_conv(rng, channels, channels, 1, dtype=dtype),
        kaiming_conv(rng, 4 * channels, channels, 1, dtype=dtype),
    )


def cascade_msc(x: Tensor, p: MscParams) -> Tensor:
    """x1 = relu(conv5(x)); x2 = relu(conv3(x + x1)); x3 = relu(conv1(x + x2));
    output = fuse(concat(x, x1, x2, x3)), same shape as x."""
    x1 = apply_conv(x, p.conv5, relu=True)
    x2 = apply_conv(add(x, x1), p.conv3, relu=True)
    x3 = apply_conv(add(x, x2), p.conv1, relu=True)
    return apply_conv(concat_channels([x, x1, x2, x3]), p.fuse)


# ---------------------------------------------------------------------------
# Attention
# ---------------------------------------------------------------------------

@dataclass
class DspaParams:
    """Dense spatial-position attention: a dilated 3x3 conv (dilation 2) feeds
    contiguous-bin average pooling that yields K summary features."""

    dilated: ConvParams
    k: int = 10


def init_dspa(rng, channels, k=10, dtype=np.float32) -> DspaParams:
    return DspaParams(
        kaiming_conv(rng, channels, channels, 3, dilation=2, dtype=dtype),
        k=k,
    )


def dspa(m: Tensor, p: DspaParams, return_attention: bool = False):
    """Attend each of the H*W pixel features over K pooled summary features.

    Per item: with M the (C, N) pixel features and D the (C, K) summaries,
    the attention row for pixel j is softmax_i(D_i . M_j) and the output is
    D A^T + M reshaped back to (C, H, W).  The pooling rejects H*W < K.
    """
    n, c, h, w = m.shape
    dense = adaptive_avg_pool_to_k(apply_conv(m, p.dilated, relu=True), p.k)  # (N, C, K)
    m2 = reshape(m, (n, c, h * w))
    attn = softmax_rows(matmul(transpose_last2(m2), dense))  # (N, H*W, K)
    out = add(matmul(dense, transpose_last2(attn)), m2)
    out = reshape(out, (n, c, h, w))
    if return_attention:
        return out, attn
    return out


def channel_attention(m: Tensor, return_attention: bool = False):
    """Attend each channel map over all channel maps via the (C, C) Gram softmax.

    Per item: with M the (C, N) matrix, A = softmax_rows(M M^T) and the output
    is A M + M reshaped back to (C, H, W).  Parameter-free.
    """
    n, c, h, w = m.shape
    m2 = reshape(m, (n, c, h * w))
    attn = softmax_rows(matmul(m2, transpose_last2(m2)))  # (N, C, C)
    out = add(matmul(attn, m2), m2)
    out = reshape(out, (n, c, h, w))
    if return_attention:
        return out, attn
    return out


def mdsa(m: Tensor, p: DspaParams) -> Tensor:
    """Spatial-position attention followed by channel attention."""
    return channel_attention(dspa(m, p))
