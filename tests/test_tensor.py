"""Primitive op contracts: frozen examples, loop oracles, and gradient checks."""
import types
import weakref

import numpy as np
import pytest

from omeganet import reference, tensor
from omeganet.net import ModelConfig, OmegaNet
from omeganet.tensor import (
    Tensor,
    _accumulate,
    _col2im,
    _im2col,
    ShapeError,
    no_grad,
    add,
    adaptive_avg_pool_to_k,
    bce_with_logits,
    concat_channels,
    conv2d,
    matmul,
    maxpool2d,
    mean_all,
    relu,
    reshape,
    scale,
    sigmoid,
    softmax_rows,
    sum_all,
    transpose_last2,
    transposed_conv2d,
)


def t64(arr, requires_grad=False):
    return Tensor(np.asarray(arr), dtype=np.float64, requires_grad=requires_grad)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


# ---------------------------------------------------------------------------
# conv2d
# ---------------------------------------------------------------------------

class TestConv2d:
    def test_ones_kernel_pad1(self):
        out = conv2d(t64(np.ones((1, 1, 3, 3))), t64(np.ones((1, 1, 3, 3))),
                     t64(np.zeros(1)))
        assert out.data[0, 0, 1, 1] == 9.0
        assert out.data[0, 0, 0, 0] == 4.0
        assert out.data[0, 0, 0, 2] == 4.0

    def test_identity_1x1_kernel(self, rng):
        x = t64(rng.normal(size=(2, 1, 5, 4)))
        w = t64(np.ones((1, 1, 1, 1)))
        out = conv2d(x, w, t64(np.zeros(1)))
        np.testing.assert_array_equal(out.data, x.data)

    def test_dilated_shape(self, rng):
        x = t64(rng.normal(size=(1, 3, 8, 8)))
        w = t64(rng.normal(size=(2, 3, 3, 3)))
        out = conv2d(x, w, t64(np.zeros(2)), dilation=2)
        assert out.shape == (1, 2, 8, 8)

    @pytest.mark.parametrize("case", range(12))
    def test_matches_loop_oracle(self, case):
        rng = np.random.default_rng(100 + case)
        n, ci, co = rng.integers(1, 3), rng.integers(1, 5), rng.integers(1, 5)
        k, d = int(rng.choice([1, 3, 5])), int(rng.integers(1, 3))
        x = rng.normal(size=(n, ci, int(rng.integers(1, 10)), int(rng.integers(1, 10))))
        wt = rng.normal(size=(co, ci, k, k))
        b = rng.normal(size=(co,))
        got = conv2d(t64(x), t64(wt), t64(b), d).data
        ref = reference.conv2d_naive(x, wt, b, 1, d * (k - 1) // 2, d)
        assert got.shape == ref.shape == (n, co) + x.shape[2:]
        assert reference.relative_error(got, ref) < 1e-10

    def test_channel_mismatch_names_dimension(self, rng):
        x = t64(rng.normal(size=(1, 3, 4, 4)))
        w = t64(rng.normal(size=(2, 4, 3, 3)))
        with pytest.raises(ShapeError, match="3 channels.*expects 4"):
            conv2d(x, w, t64(np.zeros(2)))

    @pytest.mark.parametrize("kh,kw", [(2, 2), (4, 4), (3, 1), (1, 3)],
                             ids=["2x2", "4x4", "3x1", "1x3"])
    def test_even_or_non_square_kernel_rejected(self, rng, kh, kw):
        x = t64(rng.normal(size=(1, 1, 6, 6)))
        w = t64(rng.normal(size=(1, 1, kh, kw)))
        with pytest.raises(ShapeError, match=f"odd square kernel, got {kh}x{kw}"):
            conv2d(x, w, t64(np.zeros(1)))


CONV_GRID = [pytest.param(n, k, d, dtype, id=f"n{n}-k{k}-d{d}-{np.dtype(dtype).name}")
             for n in (1, 2, 3) for k in (1, 3, 5) for d in (1, 2)
             for dtype in (np.float32, np.float64)]


def conv_operands(n, k, dtype, seed=0):
    """x, weight, bias and an upstream gradient g for a conv with 3 output
    channels.  Channel 0 has zero weights and bias, so its pre-activations
    are exactly zero; g is negative at about half of every channel's pixels,
    those relu masks included."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, 2, 6, 5)).astype(dtype)
    w = rng.normal(size=(3, 2, k, k)).astype(dtype)
    b = rng.normal(size=3).astype(dtype)
    w[0], b[0] = 0, 0
    return x, w, b, rng.normal(size=(n, 3, 6, 5)).astype(dtype)


def conv_bytes(x, w, b, g, fwd):
    """Output and x, weight and bias gradient bytes of ``fwd(x, w, b)``, with
    ``g`` as the output's upstream gradient (a dot product with g)."""
    xt, wt, bt = (Tensor(a, requires_grad=True) for a in (x, w, b))
    out = fwd(xt, wt, bt)
    sum_all(matmul(reshape(out, (1, out.size)), Tensor(g.reshape(-1, 1)))).backward()
    return [a.tobytes() for a in (out.data, xt.grad, wt.grad, bt.grad)]


class TestConv2dFusedRelu:
    @pytest.mark.parametrize("n,k,d,dtype", CONV_GRID)
    def test_equals_relu_of_conv_byte_for_byte(self, n, k, d, dtype):
        x, w, b, g = conv_operands(n, k, dtype)
        pre = conv2d(Tensor(x), Tensor(w), Tensor(b), d).data
        assert (pre[:, 0] == 0).all() and (g[pre <= 0] < 0).any()
        fused = conv_bytes(x, w, b, g, lambda x, w, b: conv2d(x, w, b, d, relu=True))
        unfused = conv_bytes(x, w, b, g, lambda x, w, b: relu(conv2d(x, w, b, d)))
        assert fused == unfused

    @pytest.mark.parametrize("k,d,dtype", [(k, d, dtype) for k in (1, 3, 5) for d in (1, 2)
                                           for dtype in (np.float32, np.float64)])
    def test_per_sample_lowering_equals_the_batched_formula(self, k, d, dtype):
        # one GEMM per sample, and the weight gradient summed in sample order
        x, w, b, g = conv_operands(3, k, dtype, seed=1)
        w2, g2 = w.reshape(3, -1), g.reshape(3, 3, -1)
        cols = _im2col(x, k, d)
        batched = [
            (np.matmul(w2, cols) + b.reshape(1, 3, 1)).reshape(g.shape),
            _col2im(np.matmul(w2.T, g2), np.zeros_like(x), k, d) + 0.0,
            np.matmul(g2, cols.transpose(0, 2, 1)).sum(axis=0).reshape(w.shape) + 0.0,
            g2.sum(axis=(0, 2)) + 0.0,
        ]
        got = conv_bytes(x, w, b, g, lambda x, w, b: conv2d(x, w, b, d))
        assert got == [a.tobytes() for a in batched]


def whole_sample_conv(x, w, b, d, relu):
    """conv2d's forward as one GEMM per sample over all of its columns."""
    w2 = w.reshape(len(w), -1)
    out = np.stack([np.matmul(w2, _im2col(x[i:i + 1], w.shape[-1], d)[0])
                    for i in range(len(x))]) + b.reshape(1, -1, 1)
    return (np.maximum(out, 0) if relu else out).reshape(len(x), len(w), *x.shape[2:])


TILE_GRID = [pytest.param(w, k, d, c_out, relu, n, dtype,
                          id=f"w{w}-k{k}-d{d}-co{c_out}-relu{int(relu)}-n{n}-{np.dtype(dtype).name}")
             for w in (96, 100) for k in (1, 3, 5) for d in (1, 2) for c_out in (2, 8, 64)
             for relu in (False, True) for n in (1, 2) for dtype in (np.float32, np.float64)]


class TestConvRowTiles:
    @pytest.mark.parametrize("w,k,d,c_out,relu,n,dtype", TILE_GRID)
    def test_tiled_forward_equals_the_whole_sample_gemm(self, monkeypatch, w, k, d, c_out, relu,
                                                        n, dtype):
        # 16 input channels at 170 rows: every k > 1 tiles, in tiles whose
        # height does not divide 170, so the last one takes the remainder.
        # Here OpenBLAS moves bits at 100 columns a row without the alignment,
        # and at 96 without the column floor.
        monkeypatch.setattr(tensor, "CONV_TILE_BYTES", 64 << 10)
        c_in, h = 16, 170
        tiles = tensor._row_tiles(c_in, c_out, h, w, k, np.dtype(dtype).itemsize)
        assert len(tiles) == 1 if k == 1 else len(tiles) >= 2 and h % (tiles[0][1]) != 0
        rng = np.random.default_rng(k * 100 + c_out)
        x = rng.normal(size=(n, c_in, h, w)).astype(dtype)
        wt = rng.normal(size=(c_out, c_in, k, k)).astype(dtype)
        b = rng.normal(size=c_out).astype(dtype)
        got = conv2d(Tensor(x), Tensor(wt), Tensor(b), d, relu=relu).data
        assert got.tobytes() == whole_sample_conv(x, wt, b, d, relu).tobytes()

    def test_row_range_gathers_those_rows_of_the_whole_columns(self):
        # extents from 1, so halos reach past both edges (k=5, d=2: r=4)
        rng = np.random.default_rng(2021)
        for _ in range(200):
            k, d = int(rng.choice([1, 3, 5])), int(rng.integers(1, 3))
            n, c = int(rng.integers(1, 3)), int(rng.integers(1, 4))
            h, w = (int(v) for v in rng.integers(1, 10, size=2))
            y0 = int(rng.integers(0, h))
            y1 = int(rng.integers(y0 + 1, h + 1))
            x = rng.normal(size=(n, c, h, w))
            whole = _im2col(x, k, d)
            np.testing.assert_array_equal(_im2col(x, k, d, y0, y1), whole[:, :, y0 * w:y1 * w])

    @pytest.mark.parametrize("budget", [1, 64 << 10, tensor.CONV_TILE_BYTES])
    def test_every_tile_keeps_the_floors_unless_it_is_the_whole_output(self, monkeypatch,
                                                                       budget):
        monkeypatch.setattr(tensor, "CONV_TILE_BYTES", budget)
        calls = []

        def spy(x, k, d, y0=0, y1=None):
            cols = _im2col(x, k, d, y0, y1)
            calls.append((y0, x.shape[2] if y1 is None else y1, cols.nbytes))
            return cols

        monkeypatch.setattr(tensor, "_im2col", spy)
        rng = np.random.default_rng(3)
        tiled = 0
        for (c_in, h, w), c_out, k, dtype in [
                ((16, 170, 100), 2, 3, np.float32), ((16, 170, 100), 64, 5, np.float64),
                ((3, 128, 96), 8, 3, np.float32), ((8, 64, 64), 8, 3, np.float64),
                ((4, 300, 33), 64, 3, np.float32), ((64, 40, 40), 16, 3, np.float32)]:
            x = Tensor(rng.normal(size=(1, c_in, h, w)).astype(dtype))
            wt = Tensor(rng.normal(size=(c_out, c_in, k, k)).astype(dtype))
            calls.clear()
            conv2d(x, wt, Tensor(np.zeros(c_out, dtype=dtype)))
            assert calls[0][0] == 0 and calls[-1][1] == h
            assert all(a[1] == b[0] for a, b in zip(calls, calls[1:]))
            assert sum(nbytes for *_, nbytes in calls) == c_in * k * k * h * w * x.dtype.itemsize
            tiled += len(calls) > 1
            if len(calls) > 1:
                for y0, y1, _ in calls:
                    columns = (y1 - y0) * w
                    assert columns >= tensor.CONV_TILE_MIN_COLUMNS
                    assert c_out * c_in * k * k * columns >= tensor.CONV_TILE_MIN_MACS
                    assert y0 * w % tensor.CONV_TILE_ALIGN == 0
        assert tiled >= 2


# ---------------------------------------------------------------------------
# transposed_conv2d
# ---------------------------------------------------------------------------

class TestTransposedConv2d:
    def test_ones_scatter(self):
        out = transposed_conv2d(t64(np.ones((1, 1, 2, 2))), t64(np.ones((1, 1, 2, 2))),
                                t64(np.zeros(1)))
        np.testing.assert_array_equal(out.data, np.ones((1, 1, 4, 4)))

    @pytest.mark.parametrize("h,w", [(1, 1), (2, 3), (5, 4)])
    def test_doubles_spatial_extent(self, rng, h, w):
        x = t64(rng.normal(size=(1, 3, h, w)))
        wt = t64(rng.normal(size=(3, 2, 2, 2)))
        out = transposed_conv2d(x, wt, t64(np.zeros(2)))
        assert out.shape == (1, 2, 2 * h, 2 * w)

    def test_zero_weights_zero_output(self, rng):
        x = t64(rng.normal(size=(2, 2, 3, 3)))
        out = transposed_conv2d(x, t64(np.zeros((2, 4, 2, 2))), t64(np.zeros(4)))
        assert not out.data.any()

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_matches_scatter_oracle(self, rng, k):
        x = rng.normal(size=(2, 3, 4, 5))
        w = rng.normal(size=(3, 2, k, k))
        b = rng.normal(size=(2,))
        got = transposed_conv2d(t64(x), t64(w), t64(b)).data
        ref = reference.transposed_conv2d_naive(x, w, b, k)
        assert reference.relative_error(got, ref) < 1e-12

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_backward_is_adjoint_of_forward(self, rng, k):
        # the op is bilinear, so <g, T(x, w)> = <x, dx(g)> = <w, dw(g)>
        x = t64(rng.normal(size=(2, 3, 4, 5)), requires_grad=True)
        w = t64(rng.normal(size=(3, 2, k, k)), requires_grad=True)
        out = transposed_conv2d(x, w, t64(np.zeros(2)))
        g = rng.normal(size=out.shape)
        out._backward_fn(g)
        lhs = np.vdot(g, out.data)
        bound = 1e-12 * np.vdot(np.abs(g), np.abs(out.data))
        assert abs(lhs - np.vdot(x.data, x.grad)) <= bound
        assert abs(lhs - np.vdot(w.data, w.grad)) <= bound

    def test_adjoint_of_conv2d(self, rng):
        for _ in range(5):
            x = rng.normal(size=(2, 3, 6, 6))
            w = rng.normal(size=(4, 3, 2, 2))
            y = reference.conv2d_naive(x, w, np.zeros(4), stride=2)
            g = rng.normal(size=y.shape)
            back = transposed_conv2d(t64(g), t64(w), t64(np.zeros(3))).data
            lhs = float((y * g).sum())
            rhs = float((x * back).sum())
            assert abs(lhs - rhs) < 1e-8 * max(1.0, abs(lhs))

    def test_channel_mismatch_rejected(self, rng):
        x = t64(rng.normal(size=(1, 3, 4, 4)))
        w = t64(rng.normal(size=(2, 3, 2, 2)))
        with pytest.raises(ShapeError, match="channel mismatch"):
            transposed_conv2d(x, w, t64(np.zeros(3)))

    def test_non_square_kernel_rejected(self, rng):
        x = t64(rng.normal(size=(1, 3, 4, 4)))
        w = t64(rng.normal(size=(3, 2, 2, 3)))
        with pytest.raises(ShapeError, match="square kernel, got 2x3"):
            transposed_conv2d(x, w, t64(np.zeros(2)))


# ---------------------------------------------------------------------------
# im2col and col2im
# ---------------------------------------------------------------------------

class TestWindows:
    def test_col2im_is_exact_adjoint_of_im2col(self):
        # extents start at 1, so whole taps fall outside the input (k=5, d=2: r=4)
        rng = np.random.default_rng(2006)
        for _ in range(200):
            k, dilation = int(rng.choice([1, 3, 5])), int(rng.integers(1, 3))
            n, c = rng.integers(1, 3), rng.integers(1, 4)
            h, w = rng.integers(1, 10, size=2)
            x = rng.normal(size=(n, c, h, w))
            cols = rng.normal(size=(n, c * k * k, h * w))
            gathered = _im2col(x, k, dilation)
            scattered = _col2im(cols, np.zeros(x.shape), k, dilation)
            lhs, rhs = np.vdot(gathered, cols), np.vdot(x, scattered)
            assert abs(lhs - rhs) <= 1e-12 * np.vdot(np.abs(gathered), np.abs(cols))

    @pytest.mark.parametrize("k,dilation", [(3, 1), (3, 2), (5, 1), (5, 2)])
    def test_col2im_sums_like_a_scatter_into_the_padded_extent(self, rng, k, dilation):
        # same terms, same (i, j) order, from +0.0: the bits of the padded scatter
        n, c, h, w = 2, 3, 7, 2
        r = dilation * (k - 1) // 2
        cols = rng.normal(size=(n, c * k * k, h * w)).astype(np.float32)
        taps = cols.reshape(n, c, k, k, h, w)
        padded = np.zeros((n, c, h + 2 * r, w + 2 * r), dtype=np.float32)
        for i in range(k):
            for j in range(k):
                y, x = i * dilation, j * dilation
                padded[:, :, y:y + h, x:x + w] += taps[:, :, i, j]
        dx = np.zeros((n, c, h, w), dtype=np.float32)
        np.testing.assert_array_equal(_col2im(cols, dx, k, dilation),
                                      padded[:, :, r:r + h, r:r + w])

    def test_1x1_stride_1_shares_memory(self, rng):
        x = rng.normal(size=(2, 3, 4, 5))
        for dilation in (1, 2):
            cols = _im2col(x, 1, dilation)
            assert cols.shape == (2, 3, 4 * 5)
            assert np.shares_memory(cols, x)
            # col2im adds into the buffer it is given, even for a 1x1 kernel
            dx = np.zeros(x.shape)
            assert _col2im(cols, dx, 1, dilation) is dx
            np.testing.assert_array_equal(dx, x)


# ---------------------------------------------------------------------------
# maxpool2d
# ---------------------------------------------------------------------------

class TestMaxpool:
    def test_single_window(self):
        out = maxpool2d(t64([[[[1.0, 2.0], [3.0, 4.0]]]]))
        assert out.data.squeeze() == 4.0

    def test_constant_input(self):
        out = maxpool2d(Tensor(np.full((1, 2, 4, 4), 2.5)))
        np.testing.assert_array_equal(out.data, np.full((1, 2, 2, 2), 2.5))

    def test_matches_loop_oracle(self, rng):
        x = rng.normal(size=(1, 3, 8, 8))
        got = maxpool2d(t64(x)).data
        np.testing.assert_array_equal(got, reference.maxpool2d_naive(x))

    def test_odd_extent_rejected(self, rng):
        with pytest.raises(ShapeError, match="divisible"):
            maxpool2d(t64(rng.normal(size=(1, 1, 3, 4))))

    def test_tape_keeps_the_argmax_as_one_byte(self, rng):
        out = maxpool2d(t64(rng.normal(size=(1, 2, 4, 4)), requires_grad=True))
        kept = closure_arrays(out._backward_fn)
        assert [a.dtype for a in kept if a.dtype.kind in "iu"] == [np.uint8]

    def test_tie_gradient_goes_to_first_in_row_major_order(self):
        x = t64(np.zeros((1, 1, 2, 2)), requires_grad=True)
        maxpool2d(x).sum().backward()
        np.testing.assert_array_equal(x.grad, [[[[1.0, 0.0], [0.0, 0.0]]]])


# ---------------------------------------------------------------------------
# adaptive_avg_pool_to_k
# ---------------------------------------------------------------------------

class TestAdaptivePool:
    def test_k_equals_positions_is_flatten(self, rng):
        x = t64(rng.normal(size=(2, 3, 2, 3)))
        out = adaptive_avg_pool_to_k(x, 6)
        np.testing.assert_array_equal(out.data, x.data.reshape(2, 3, 6))

    def test_constant_input(self):
        out = adaptive_avg_pool_to_k(Tensor(np.full((1, 2, 3, 3), 1.5)), 4)
        np.testing.assert_allclose(out.data, np.full((1, 2, 4), 1.5))

    def test_bin_means_example(self):
        x = t64(np.arange(10.0).reshape(1, 1, 2, 5))
        out = adaptive_avg_pool_to_k(x, 5)
        np.testing.assert_allclose(out.data[0, 0], [0.5, 2.5, 4.5, 6.5, 8.5])

    def test_matches_loop_oracle(self, rng):
        x = rng.normal(size=(2, 3, 3, 4))
        for k in (1, 2, 5, 7, 12):
            got = adaptive_avg_pool_to_k(t64(x), k).data
            assert reference.relative_error(got, reference.adaptive_pool_naive(x, k)) < 1e-12

    def test_k_too_large_rejected(self, rng):
        with pytest.raises(ShapeError, match="H\\*W"):
            adaptive_avg_pool_to_k(t64(rng.normal(size=(1, 1, 2, 2))), 5)


# ---------------------------------------------------------------------------
# matmul / transpose / softmax
# ---------------------------------------------------------------------------

class TestMatmul:
    def test_identity(self, rng):
        b = rng.normal(size=(3, 4))
        out = matmul(t64(np.eye(3)), t64(b))
        np.testing.assert_allclose(out.data, b)

    def test_known_2x2(self):
        out = matmul(t64([[1.0, 2.0], [3.0, 4.0]]), t64([[5.0, 6.0], [7.0, 8.0]]))
        ref = reference.matmul_naive(np.array([[1.0, 2.0], [3.0, 4.0]]),
                                     np.array([[5.0, 6.0], [7.0, 8.0]]))
        np.testing.assert_array_equal(out.data, [[19.0, 22.0], [43.0, 50.0]])
        np.testing.assert_array_equal(out.data, ref)

    def test_times_zero(self, rng):
        a = rng.normal(size=(2, 3))
        assert not matmul(t64(a), t64(np.zeros((3, 5)))).data.any()

    def test_batched(self, rng):
        a, b = rng.normal(size=(4, 2, 3)), rng.normal(size=(4, 3, 5))
        out = matmul(t64(a), t64(b))
        np.testing.assert_allclose(out.data, a @ b)

    def test_inner_mismatch(self, rng):
        with pytest.raises(ShapeError, match="inner"):
            matmul(t64(rng.normal(size=(2, 3))), t64(rng.normal(size=(4, 2))))


class TestSoftmax:
    def test_constant_row_uniform(self):
        out = softmax_rows(Tensor(np.full((2, 5), 3.7)))
        np.testing.assert_allclose(out.data, np.full((2, 5), 0.2))

    def test_log2_shift(self):
        for x in (-40.0, 0.0, 17.3):
            out = softmax_rows(t64([[x, x + np.log(2.0)]]))
            np.testing.assert_allclose(out.data, [[1 / 3, 2 / 3]], atol=1e-12)

    def test_matches_naive_oracle(self, rng):
        x = rng.uniform(-4, 4, size=(4, 7))
        got = softmax_rows(t64(x)).data
        np.testing.assert_allclose(got, reference.softmax_naive(x), atol=1e-12)

    def test_rows_sum_to_one(self, rng):
        x = rng.normal(size=(6, 9)) * 30
        out = softmax_rows(t64(x))
        np.testing.assert_allclose(out.data.sum(-1), np.ones(6), atol=1e-6)

    def test_shift_invariance_bit_exact_on_grid(self, rng):
        # logits on a coarse binary grid: adding an integer keeps every
        # intermediate difference exactly representable
        x = np.round(rng.uniform(0, 1, size=(5, 6)) * 1024) / 1024
        for c in (1.0, 64.0, 700.0):
            a = softmax_rows(t64(x)).data
            b = softmax_rows(t64(x + c)).data
            np.testing.assert_array_equal(a, b)


# ---------------------------------------------------------------------------
# elementwise / concat / reshape
# ---------------------------------------------------------------------------

class TestElementwise:
    def test_relu(self):
        out = relu(t64([-1.0, 0.0, 2.0]))
        np.testing.assert_array_equal(out.data, [0.0, 0.0, 2.0])

    def test_sigmoid_at_zero(self):
        assert sigmoid(t64([0.0])).data[0] == 0.5

    def test_sigmoid_saturation_is_finite(self):
        out = sigmoid(t64([-1000.0, 1000.0]))
        np.testing.assert_allclose(out.data, [0.0, 1.0])

    def test_add_inverse(self, rng):
        x = rng.normal(size=(3, 4))
        out = add(t64(x), t64(-x))
        assert not out.data.any()

    def test_add_shape_mismatch(self, rng):
        with pytest.raises(ShapeError, match="mismatch"):
            add(t64(rng.normal(size=(2, 3))), t64(rng.normal(size=(3, 2))))

    def test_scale(self, rng):
        x = rng.normal(size=(2, 2))
        np.testing.assert_allclose(scale(t64(x), -2.5).data, -2.5 * x)


class TestConcatChannels:
    def test_layout_contract(self, rng):
        a = t64(rng.normal(size=(1, 2, 3, 3)))
        b = t64(rng.normal(size=(1, 3, 3, 3)))
        out = concat_channels([a, b])
        assert out.shape == (1, 5, 3, 3)
        np.testing.assert_array_equal(out.data[:, :2], a.data)
        np.testing.assert_array_equal(out.data[:, 2:], b.data)

    def test_single_tensor_identity(self, rng):
        a = t64(rng.normal(size=(2, 3, 2, 2)))
        np.testing.assert_array_equal(concat_channels([a]).data, a.data)

    def test_round_trip_bit_exact(self, rng):
        parts = [t64(rng.normal(size=(1, c, 4, 4))) for c in (1, 2, 3)]
        out = concat_channels(parts).data
        offsets = [0, 1, 3, 6]
        for p, lo, hi in zip(parts, offsets[:-1], offsets[1:]):
            np.testing.assert_array_equal(out[:, lo:hi], p.data)

    def test_spatial_mismatch_rejected(self, rng):
        with pytest.raises(ShapeError, match="mismatch"):
            concat_channels([t64(rng.normal(size=(1, 1, 4, 4))),
                             t64(rng.normal(size=(1, 1, 4, 5)))])


class TestReshape:
    def test_row_major_contract(self, rng):
        x = t64(rng.normal(size=(1, 3, 2, 4)))
        out = reshape(x, (3, 8))
        for c in range(3):
            for y in range(2):
                for xx in range(4):
                    assert out.data[c, y * 4 + xx] == x.data[0, c, y, xx]

    def test_inverse_is_identity(self, rng):
        x = t64(rng.normal(size=(2, 3, 4)))
        np.testing.assert_array_equal(reshape(reshape(x, (6, 4)), (2, 3, 4)).data, x.data)

    def test_gradient_of_sum_is_ones(self, rng):
        x = t64(rng.normal(size=(2, 3)), requires_grad=True)
        sum_all(reshape(x, (6,))).backward()
        np.testing.assert_array_equal(x.grad, np.ones((2, 3)))

    def test_product_mismatch_rejected(self, rng):
        with pytest.raises(ShapeError):
            reshape(t64(rng.normal(size=(2, 3))), (7,))


# ---------------------------------------------------------------------------
# autodiff
# ---------------------------------------------------------------------------

class TestBackward:
    def test_sum_gradient_is_ones(self, rng):
        x = t64(rng.normal(size=(3, 4)), requires_grad=True)
        sum_all(x).backward()
        np.testing.assert_array_equal(x.grad, np.ones((3, 4)))

    def test_scaled_sum_gradient(self, rng):
        x = t64(rng.normal(size=(2, 5)), requires_grad=True)
        sum_all(scale(x, 3.25)).backward()
        np.testing.assert_array_equal(x.grad, np.full((2, 5), 3.25))

    def test_non_scalar_rejected(self, rng):
        x = t64(rng.normal(size=(2, 2)), requires_grad=True)
        with pytest.raises(ShapeError, match="scalar"):
            relu(x).backward()

    def test_two_layer_net_matches_finite_differences(self, rng):
        x = t64(rng.normal(size=(1, 1, 6, 6)))
        w1 = t64(rng.normal(size=(3, 1, 3, 3)) * 0.5, requires_grad=True)
        b1 = t64(rng.normal(size=(3,)) * 0.1, requires_grad=True)
        w2 = t64(rng.normal(size=(2, 3, 3, 3)) * 0.5, requires_grad=True)
        b2 = t64(rng.normal(size=(2,)) * 0.1, requires_grad=True)
        mask = t64((rng.uniform(size=(1, 2, 6, 6)) > 0.5).astype(np.float64))

        def loss_fn():
            h = relu(conv2d(x, w1, b1))
            return bce_with_logits(conv2d(h, w2, b2), mask)

        errs = reference.check_gradients(
            loss_fn, [("w1", w1), ("b1", b1), ("w2", w2), ("b2", b2)], h=1e-3)
        assert max(errs.values()) < 1e-4

    def test_fan_out_sums_both_branches(self, rng):
        x = t64(rng.normal(size=(4,)) + 2.0, requires_grad=True)

        def loss_fn():
            return sum_all(add(scale(x, 2.0), scale(x, 0.5)))

        errs = reference.check_gradients(loss_fn, [("x", x)], h=1e-3)
        assert errs["x"] < 1e-10
        np.testing.assert_allclose(x.grad, np.full(4, 2.5))

    def test_repeated_backward_accumulates(self, rng):
        x = t64(rng.normal(size=(3,)), requires_grad=True)
        sum_all(x).backward()
        sum_all(x).backward()
        np.testing.assert_array_equal(x.grad, np.full(3, 2.0))

    def test_no_grad_disables_recording(self, rng):
        x = t64(rng.normal(size=(3,)), requires_grad=True)
        with no_grad():
            y = sum_all(x)
        assert y.requires_grad is False
        assert y._backward_fn is None

    def test_first_gradient_of_negative_zero_lands_as_positive_zero(self):
        # the first gradient is 0 + g, as if accumulated into a zeroed buffer
        x = t64(np.ones(3), requires_grad=True)
        sum_all(scale(x, -0.0)).backward()
        assert x.grad.tolist() == [0.0, 0.0, 0.0]
        assert not np.signbit(x.grad).any()

    def test_handed_over_buffer_gets_the_bytes_of_the_copy(self):
        g = np.array([-0.0, 1.5, -0.0, -2.0, 0.0])
        copied, owned = (Tensor(np.zeros(5), requires_grad=True) for _ in range(2))
        buf = g.copy()
        _accumulate(copied, g)
        _accumulate(owned, buf, owned=True)
        assert owned.grad is buf and copied.grad.tobytes() == buf.tobytes()
        assert not np.signbit(buf[[0, 2, 4]]).any()
        _accumulate(copied, g)
        _accumulate(owned, g.copy(), owned=True)  # a second gradient adds in place either way
        assert copied.grad.tobytes() == owned.grad.tobytes()

    @pytest.mark.parametrize("name,hands_over", [
        ("conv2d", True), ("transposed_conv2d", True), ("matmul", True), ("softmax_rows", True),
        ("maxpool2d", True), ("adaptive_avg_pool_to_k", True),
        # these pass g or a view of it, which must be copied
        ("add", False), ("reshape", False), ("concat_channels", False),
        ("transpose_last2", False), ("sum_all", False), ("mean_all", False)])
    def test_ops_hand_over_only_fresh_buffers_with_the_bytes_of_the_copy(
            self, monkeypatch, name, hands_over):
        op, shapes = next((op, shapes) for n, op, shapes in GATED_OPS if n == name)
        original = _accumulate

        def gradients(accumulate):
            monkeypatch.setattr(tensor, "_accumulate", accumulate)
            rng = np.random.default_rng(9)
            operands = [t64(rng.normal(size=s), requires_grad=True) for s in shapes]
            out = op(*operands)
            g = rng.normal(size=out.shape)
            g.reshape(-1)[::2] = -0.0  # negative zeros upstream
            out._backward_fn(g)
            return [t.grad.tobytes() for t in operands]

        flags = []

        def spy(t, g, owned=False):
            flags.append(owned)
            original(t, g, owned)

        handed_over = gradients(spy)
        assert flags and all(f == hands_over for f in flags)
        assert handed_over == gradients(lambda t, g, owned=False: original(t, g))

    def test_first_gradient_broadcasts_into_a_fresh_array(self):
        x = Tensor(np.zeros((2, 3), dtype=np.float32), requires_grad=True)
        g = np.array([1.5, -2.0, 0.25])
        _accumulate(x, g)
        assert x.grad.dtype == np.float32 and x.grad.shape == (2, 3)
        np.testing.assert_array_equal(x.grad, np.tile(g, (2, 1)))
        assert not np.shares_memory(x.grad, g)
        _accumulate(x, g)
        np.testing.assert_array_equal(x.grad, np.tile(2 * g, (2, 1)))
        np.testing.assert_array_equal(g, [1.5, -2.0, 0.25])


    def test_backward_of_untracked_scalar_sets_no_gradient(self, rng):
        x = t64(rng.normal(size=(3,)))
        loss = sum_all(x)
        loss.backward()
        assert loss.grad is None and x.grad is None


# (name, op, operand shapes) for every op of the tape
GATED_OPS = [
    ("conv2d", conv2d, [(1, 2, 5, 5), (3, 2, 3, 3), (3,)]),
    ("transposed_conv2d", transposed_conv2d, [(1, 2, 3, 3), (2, 3, 2, 2), (3,)]),
    ("maxpool2d", maxpool2d, [(1, 2, 4, 4)]),
    ("adaptive_avg_pool_to_k", lambda x: adaptive_avg_pool_to_k(x, 3), [(1, 2, 2, 3)]),
    ("matmul", matmul, [(2, 3, 4), (2, 4, 5)]),
    ("transpose_last2", transpose_last2, [(3, 4)]),
    ("softmax_rows", softmax_rows, [(3, 4)]),
    ("add", add, [(2, 3), (2, 3)]),
    ("relu", relu, [(2, 3)]),
    ("sigmoid", sigmoid, [(2, 3)]),
    ("scale", lambda x: scale(x, -1.75), [(2, 3)]),
    ("concat_channels", lambda *parts: concat_channels(parts),
     [(1, 2, 2, 2), (1, 1, 2, 2), (1, 3, 2, 2)]),
    ("reshape", lambda x: reshape(x, (3, 2)), [(2, 3)]),
    ("sum_all", sum_all, [(2, 3)]),
    ("mean_all", mean_all, [(2, 3)]),
    ("bce_with_logits", bce_with_logits, [(2, 3), (2, 3)]),
]


@pytest.mark.parametrize("op,shapes,untracked", [
    pytest.param(op, shapes, i, id=f"{name}-{i}")
    for name, op, shapes in GATED_OPS for i in range(len(shapes))])
def test_untracked_operand_gets_no_gradient_and_changes_no_other(op, shapes, untracked):
    """Each closure offers every operand its gradient and ``_accumulate`` drops
    the untracked one's.  A one-operand op records no closure for an untracked
    input, so its operand is untracked after the forward instead of before."""
    def run(untracked):
        rng = np.random.default_rng(8)
        operands = [t64(rng.uniform(0.1, 0.9, size=s), requires_grad=True) for s in shapes]
        unary = len(operands) == 1
        if untracked is not None and not unary:
            operands[untracked].requires_grad = False
        out = op(*operands)
        if untracked is not None and unary:
            operands[untracked].requires_grad = False
        (out if out.size == 1 else sum_all(scale(out, 1.5))).backward()
        return [x.grad for x in operands]

    everything, gated = run(None), run(untracked)
    assert gated[untracked] is None
    for i, (a, b) in enumerate(zip(everything, gated)):
        if i != untracked:
            assert (a is None and b is None) or a.tobytes() == b.tobytes(), i


def replay_keeping_graph(loss):
    """Backward as it ran before the tape was consumed: the same traversal and
    accumulation order, but every node keeps its grad, closure and parents."""
    topo, visited, stack = [], set(), [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            topo.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        stack.extend((p, False) for p in node._parents if id(p) not in visited)
    loss.grad = np.ones_like(loss.data)
    for node in reversed(topo):
        if node._backward_fn is not None and node.grad is not None:
            node._backward_fn(node.grad)


def closure_arrays(fn):
    """Every ndarray a function's closure reaches, through nested closures."""
    found, todo = [], [fn]
    while todo:
        for cell in todo.pop().__closure__ or ():
            value = cell.cell_contents
            if isinstance(value, np.ndarray):
                found.append(value)
            elif isinstance(value, types.FunctionType):
                todo.append(value)
    return found


class TestTapeRelease:
    def test_intermediate_freed_by_backward(self, rng):
        x = t64(rng.normal(size=(1, 2, 5, 5)), requires_grad=True)
        w = t64(rng.normal(size=(3, 2, 3, 3)), requires_grad=True)
        hidden = relu(conv2d(x, w, t64(np.zeros(3))))
        ref = weakref.ref(hidden)
        loss = sum_all(scale(hidden, 2.0))
        del hidden
        assert ref() is not None  # the graph holds it until backward
        loss.backward()
        assert ref() is None
        assert loss._backward_fn is None and loss._parents == () and loss.grad is None
        assert x.grad is not None and w.grad is not None

    def test_leaf_grads_equal_replay_keeping_graph(self):
        cfg = ModelConfig(depth=3, encoder_channels=[4, 8, 16], out_channels=2, k=4,
                          lambda_s=10.0, lambda_a=1.0, input_size=16)
        rng = np.random.default_rng(3)
        x = t64(rng.normal(size=(2, 1, 16, 16)))
        mask = t64((rng.uniform(size=(2, 2, 16, 16)) > 0.6).astype(np.float64))
        kept = OmegaNet(cfg, seed=5, dtype=np.float64)
        consumed = OmegaNet(cfg, seed=5, dtype=np.float64)
        replay_keeping_graph(kept.loss(kept.forward(x), mask))
        consumed.loss(consumed.forward(x), mask).backward()
        for (name, a), (_, b) in zip(kept.named_parameters(), consumed.named_parameters()):
            np.testing.assert_array_equal(a.grad, b.grad, err_msg=name)

    @pytest.mark.parametrize("k,dilation,padding", [(3, 1, 1), (1, 1, 0), (3, 2, 2)])
    def test_conv_closure_keeps_no_columns(self, rng, k, dilation, padding):
        # padding is the derived dilation*(k-1)/2: neither the columns nor the
        # padded input they are gathered from outlive the forward
        x = t64(rng.normal(size=(2, 3, 8, 8)), requires_grad=True)
        w = t64(rng.normal(size=(4, 3, k, k)), requires_grad=True)
        out = conv2d(x, w, t64(np.zeros(4)), dilation=dilation)
        cols_shape = (2, 3 * k * k, out.shape[2] * out.shape[3])
        padded_shape = (2, 3, 8 + 2 * padding, 8 + 2 * padding)
        shapes = [a.shape for a in closure_arrays(out._backward_fn)]
        assert shapes and cols_shape not in shapes and padded_shape not in shapes

    def test_fused_relu_keeps_its_output_and_no_pre_activation(self, rng):
        x = t64(rng.normal(size=(2, 3, 8, 8)), requires_grad=True)
        w = t64(rng.normal(size=(4, 3, 3, 3)), requires_grad=True)
        out = conv2d(x, w, t64(np.zeros(4)), relu=True)
        kept = [a for a in closure_arrays(out._backward_fn) if not np.shares_memory(a, w.data)]
        assert len(kept) == 1 and kept[0] is out.data


class TestNumericHygiene:
    def test_float32_paths_stay_float32(self, rng):
        x32 = Tensor(rng.normal(size=(1, 2, 4, 4)).astype(np.float32))
        w32 = Tensor(rng.normal(size=(3, 2, 3, 3)).astype(np.float32))
        b32 = Tensor(np.zeros(3, dtype=np.float32))
        checks = [
            conv2d(x32, w32, b32),
            maxpool2d(x32),
            adaptive_avg_pool_to_k(x32, 3),
            softmax_rows(reshape(x32, (2, 16))),
            relu(x32), sigmoid(x32), scale(x32, 2.0),
            add(x32, x32), concat_channels([x32, x32]),
            transpose_last2(reshape(x32, (2, 16))),
            sum_all(x32), mean_all(x32),
        ]
        for out in checks:
            assert out.dtype == np.float32

    def test_forward_outputs_finite_on_finite_inputs(self, rng):
        x = Tensor(rng.normal(size=(2, 3, 8, 8)).astype(np.float32) * 50)
        w = Tensor(rng.normal(size=(4, 3, 3, 3)).astype(np.float32))
        outputs = [
            conv2d(x, w, Tensor(np.zeros(4, dtype=np.float32))),
            softmax_rows(reshape(x, (6, 64))),
            sigmoid(scale(x, 100.0)),
            maxpool2d(x),
        ]
        for out in outputs:
            assert np.isfinite(out.data).all()


class TestBceWithLogits:
    def test_zero_logits_ln2(self, rng):
        y = t64((rng.uniform(size=(3, 3)) > 0.5).astype(np.float64))
        loss = bce_with_logits(t64(np.zeros((3, 3))), y)
        np.testing.assert_allclose(loss.item(), np.log(2.0), rtol=1e-12)

    def test_saturated_logits_near_zero_loss(self):
        y = np.array([[1.0, 0.0], [0.0, 1.0]])
        z = np.where(y > 0.5, 20.0, -20.0)
        assert bce_with_logits(t64(z), t64(y)).item() < 1e-8

    def test_matches_naive_formula(self, rng):
        z = rng.uniform(-6, 6, size=(2, 2, 4, 4))
        y = (rng.uniform(size=z.shape) > 0.3).astype(np.float64)
        got = bce_with_logits(t64(z), t64(y)).item()
        assert abs(got - reference.bce_naive(z, y)) < 1e-9


class TestPendingFill:
    @staticmethod
    def pending(calls):
        def fill(arr):
            calls.append(arr.shape)
            arr[...] = np.arange(arr.size).reshape(arr.shape)
        return Tensor.pending((2, 3), np.float32, fill)

    def test_metadata_leaves_fill_pending(self):
        calls = []
        t = self.pending(calls)
        assert (t.shape, t.ndim, t.size, t.dtype) == ((2, 3), 2, 6, np.float32)
        assert repr(t) == "Tensor(shape=(2, 3), dtype=float32, requires_grad=True)"
        assert calls == []

    def test_first_read_fills_once(self):
        calls = []
        t = self.pending(calls)
        first = t.data
        np.testing.assert_array_equal(first, np.arange(6, dtype=np.float32).reshape(2, 3))
        assert first.flags.writeable and first.flags.c_contiguous
        assert t.data is first
        assert calls == [(2, 3)]

    def test_assigning_data_discards_fill(self):
        calls = []
        t = self.pending(calls)
        replacement = np.ones((2, 3), dtype=np.float32)
        t.data = replacement
        assert t.data is replacement
        assert calls == []
