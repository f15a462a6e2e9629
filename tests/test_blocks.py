"""Block contracts: composed oracles, attention invariants, shape preservation."""
import numpy as np
import pytest

from omeganet import blocks, reference, verify
from omeganet.tensor import Tensor, ShapeError


def t64(arr, requires_grad=False):
    return Tensor(np.asarray(arr), dtype=np.float64, requires_grad=requires_grad)


@pytest.fixture
def rng():
    return np.random.default_rng(77)


def zero_params(params):
    for _, p in blocks.named_parameters(params):
        p.data = np.zeros_like(p.data)


class TestNamedParameters:
    def test_walk_names_fields_keys_and_list_items_in_order(self):
        a, b, c = (Tensor(np.zeros(1)) for _ in range(3))
        tree = {"x": [None, blocks.ConvParams(a, b, dilation=2)], "y": {"z": c}, "k": 10}
        assert [(n, id(t)) for n, t in blocks.named_parameters(tree, "net")] == [
            ("net.x.2.weight", id(a)), ("net.x.2.bias", id(b)), ("net.y.z", id(c))]


class TestKaimingInit:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("transposed", [False, True])
    def test_chunked_fill_bit_identical_to_whole_draw(self, dtype, transposed):
        # sizes straddle the chunk edges; the generators' states must agree too
        assert verify.init_mismatches(dtype, transposed) == 0


class TestConvBlock:
    def test_zero_weights_zero_output(self, rng):
        p = blocks.init_conv_block(rng, 2, 3, dtype=np.float64)
        zero_params(p)
        out = blocks.conv_block(t64(rng.normal(size=(1, 2, 5, 5))), p)
        assert not out.data.any()

    def test_output_shape(self, rng):
        p = blocks.init_conv_block(rng, 1, 4, dtype=np.float64)
        out = blocks.conv_block(t64(rng.normal(size=(1, 1, 8, 8))), p)
        assert out.shape == (1, 4, 8, 8)

    def test_matches_composed_oracle(self, rng):
        p = blocks.init_conv_block(rng, 2, 4, dtype=np.float64)
        x = rng.normal(size=(1, 2, 5, 5))
        h = np.maximum(reference.conv2d_naive(
            x, p.conv1.weight.data, p.conv1.bias.data, 1, 1, 1), 0)
        ref = np.maximum(reference.conv2d_naive(
            h, p.conv2.weight.data, p.conv2.bias.data, 1, 1, 1), 0)
        got = blocks.conv_block(t64(x), p).data
        assert reference.relative_error(got, ref) < 1e-10

    def test_channel_mismatch_rejected(self, rng):
        p = blocks.init_conv_block(rng, 2, 3, dtype=np.float64)
        with pytest.raises(ShapeError):
            blocks.conv_block(t64(rng.normal(size=(1, 5, 4, 4))), p)


class TestCascadeMsc:
    def test_zero_params_zero_output(self, rng):
        p = blocks.init_msc(rng, 3, dtype=np.float64)
        zero_params(p)
        out = blocks.cascade_msc(t64(rng.normal(size=(1, 3, 4, 4))), p)
        assert not out.data.any()

    def test_shape_contract(self, rng):
        p = blocks.init_msc(rng, 16, dtype=np.float64)
        out = blocks.cascade_msc(t64(rng.normal(size=(2, 16, 32, 32))), p)
        assert out.shape == (2, 16, 32, 32)

    def test_constructed_pass_through(self, rng):
        # zero branches, identity rows on the fuse conv: the block must copy x
        c = 3
        p = blocks.init_msc(rng, c, dtype=np.float64)
        zero_params(p)
        fuse = np.zeros((c, 4 * c, 1, 1))
        for i in range(c):
            fuse[i, i, 0, 0] = 1.0
        p.fuse.weight.data = fuse
        x = rng.normal(size=(2, c, 5, 5))
        out = blocks.cascade_msc(t64(x), p)
        np.testing.assert_allclose(out.data, x, atol=1e-6)

    def test_matches_equation_composition(self, rng):
        c = 2
        p = blocks.init_msc(rng, c, dtype=np.float64)
        x = rng.normal(size=(1, c, 4, 4))
        x1 = np.maximum(reference.conv2d_naive(
            x, p.conv5.weight.data, p.conv5.bias.data, 1, 2, 1), 0)
        x2 = np.maximum(reference.conv2d_naive(
            x + x1, p.conv3.weight.data, p.conv3.bias.data, 1, 1, 1), 0)
        x3 = np.maximum(reference.conv2d_naive(
            x + x2, p.conv1.weight.data, p.conv1.bias.data, 1, 0, 1), 0)
        cat = np.concatenate([x, x1, x2, x3], axis=1)
        ref = reference.conv2d_naive(cat, p.fuse.weight.data, p.fuse.bias.data, 1, 0, 1)
        got = blocks.cascade_msc(t64(x), p).data
        assert reference.relative_error(got, ref) < 1e-10

    def test_channel_mismatch_rejected(self, rng):
        p = blocks.init_msc(rng, 3, dtype=np.float64)
        with pytest.raises(ShapeError, match="channels"):
            blocks.cascade_msc(t64(rng.normal(size=(1, 4, 4, 4))), p)


class TestDspa:
    def test_uniform_attention_when_summaries_identical(self, rng):
        # zero conv weights + a bias vector force every pooled column to the
        # same vector d, so every attention row is uniform and O_j = d + M_j
        c, k = 3, 4
        p = blocks.init_dspa(rng, c, k=k, dtype=np.float64)
        p.dilated.weight.data = np.zeros_like(p.dilated.weight.data)
        d_vec = np.array([0.5, 1.5, 2.0])
        p.dilated.bias.data = d_vec.copy()
        m = rng.normal(size=(1, c, 3, 3))
        out, attn = blocks.dspa(t64(m), p, return_attention=True)
        np.testing.assert_allclose(attn.data, np.full((1, 9, k), 1.0 / k), atol=1e-12)
        np.testing.assert_allclose(out.data, m + d_vec.reshape(1, c, 1, 1), atol=1e-12)

    def test_shape_and_attention_dims_k10(self, rng):
        p = blocks.init_dspa(rng, 32, k=10, dtype=np.float64)
        m = t64(rng.normal(size=(1, 32, 16, 16)) * 0.25)
        out, attn = blocks.dspa(m, p, return_attention=True)
        assert out.shape == (1, 32, 16, 16)
        assert attn.shape == (1, 256, 10)

    def test_matches_loop_oracle(self, rng):
        c, k = 3, 2
        p = blocks.init_dspa(rng, c, k=k, dtype=np.float64)
        m = rng.normal(size=(1, c, 4, 4))
        got = blocks.dspa(t64(m), p).data.reshape(c, 16)
        t = np.maximum(reference.conv2d_naive(
            m, p.dilated.weight.data, p.dilated.bias.data, 1, 2, 2), 0)
        d = reference.adaptive_pool_naive(t, k)[0]
        ref, _ = reference.spatial_attention_naive(m.reshape(c, 16), d)
        assert reference.relative_error(got, ref) < 1e-10

    def test_residual_is_weighted_sum_term(self, rng):
        c, k = 2, 3
        p = blocks.init_dspa(rng, c, k=k, dtype=np.float64)
        m = rng.normal(size=(1, c, 3, 3))
        t = np.maximum(reference.conv2d_naive(
            m, p.dilated.weight.data, p.dilated.bias.data, 1, 2, 2), 0)
        d = reference.adaptive_pool_naive(t, k)[0]
        _, a = reference.spatial_attention_naive(m.reshape(c, 9), d)
        got = blocks.dspa(t64(m), p).data.reshape(c, 9) - m.reshape(c, 9)
        assert reference.relative_error(got, d @ a.T) < 1e-10

    def test_too_few_positions_rejected(self, rng):
        p = blocks.init_dspa(rng, 2, k=5, dtype=np.float64)
        with pytest.raises(ShapeError, match="1 <= k <= H\\*W"):
            blocks.dspa(t64(rng.normal(size=(1, 2, 2, 2))), p)


class TestChannelAttention:
    def test_single_channel_doubles(self, rng):
        m = t64(rng.normal(size=(1, 1, 2, 2)))
        out, attn = blocks.channel_attention(m, return_attention=True)
        np.testing.assert_array_equal(attn.data, [[[1.0]]])
        np.testing.assert_allclose(out.data, 2.0 * m.data, atol=1e-12)

    def test_identical_channels_average(self, rng):
        row = rng.normal(size=(1, 1, 2, 3))
        m = t64(np.concatenate([row, row], axis=1))
        out, attn = blocks.channel_attention(m, return_attention=True)
        np.testing.assert_allclose(attn.data, np.full((1, 2, 2), 0.5), atol=1e-12)
        np.testing.assert_allclose(out.data, 2.0 * m.data, atol=1e-12)

    def test_matches_loop_oracle(self, rng):
        m = rng.normal(size=(1, 3, 2, 2))
        got = blocks.channel_attention(t64(m)).data.reshape(3, 4)
        ref, _ = reference.channel_attention_naive(m.reshape(3, 4))
        assert reference.relative_error(got, ref) < 1e-10

    def test_residual_is_weighted_sum_term(self, rng):
        m = rng.normal(size=(1, 4, 2, 2))
        m2 = m.reshape(4, 4)
        _, a = reference.channel_attention_naive(m2)
        got = blocks.channel_attention(t64(m)).data.reshape(4, 4) - m2
        assert reference.relative_error(got, a @ m2) < 1e-10


class TestMdsa:
    def test_shape_preserved(self, rng):
        p = blocks.init_dspa(rng, 64, k=10, dtype=np.float64)
        m = t64(rng.normal(size=(1, 64, 8, 8)) * 0.2)
        assert blocks.mdsa(m, p).shape == (1, 64, 8, 8)

    def test_zero_input_zero_output(self, rng):
        p = blocks.init_dspa(rng, 3, k=2, dtype=np.float64)
        out = blocks.mdsa(t64(np.zeros((1, 3, 3, 3))), p)
        assert not out.data.any()

    def test_composition_equals_sequential_oracles(self, rng):
        c, k = 3, 2
        p = blocks.init_dspa(rng, c, k=k, dtype=np.float64)
        m = rng.normal(size=(1, c, 3, 3))
        t = np.maximum(reference.conv2d_naive(
            m, p.dilated.weight.data, p.dilated.bias.data, 1, 2, 2), 0)
        d = reference.adaptive_pool_naive(t, k)[0]
        mid, _ = reference.spatial_attention_naive(m.reshape(c, 9), d)
        ref, _ = reference.channel_attention_naive(mid)
        got = blocks.mdsa(t64(m), p).data.reshape(c, 9)
        assert reference.relative_error(got, ref) < 1e-10


class TestBlockProperties:
    @pytest.mark.parametrize("shape", [(1, 2, 4, 4), (2, 3, 8, 6), (1, 6, 4, 8)])
    def test_every_block_preserves_shape(self, rng, shape):
        n, c, h, w = shape
        x = t64(rng.normal(size=shape) * 0.3)
        cases = [
            blocks.conv_block(x, blocks.init_conv_block(rng, c, c, dtype=np.float64)),
            blocks.cascade_msc(x, blocks.init_msc(rng, c, dtype=np.float64)),
            blocks.dspa(x, blocks.init_dspa(rng, c, k=3, dtype=np.float64)),
            blocks.channel_attention(x),
            blocks.mdsa(x, blocks.init_dspa(rng, c, k=3, dtype=np.float64)),
        ]
        for out in cases:
            assert out.shape == shape

    def test_attention_rows_sum_to_one_float32(self, rng):
        for _ in range(10):
            c = int(rng.integers(2, 8))
            h = int(rng.integers(2, 6))
            x = Tensor((rng.normal(size=(2, c, h, h)) * 2).astype(np.float32))
            p = blocks.init_dspa(rng, c, k=min(4, h * h))
            _, a = blocks.dspa(x, p, return_attention=True)
            np.testing.assert_allclose(a.data.sum(-1), 1.0, atol=1e-6)
            _, a2 = blocks.channel_attention(x, return_attention=True)
            np.testing.assert_allclose(a2.data.sum(-1), 1.0, atol=1e-6)

    def test_gradients_match_finite_differences(self, rng):
        x = t64(rng.normal(size=(1, 3, 4, 4)), requires_grad=True)
        pd = blocks.init_dspa(rng, 3, k=2, dtype=np.float64)
        pm = blocks.init_msc(rng, 3, dtype=np.float64)

        def loss_fn():
            return blocks.cascade_msc(
                blocks.channel_attention(blocks.dspa(x, pd)), pm).sum()

        # the three-block composition needs a finer step than the per-block
        # checks to keep the difference quotient away from relu kinks
        params = [("x", x)] + list(blocks.named_parameters({"dspa": pd, "msc": pm}))
        errs = reference.check_gradients(loss_fn, params, h=1e-5)
        assert max(errs.values()) < 1e-4
