"""Network assembly: shape pipeline, losses, dual-supervision wiring, checkpoints."""
import hashlib
import json
import os

import numpy as np
import pytest

from omeganet import blocks, verify
from omeganet import net as net_module
from omeganet.data import read_otf, write_otf
from omeganet.net import (
    CheckpointError,
    DualOutput,
    ModelConfig,
    OmegaNet,
    bce_loss,
    build_from_checkpoint,
    dual_loss,
    load_checkpoint,
    restore_parameters,
    save_checkpoint,
)
from omeganet.reference import bce_naive
from omeganet.tensor import Tensor, ShapeError, maxpool2d, no_grad, concat_channels


def toy_config(**overrides):
    base = dict(depth=3, encoder_channels=[4, 8, 16], out_channels=2, k=4,
                lambda_s=10.0, lambda_a=1.0, input_size=16)
    base.update(overrides)
    return ModelConfig(**base)


@pytest.fixture
def rng():
    return np.random.default_rng(5)


class TestModelConfig:
    def test_defaults_match_channel_ladder(self):
        cfg = ModelConfig()
        assert cfg.encoder_channels == [64, 128, 256, 512, 1024]
        assert cfg.decoder_channels == [1024, 512, 256, 128, 64]
        assert cfg.k == 10 and cfg.out_channels == 2
        assert cfg.lambda_s == 10.0 and cfg.lambda_a == 1.0

    def test_non_doubling_ladder_rejected(self):
        with pytest.raises(ValueError, match="double"):
            ModelConfig(depth=3, encoder_channels=[4, 8, 12], input_size=16)

    def test_decoder_must_reverse_encoder(self):
        with pytest.raises(ValueError, match="reverse"):
            ModelConfig.from_dict(dict(depth=3, encoder_channels=[4, 8, 16],
                                       decoder_channels=[16, 4, 8], input_size=16))

    def test_input_size_must_be_power_of_two(self):
        with pytest.raises(ValueError, match="power of two"):
            toy_config(input_size=24)

    def test_input_size_floor(self):
        with pytest.raises(ValueError, match="too small"):
            ModelConfig(depth=5, encoder_channels=[4, 8, 16, 32, 64], input_size=8)

    def test_k_over_coarsest_attended_skip_rejected_unless_mdsa_disabled(self):
        toy_config(k=64)  # stage 1's skip is 8x8
        with pytest.raises(ValueError, match="k must be <= 64"):
            toy_config(k=65)
        toy_config(k=65, mdsa_enabled=False)
        with pytest.raises(ValueError, match="k must be <= 4, the 2x2 positions"):
            ModelConfig(depth=4, encoder_channels=[4, 8, 16, 32], input_size=8, k=10)

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown"):
            ModelConfig.from_dict({"depth": 3, "bogus": 1})

    def test_default_json_is_frozen(self):
        # the checkpoint header is these bytes; older checkpoints also carry
        # decoder_channels, and must keep loading (TestCheckpoint)
        assert json.dumps(ModelConfig().to_dict(), sort_keys=True) == (
            '{"depth": 5, "encoder_channels": [64, 128, 256, 512, 1024], "input_size": 512,'
            ' "k": 10, "lambda_a": 1.0, "lambda_s": 10.0, "mdsa_enabled": true,'
            ' "out_channels": 2}'
        )

    def test_round_trip(self):
        cfg = toy_config()
        assert ModelConfig.from_dict(cfg.to_dict()) == cfg


class TestEncode:
    def test_stage_shapes_toy(self, rng):
        net = OmegaNet(toy_config(), seed=0)
        x = Tensor(rng.normal(size=(1, 1, 16, 16)).astype(np.float32))
        with no_grad():
            encs = net.encode(x)
        assert [e.shape for e in encs] == [
            (1, 4, 16, 16), (1, 8, 8, 8), (1, 16, 4, 4)]

    def test_stage_shapes_d5(self, rng):
        cfg = ModelConfig(depth=5, encoder_channels=[4, 8, 16, 32, 64], input_size=64)
        net = OmegaNet(cfg, seed=0)
        x = Tensor(rng.normal(size=(1, 1, 64, 64)).astype(np.float32))
        with no_grad():
            encs = net.encode(x)
        assert encs[0].shape == (1, 4, 64, 64)
        assert encs[-1].shape == (1, 64, 4, 4)

    def test_default_ladder_bottleneck_at_64(self, rng):
        net = OmegaNet(ModelConfig(input_size=64), seed=0)
        x = Tensor(rng.normal(size=(1, 1, 64, 64)).astype(np.float32))
        with no_grad():
            encs = net.encode(x)
        assert encs[0].shape == (1, 64, 64, 64)
        assert encs[-1].shape == (1, 1024, 4, 4)

    def test_wrong_input_rejected(self, rng):
        net = OmegaNet(toy_config(), seed=0)
        with pytest.raises(ShapeError, match="N, 1, H, W"):
            net.encode(Tensor(rng.normal(size=(1, 2, 16, 16)).astype(np.float32)))
        with pytest.raises(ShapeError, match="16x16"):
            net.encode(Tensor(rng.normal(size=(1, 1, 8, 8)).astype(np.float32)))


class TestParameterList:
    """The checkpoint format: every parameter's name and shape, in order.

    Each digest is of the "name shape" lines joined by newlines, recorded
    from the per-block naming code that the one parameter walk replaced.
    """

    @staticmethod
    def digest(net):
        lines = "\n".join(f"{n} {tuple(p.shape)}" for n, p in net.named_parameters())
        return hashlib.sha256(lines.encode()).hexdigest()

    def test_paper_config(self):
        net = OmegaNet(ModelConfig(), seed=0)
        assert (len(net.named_parameters()), net.num_parameters()) == (112, 72470468)
        assert self.digest(net) == (
            "a57c5d1863424d25954f99419790e551b0f49e5003dc8bbb4de7e6c7e424da7f")

    def test_toy_config_without_mdsa(self):
        net = OmegaNet(toy_config(mdsa_enabled=False), seed=0)
        names = [n for n, _ in net.named_parameters()]
        assert (len(names), net.num_parameters()) == (56, 14136)
        assert names[12:14] == ["msc.1.conv5.weight", "msc.1.conv5.bias"]
        assert names[28:30] == ["aux.1.up.weight", "aux.1.up.bias"]
        assert names[-2:] == ["head.main.weight", "head.main.bias"]
        assert self.digest(net) == (
            "eb0ce3b985154c56555870eeecf44617553399f67a656d36e3bf87ff486cb737")


class TestDecoders:
    def test_additional_path_shapes(self, rng):
        net = OmegaNet(toy_config(), seed=0)
        x = Tensor(rng.normal(size=(1, 1, 16, 16)).astype(np.float32))
        with no_grad():
            encs = net.encode(x)
            aux = net.decode_additional(encs, net.msc_skips(encs))
        assert [a.shape for a in aux] == [(1, 8, 8, 8), (1, 4, 16, 16)]

    def test_mdsa_input_channels_are_twice_decoder_channels(self):
        net = OmegaNet(toy_config(), seed=0)
        dec = net.config.decoder_channels
        for j, dp in enumerate(net.skip_dspa, start=1):
            assert dp.dilated.weight.shape[:2] == (2 * dec[j], 2 * dec[j])

    def test_gradient_reaches_every_encoder_parameter(self, rng):
        net = OmegaNet(toy_config(), seed=0, dtype=np.float64)
        x = Tensor(rng.normal(size=(1, 1, 16, 16)), dtype=np.float64)
        encs = net.encode(x)
        aux = net.decode_additional(encs, net.msc_skips(encs))
        net.zero_grad()
        aux[-1].sum().backward()
        for name, p in net.named_parameters():
            if name.startswith("enc."):
                assert p.grad is not None and np.abs(p.grad).max() > 0, name

    def test_original_path_equals_hand_assembled_composition(self, rng):
        net = OmegaNet(toy_config(), seed=3, dtype=np.float64)
        x = Tensor(rng.normal(size=(1, 1, 16, 16)), dtype=np.float64)
        got = net.forward(x)

        # rebuild the same dataflow from the block functions
        e1 = blocks.conv_block(x, net.encoder[0])
        e2 = blocks.conv_block(maxpool2d(e1), net.encoder[1])
        e3 = blocks.conv_block(maxpool2d(e2), net.encoder[2])
        m1 = blocks.cascade_msc(e2, net.skip_msc[0])
        m2 = blocks.cascade_msc(e1, net.skip_msc[1])
        a1 = blocks.conv_block(
            concat_channels([blocks.apply_conv(e3, net.aux[0].up), m1]), net.aux[0].block)
        a2 = blocks.conv_block(
            concat_channels([blocks.apply_conv(a1, net.aux[1].up), m2]), net.aux[1].block)
        s1 = blocks.mdsa(concat_channels([a1, m1]), net.skip_dspa[0])
        o1 = blocks.conv_block(
            concat_channels([blocks.apply_conv(e3, net.main[0].up), s1]), net.main[0].block)
        s2 = blocks.mdsa(concat_channels([a2, m2]), net.skip_dspa[1])
        o2 = blocks.conv_block(
            concat_channels([blocks.apply_conv(o1, net.main[1].up), s2]), net.main[1].block)
        np.testing.assert_array_equal(got.aux_logits.data,
                                      blocks.apply_conv(a2, net.head_aux).data)
        np.testing.assert_array_equal(got.main_logits.data,
                                      blocks.apply_conv(o2, net.head_main).data)


class TestForward:
    def test_dual_output_shapes(self, rng):
        cfg = ModelConfig(depth=3, encoder_channels=[4, 8, 16], input_size=64, k=10)
        net = OmegaNet(cfg, seed=0)
        x = Tensor(rng.normal(size=(1, 1, 64, 64)).astype(np.float32))
        with no_grad():
            out = net.forward(x)
        assert out.main_logits.shape == (1, 2, 64, 64)
        assert out.aux_logits.shape == (1, 2, 64, 64)

    def test_forward_is_deterministic(self, rng):
        net = OmegaNet(toy_config(), seed=0)
        x = Tensor(rng.normal(size=(2, 1, 16, 16)).astype(np.float32))
        with no_grad():
            a = net.forward(x)
            b = net.forward(x)
        np.testing.assert_array_equal(a.main_logits.data, b.main_logits.data)
        np.testing.assert_array_equal(a.aux_logits.data, b.aux_logits.data)

    def test_zero_heads_emit_bias_constant(self, rng):
        net = OmegaNet(toy_config(), seed=0)
        net.head_main.weight.data = np.zeros_like(net.head_main.weight.data)
        net.head_main.bias.data = np.array([1.5, -2.0], dtype=np.float32)
        x = Tensor(rng.normal(size=(1, 1, 16, 16)).astype(np.float32))
        with no_grad():
            out = net.forward(x)
        np.testing.assert_array_equal(out.main_logits.data[0, 0], np.full((16, 16), 1.5))
        np.testing.assert_array_equal(out.main_logits.data[0, 1], np.full((16, 16), -2.0))

    def test_same_seed_same_parameters(self):
        a = OmegaNet(toy_config(), seed=9)
        b = OmegaNet(toy_config(), seed=9)
        for (na, pa), (nb, pb) in zip(a.named_parameters(), b.named_parameters()):
            assert na == nb
            np.testing.assert_array_equal(pa.data, pb.data)

    def test_parameter_count_is_config_function(self):
        assert (OmegaNet(toy_config(), seed=0).num_parameters()
                == OmegaNet(toy_config(), seed=123).num_parameters())

    def test_mdsa_disabled_variant_runs_without_dspa_params(self, rng):
        net = OmegaNet(toy_config(mdsa_enabled=False), seed=0)
        assert all(not n.startswith("dspa.") for n, _ in net.named_parameters())
        x = Tensor(rng.normal(size=(1, 1, 16, 16)).astype(np.float32))
        with no_grad():
            out = net.forward(x)
        assert out.main_logits.shape == (1, 2, 16, 16)


class TestLosses:
    def test_bce_zero_logits(self, rng):
        y = Tensor((rng.uniform(size=(1, 2, 3, 3)) > 0.5).astype(np.float64))
        loss = bce_loss(Tensor(np.zeros((1, 2, 3, 3))), y)
        np.testing.assert_allclose(loss.item(), np.log(2.0), rtol=1e-6)

    def test_bce_saturation(self):
        y = np.array([[[[1.0, 0.0], [0.0, 1.0]]]])
        z = np.where(y > 0.5, 20.0, -20.0)
        assert bce_loss(Tensor(z), Tensor(y)).item() < 1e-8

    def test_bce_matches_naive(self, rng):
        z = rng.uniform(-5, 5, size=(1, 2, 4, 4))
        y = (rng.uniform(size=z.shape) > 0.5).astype(np.float64)
        got = bce_loss(Tensor(z), Tensor(y)).item()
        assert abs(got - bce_naive(z, y)) < 1e-9

    def test_bce_rejects_non_binary_mask(self, rng):
        with pytest.raises(ValueError, match="only 0 and 1"):
            bce_loss(Tensor(np.zeros((1, 1, 2, 2))),
                     Tensor(np.full((1, 1, 2, 2), 0.5)))

    def test_dual_loss_zero_logits_is_11_ln2(self, rng):
        mask = Tensor((rng.uniform(size=(1, 2, 4, 4)) > 0.5).astype(np.float64))
        out = DualOutput(Tensor(np.zeros((1, 2, 4, 4))), Tensor(np.zeros((1, 2, 4, 4))))
        np.testing.assert_allclose(dual_loss(out, mask, 10.0, 1.0).item(),
                                   11.0 * np.log(2.0), rtol=1e-6)

    def test_lambda_a_zero_reduces_to_main_loss(self, rng):
        z1 = Tensor(rng.normal(size=(1, 2, 3, 3)))
        z2 = Tensor(rng.normal(size=(1, 2, 3, 3)))
        mask = Tensor((rng.uniform(size=(1, 2, 3, 3)) > 0.5).astype(np.float32))
        full = dual_loss(DualOutput(z1, z2), mask, 10.0, 0.0).item()
        main_only = 10.0 * bce_loss(z1, mask).item()
        np.testing.assert_allclose(full, main_only, rtol=1e-6)

    def test_loss_positive_on_finite_logits(self, rng):
        mask = Tensor((rng.uniform(size=(1, 2, 3, 3)) > 0.5).astype(np.float32))
        out = DualOutput(Tensor(rng.normal(size=(1, 2, 3, 3))),
                         Tensor(rng.normal(size=(1, 2, 3, 3))))
        assert dual_loss(out, mask).item() > 0.0


class TestDualSupervisionWiring:
    @pytest.fixture
    def setup(self, rng):
        net = OmegaNet(toy_config(), seed=1, dtype=np.float64)
        x = Tensor(rng.normal(size=(1, 1, 16, 16)), dtype=np.float64)
        mask = Tensor((rng.uniform(size=(1, 2, 16, 16)) > 0.5).astype(np.float64))
        return net, x, mask

    def test_lambda_s_zero_silences_main_head_only(self, setup):
        net, x, mask = setup
        net.zero_grad()
        dual_loss(net.forward(x), mask, lambda_s=0.0, lambda_a=1.0).backward()
        for n, p in net.named_parameters():
            assert p.grad is not None and p.grad.shape == p.data.shape, n
        grads = {n: p.grad for n, p in net.named_parameters()}
        assert not grads["head.main.weight"].any()
        assert not grads["head.main.bias"].any()
        assert np.abs(grads["head.aux.weight"]).max() > 0
        for name in ("enc.1.conv1.weight", "enc.2.conv1.weight", "enc.3.conv1.weight"):
            assert np.abs(grads[name]).max() > 0, name

    def test_lambda_a_zero_silences_aux_head_only(self, setup):
        net, x, mask = setup
        net.zero_grad()
        dual_loss(net.forward(x), mask, lambda_s=1.0, lambda_a=0.0).backward()
        grads = {n: p.grad for n, p in net.named_parameters()}
        assert not grads["head.aux.weight"].any()
        assert not grads["head.aux.bias"].any()
        assert np.abs(grads["head.main.weight"]).max() > 0


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path, rng):
        net = OmegaNet(toy_config(), seed=2)
        path = tmp_path / "net.otf"
        save_checkpoint(net, path, extra={"adam.t": np.array([3.0], dtype=np.float32)})
        loaded, extra = build_from_checkpoint(path)
        assert loaded.config == net.config
        for (na, pa), (_, pb) in zip(net.named_parameters(), loaded.named_parameters()):
            np.testing.assert_array_equal(pa.data, pb.data)
        assert extra["adam.t"][0] == 3.0

    def test_tiny_checkpoint_bytes_are_frozen(self, tmp_path):
        # pins the seed-0 Kaiming init bits and the writer's bytes together;
        # recorded from the whole-array init and the tobytes() writer
        path = tmp_path / "tiny.otf"
        save_checkpoint(OmegaNet(verify.tiny_config(), seed=0), path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "34244eee1f88be2990ce74173f349f1613e99d4955613b8cda2f94004438a5af")

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_weights_do_not_depend_on_read_order(self, dtype):
        # each weight is drawn on its first read from its own generator position
        forward = OmegaNet(verify.tiny_config(), seed=0, dtype=dtype).named_parameters()
        backward = OmegaNet(verify.tiny_config(), seed=0, dtype=dtype).named_parameters()
        later = {name: p.data.tobytes() for name, p in reversed(backward)}
        for name, p in forward:
            assert p.data.tobytes() == later[name], name

    def test_shape_mismatch_names_tensor(self, tmp_path):
        net = OmegaNet(toy_config(), seed=0)
        path = tmp_path / "net.otf"
        save_checkpoint(net, path)
        other = OmegaNet(toy_config(encoder_channels=[8, 16, 32]), seed=0)
        _, entries = load_checkpoint(path)
        with pytest.raises(CheckpointError, match="enc.1.conv1.weight"):
            restore_parameters(other, entries)

    def test_missing_tensor_rejected(self, tmp_path):
        net = OmegaNet(toy_config(), seed=0)
        path = tmp_path / "net.otf"
        save_checkpoint(net, path)
        _, entries = load_checkpoint(path)
        entries.pop("head.main.bias")
        with pytest.raises(CheckpointError, match="head.main.bias"):
            restore_parameters(OmegaNet(toy_config(), seed=1), entries)

    def test_unexpected_tensor_rejected(self, tmp_path):
        net = OmegaNet(toy_config(), seed=0)
        path = tmp_path / "net.otf"
        save_checkpoint(net, path, extra={"surprise": np.zeros(2, dtype=np.float32)})
        _, entries = load_checkpoint(path)
        with pytest.raises(CheckpointError, match="surprise"):
            restore_parameters(OmegaNet(toy_config(), seed=1), entries)

    def test_legacy_config_with_decoder_channels_loads(self, tmp_path):
        net = OmegaNet(toy_config(), seed=2)
        path = tmp_path / "legacy.otf"
        save_checkpoint(net, path)
        entries = read_otf(path)
        legacy = dict(net.config.to_dict(), decoder_channels=[16, 8, 4])
        raw = json.dumps(legacy, sort_keys=True).encode("utf-8")
        entries[net_module.CONFIG_ENTRY] = np.frombuffer(raw, dtype=np.uint8).astype(np.float32)
        write_otf(path, entries)
        loaded, _ = build_from_checkpoint(path)
        assert loaded.config == net.config
        for (na, pa), (_, pb) in zip(net.named_parameters(), loaded.named_parameters()):
            np.testing.assert_array_equal(pa.data, pb.data, err_msg=na)

    def test_huge_finite_values_load(self, tmp_path):
        # their sum of squares overflows, so the finite check must look again
        net = OmegaNet(toy_config(), seed=0)
        net.head_main.bias.data[:] = [3e38, -3e38]
        save_checkpoint(net, tmp_path / "net.otf")
        loaded, _ = build_from_checkpoint(tmp_path / "net.otf")
        np.testing.assert_array_equal(loaded.head_main.bias.data, net.head_main.bias.data)

    def test_config_header_survives(self, tmp_path):
        cfg = toy_config(mdsa_enabled=False, lambda_s=2.5)
        save_checkpoint(OmegaNet(cfg, seed=0), tmp_path / "n.otf")
        loaded_cfg, _ = load_checkpoint(tmp_path / "n.otf")
        assert loaded_cfg == cfg

    def test_failed_write_keeps_previous_checkpoint(self, tmp_path, monkeypatch):
        path = tmp_path / "net.otf"
        save_checkpoint(OmegaNet(toy_config(), seed=0), path)
        before = path.read_bytes()

        def write_half_then_fail(target, entries):
            write_otf(target, entries)
            with open(target, "r+b") as f:
                f.truncate(len(before) // 2)
            raise OSError("disk full")

        monkeypatch.setattr(net_module, "write_otf", write_half_then_fail)
        with pytest.raises(OSError, match="disk full"):
            save_checkpoint(OmegaNet(toy_config(), seed=1), path)
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["net.otf"]

    def test_save_fsyncs_file_before_rename_and_directory_after(self, tmp_path, monkeypatch):
        path, events = tmp_path / "net.otf", []
        write, fsync, replace = net_module.write_otf, os.fsync, os.replace

        def inode(st):
            return st.st_dev, st.st_ino

        def logged_write(target, entries):
            write(target, entries)
            events.append(("write", inode(os.stat(target))))

        def logged_fsync(fd):
            events.append(("fsync", inode(os.fstat(fd))))
            fsync(fd)

        def logged_replace(src, dst):
            events.append(("replace", str(src), str(dst)))
            replace(src, dst)

        monkeypatch.setattr(net_module, "write_otf", logged_write)
        monkeypatch.setattr(os, "fsync", logged_fsync)
        monkeypatch.setattr(os, "replace", logged_replace)
        save_checkpoint(OmegaNet(toy_config(), seed=0), path)
        file = inode(os.stat(path))  # the rename keeps the inode
        assert events == [("write", file), ("fsync", file),
                          ("replace", f"{path}.tmp", str(path)),
                          ("fsync", inode(os.stat(tmp_path)))]

    def test_every_bit_flip_of_config_entry_loads_or_raises_checkpoint_error(
            self, tmp_path, monkeypatch):
        path = tmp_path / "net.otf"
        save_checkpoint(OmegaNet(toy_config()), path)
        entries = net_module.read_otf(path)
        raw = bytearray(entries.pop(net_module.CONFIG_ENTRY).tobytes())
        # the sweep flips bits of the decoded entry, so the file is read once
        current = {}
        monkeypatch.setattr(net_module, "read_otf", lambda _: dict(current))
        loaded = 0
        for bit in range(8 * len(raw)):
            flipped = bytearray(raw)
            flipped[bit // 8] ^= 1 << (bit % 8)
            current = {net_module.CONFIG_ENTRY: np.frombuffer(flipped, dtype=np.float32)}
            try:
                load_checkpoint(path)
                loaded += 1
            except CheckpointError as e:
                assert str(path) in str(e)
        # some flips still parse as a valid config, so the sweep reaches from_dict
        assert 0 < loaded < 8 * len(raw)
