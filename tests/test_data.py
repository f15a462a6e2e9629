"""Synthetic generator invariants, OTF container fuzzing, PGM format contracts."""
import json
import struct

import numpy as np
import pytest

from omeganet.data import (
    DiskDataset,
    OtfError,
    SyntheticSpec,
    generate,
    read_otf,
    read_pgm,
    split_ranges,
    write_dataset,
    write_mask_pgm,
    write_otf,
    write_pgm,
)


class TestGenerate:
    def test_determinism_bit_identical(self):
        spec = SyntheticSpec(n_samples=4, seed=12)
        a = generate(spec, 2)
        b = generate(spec, 2)
        np.testing.assert_array_equal(a.image, b.image)
        np.testing.assert_array_equal(a.mask, b.mask)

    def test_different_indices_differ(self):
        spec = SyntheticSpec(n_samples=4, seed=12)
        assert not np.array_equal(generate(spec, 0).image, generate(spec, 1).image)

    def test_noise_free_images_use_three_levels(self):
        spec = SyntheticSpec(n_samples=2, seed=5, noise_sigma=0.0)
        sample = generate(spec, 0)
        levels = np.unique(sample.image)
        assert set(levels).issubset({np.float32(0.1), np.float32(0.6), np.float32(0.9)})

    def test_organ_area_fraction_in_bounds(self):
        spec = SyntheticSpec(image_size=64, n_samples=16, seed=3)
        ring = (2 * np.pi * 0.3 * 64 + 8) / 64 ** 2  # one-pixel ring slack
        for i in range(16):
            frac = generate(spec, i).mask[0].mean()
            assert np.pi * 0.15 ** 2 - ring <= frac <= np.pi * 0.3 ** 2 + ring

    def test_tumor_inside_organ(self):
        spec = SyntheticSpec(image_size=48, n_samples=24, seed=8)
        for i in range(24):
            mask = generate(spec, i).mask
            organ, tumor = mask[0] > 0.5, mask[1] > 0.5
            assert tumor.sum() >= 0
            assert organ.sum() > 0
            assert not (tumor & ~organ).any()

    def test_sample_ranges_and_dtypes(self):
        sample = generate(SyntheticSpec(n_samples=1, seed=1), 0)
        assert sample.image.shape == (1, 64, 64) and sample.image.dtype == np.float32
        assert sample.mask.shape == (2, 64, 64) and sample.mask.dtype == np.float32
        assert 0.0 <= sample.image.min() and sample.image.max() <= 1.0
        assert np.isin(sample.mask, (0.0, 1.0)).all()

    def test_out_of_range_index(self):
        with pytest.raises(IndexError):
            generate(SyntheticSpec(n_samples=3, seed=0), 3)


class TestSplits:
    def test_ten_samples_split_7_1_2(self):
        splits = split_ranges(10)
        assert list(splits["train"]) == list(range(7))
        assert list(splits["val"]) == [7]
        assert list(splits["test"]) == [8, 9]

    @pytest.mark.parametrize("n", [1, 5, 10, 37, 64, 100])
    def test_disjoint_and_exhaustive(self, n):
        splits = split_ranges(n)
        combined = sorted(list(splits["train"]) + list(splits["val"]) + list(splits["test"]))
        assert combined == list(range(n))


class TestOtf:
    def test_empty_set_is_header_only(self, tmp_path):
        path = tmp_path / "empty.otf"
        write_otf(path, {})
        assert path.read_bytes() == b"OTF1" + b"\x00\x00\x00\x00"
        assert read_otf(path) == {}

    def test_single_tensor_round_trip(self, tmp_path):
        arr = np.array([[1.5, -2.25], [0.0, 3e-7]], dtype=np.float32)
        path = tmp_path / "one.otf"
        write_otf(path, {"m": arr})
        out = read_otf(path)
        assert list(out) == ["m"]
        np.testing.assert_array_equal(out["m"], arr)

    def test_fuzzed_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(31)
        for case in range(25):
            tensors = {}
            for t in range(int(rng.integers(1, 6))):
                name = "t" + "".join(chr(int(c)) for c in rng.integers(97, 123, size=5)) + str(t)
                rank = int(rng.integers(1, 5))
                shape = tuple(int(s) for s in rng.integers(1, 5, size=rank))
                tensors[name] = rng.normal(size=shape).astype(np.float32)
            path = tmp_path / f"fuzz{case}.otf"
            write_otf(path, tensors)
            out = read_otf(path)
            assert list(out) == list(tensors)
            for name in tensors:
                assert out[name].shape == tensors[name].shape
                assert out[name].tobytes() == tensors[name].tobytes()
                flags = out[name].flags
                assert flags.owndata and flags.aligned and flags.writeable

    def test_duplicate_names_rejected(self, tmp_path):
        arr = np.zeros(1, dtype=np.float32)
        with pytest.raises(OtfError, match="duplicate"):
            write_otf(tmp_path / "d.otf", [("a", arr), ("a", arr)])

    def test_non_float32_rejected(self, tmp_path):
        with pytest.raises(OtfError, match="float32"):
            write_otf(tmp_path / "f.otf", {"a": np.zeros(2, dtype=np.float64)})

    def test_bad_magic_diagnosed(self, tmp_path):
        path = tmp_path / "bad.otf"
        write_otf(path, {"a": np.zeros(2, dtype=np.float32)})
        blob = bytearray(path.read_bytes())
        blob[0] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(OtfError, match="magic"):
            read_otf(path)

    def test_truncated_payload_diagnosed(self, tmp_path):
        path = tmp_path / "trunc.otf"
        write_otf(path, {"a": np.arange(8, dtype=np.float32)})
        blob = path.read_bytes()
        path.write_bytes(blob[:-5])
        with pytest.raises(OtfError, match="truncated.*payload"):
            read_otf(path)

    def test_huge_extents_diagnosed_before_allocating(self, tmp_path):
        # the header claims a 1 PB payload in a 32-byte file
        path = tmp_path / "huge.otf"
        header = b"OTF1" + struct.pack("<IH", 1, 1) + b"a" + struct.pack("<B3I", 3, *[65535] * 3)
        path.write_bytes(header + b"\0" * 8)
        with pytest.raises(OtfError, match="truncated.*payload"):
            read_otf(path)

    def test_trailing_garbage_diagnosed(self, tmp_path):
        path = tmp_path / "trail.otf"
        write_otf(path, {"a": np.zeros(2, dtype=np.float32)})
        path.write_bytes(path.read_bytes() + b"xx")
        with pytest.raises(OtfError, match="trailing"):
            read_otf(path)

    def test_corrupt_count_diagnosed(self, tmp_path):
        path = tmp_path / "count.otf"
        write_otf(path, {"a": np.zeros(2, dtype=np.float32)})
        blob = bytearray(path.read_bytes())
        blob[4] = 9  # claims nine tensors, file holds one
        path.write_bytes(bytes(blob))
        with pytest.raises(OtfError):
            read_otf(path)


class TestPgm:
    def test_half_gray_rounds_up(self, tmp_path):
        path = tmp_path / "half.pgm"
        write_pgm(path, np.full((1, 2, 2), 0.5))
        assert read_pgm(path).ravel().tolist() == [128, 128, 128, 128]

    def test_header_is_width_then_height(self, tmp_path):
        path = tmp_path / "wh.pgm"
        write_pgm(path, np.zeros((1, 2, 3)))  # 3 wide, 2 high
        assert path.read_bytes().startswith(b"P5\n3 2\n255\n")

    def test_round_trip_reproduces_quantized_values(self, tmp_path):
        rng = np.random.default_rng(6)
        img = rng.uniform(size=(1, 5, 7))
        path = tmp_path / "rt.pgm"
        write_pgm(path, img)
        expected = np.floor(img[0] * 255.0 + 0.5).astype(np.uint8)
        np.testing.assert_array_equal(read_pgm(path), expected)

    def test_out_of_range_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="\\[0, 1\\]"):
            write_pgm(tmp_path / "r.pgm", np.full((1, 2, 2), 1.5))

    def test_mask_levels(self, tmp_path):
        mask = np.zeros((2, 2, 2), dtype=np.float32)
        mask[0, 0, :] = 1.0   # organ row
        mask[1, 0, 1] = 1.0   # tumor pixel inside it
        mask[0, 0, 1] = 1.0
        path = tmp_path / "m.pgm"
        write_mask_pgm(path, mask)
        np.testing.assert_array_equal(read_pgm(path), [[128, 255], [0, 0]])


class TestDatasetDirectory:
    def test_layout_and_manifest(self, tmp_path):
        spec = SyntheticSpec(image_size=16, n_samples=10, seed=2)
        manifest = write_dataset(spec, tmp_path / "d")
        assert manifest["splits"] == {"train": 7, "val": 1, "test": 2}
        assert (tmp_path / "d/train/0000.img.otf").exists()
        assert (tmp_path / "d/train/0006.mask.otf").exists()
        assert (tmp_path / "d/val/0007.img.pgm").exists()
        assert (tmp_path / "d/test/0009.img.otf").exists()
        on_disk = json.loads((tmp_path / "d/manifest.json").read_text())
        assert on_disk["spec"]["n_samples"] == 10

    def test_rerun_is_byte_identical(self, tmp_path):
        spec = SyntheticSpec(image_size=16, n_samples=6, seed=9)
        write_dataset(spec, tmp_path / "a")
        write_dataset(spec, tmp_path / "b")
        for rel in sorted(p.relative_to(tmp_path / "a") for p in (tmp_path / "a").rglob("*")):
            fa, fb = tmp_path / "a" / rel, tmp_path / "b" / rel
            if fa.is_file():
                assert fa.read_bytes() == fb.read_bytes(), rel

    def test_non_empty_dir_requires_force(self, tmp_path):
        spec = SyntheticSpec(image_size=16, n_samples=4, seed=0)
        write_dataset(spec, tmp_path / "d")
        with pytest.raises(FileExistsError):
            write_dataset(spec, tmp_path / "d")
        write_dataset(spec, tmp_path / "d", force=True)

    def test_force_removes_stale_samples(self, tmp_path):
        write_dataset(SyntheticSpec(image_size=16, n_samples=10, seed=0), tmp_path / "d")
        write_dataset(SyntheticSpec(image_size=16, n_samples=4, seed=0),
                      tmp_path / "d", force=True)
        assert len(DiskDataset(tmp_path / "d", "train")) == 2
        assert not (tmp_path / "d/train/0005.img.otf").exists()

    def test_disk_read_back_equals_generator(self, tmp_path):
        spec = SyntheticSpec(image_size=16, n_samples=10, seed=4)
        write_dataset(spec, tmp_path / "d")
        ds = DiskDataset(tmp_path / "d", "train")
        assert len(ds) == 7
        for i in range(7):  # the train split is samples 0-6
            np.testing.assert_array_equal(ds[i].image, generate(spec, i).image)
            np.testing.assert_array_equal(ds[i].mask, generate(spec, i).mask)

    def test_missing_split_rejected(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            DiskDataset(tmp_path / "nope", "train")
