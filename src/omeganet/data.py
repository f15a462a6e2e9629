"""Synthetic small-object dataset, the OTF tensor container, and PGM export.

The generator draws one organ disc and 1-3 tumor discs strictly inside it,
paints three intensity levels, adds Gaussian noise, and clips to [0, 1].
Every sample is a pure function of (seed, index): geometry and noise come
from a Philox stream keyed on that pair, so generation order and parallel
prefetch cannot change the data.

OTF is a little-endian binary container for named float32 tensors::

    "OTF1"                                   4 bytes magic
    u32   tensor count
    per tensor:
        u16   name length, then UTF-8 name bytes
        u8    rank (>= 1)
        u32   extent per dimension (each >= 1)
        f32   payload, 4 * product(extents) bytes, row-major

PGM files are binary "P5" with maxval 255; masks are exported with levels
{0, 128, 255} for background / organ / tumor.
"""
from __future__ import annotations

import json
import math
import os
import shutil
import struct
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .tensor import Tensor

OTF_MAGIC = b"OTF1"


class OtfError(ValueError):
    """Malformed OTF container (bad magic, truncation, duplicate names...)."""


# ---------------------------------------------------------------------------
# Synthetic dataset
# ---------------------------------------------------------------------------

@dataclass
class SyntheticSpec:
    """Parameters of the synthetic organ-plus-tumors image distribution."""

    image_size: int = 64
    n_samples: int = 64
    organ_radius: tuple = (0.15, 0.30)
    tumor_radius: tuple = (0.02, 0.06)
    noise_sigma: float = 0.05
    background_level: float = 0.1
    organ_level: float = 0.6
    tumor_level: float = 0.9
    seed: int = 0

    def validate(self):
        if self.image_size < 8:
            raise ValueError("image_size must be >= 8")
        if self.n_samples < 1:
            raise ValueError("n_samples must be >= 1")
        lo, hi = self.organ_radius
        if not (0 < lo <= hi < 0.5):
            raise ValueError("organ_radius must satisfy 0 < lo <= hi < 0.5")
        tlo, thi = self.tumor_radius
        if not (0 < tlo <= thi < lo):
            raise ValueError("tumor_radius must fit inside the smallest organ")
        if self.noise_sigma < 0:
            raise ValueError("noise_sigma must be >= 0")
        return self


@dataclass
class Sample:
    """image: (1, H, W) float32 in [0, 1]; mask: (2, H, W) binary float32
    with channel 0 = organ, channel 1 = tumor (tumor pixels lie inside organ)."""

    image: np.ndarray
    mask: np.ndarray


def generate(spec: SyntheticSpec, index: int) -> Sample:
    """Deterministic sample for (spec.seed, index)."""
    if not 0 <= index < spec.n_samples:
        raise IndexError(f"index {index} out of range for n_samples={spec.n_samples}")
    rng = np.random.Generator(np.random.Philox(key=[spec.seed & 0xFFFFFFFFFFFFFFFF, index]))
    size = spec.image_size

    r_organ = rng.uniform(*spec.organ_radius) * size
    cx = rng.uniform(r_organ, size - r_organ)
    cy = rng.uniform(r_organ, size - r_organ)

    tumors = []
    for _ in range(int(rng.integers(1, 4))):
        r_t = rng.uniform(*spec.tumor_radius) * size
        # center uniform in the disc that keeps the tumor fully inside the organ
        rad = (r_organ - r_t) * np.sqrt(rng.uniform())
        theta = rng.uniform(0.0, 2.0 * np.pi)
        tumors.append((cx + rad * np.cos(theta), cy + rad * np.sin(theta), r_t))

    ys, xs = np.mgrid[0:size, 0:size]
    ys = ys + 0.5
    xs = xs + 0.5
    organ = (xs - cx) ** 2 + (ys - cy) ** 2 <= r_organ ** 2
    tumor = np.zeros_like(organ)
    for tx, ty, tr in tumors:
        tumor |= (xs - tx) ** 2 + (ys - ty) ** 2 <= tr ** 2

    image = np.full((size, size), spec.background_level, dtype=np.float64)
    image[organ] = spec.organ_level
    image[tumor] = spec.tumor_level
    if spec.noise_sigma > 0:
        image = image + rng.normal(0.0, spec.noise_sigma, size=(size, size))
    image = np.clip(image, 0.0, 1.0)

    mask = np.stack([organ, tumor]).astype(np.float32)
    return Sample(image.astype(np.float32)[None], mask)


def split_ranges(n_samples: int) -> dict:
    """Disjoint, exhaustive 70/10/20 index ranges: floor for train and val,
    remainder to test."""
    n_train = (7 * n_samples) // 10
    n_val = n_samples // 10
    return {
        "train": range(0, n_train),
        "val": range(n_train, n_train + n_val),
        "test": range(n_train + n_val, n_samples),
    }


def stack_samples(samples, dtype=np.float32):
    """Batch a list of samples into (images (B,1,H,W), masks (B,2,H,W)) tensors."""
    images = np.stack([s.image for s in samples]).astype(dtype)
    masks = np.stack([s.mask for s in samples]).astype(dtype)
    return Tensor(images), Tensor(masks)


# ---------------------------------------------------------------------------
# OTF container
# ---------------------------------------------------------------------------

def write_otf(path, tensors) -> None:
    """Write named float32 tensors; names must be unique and non-empty."""
    items = list(tensors.items()) if isinstance(tensors, dict) else list(tensors)
    seen = set()
    for name, arr in items:
        if not name:
            raise OtfError("tensor names must be non-empty")
        if name in seen:
            raise OtfError(f"duplicate tensor name {name!r}")
        seen.add(name)
    with open(path, "wb") as f:
        f.write(OTF_MAGIC)
        f.write(struct.pack("<I", len(items)))
        for name, arr in items:
            arr = np.asarray(arr)
            if arr.dtype != np.float32:
                raise OtfError(f"tensor {name!r} must be float32, got {arr.dtype}")
            if arr.ndim < 1 or arr.ndim > 255:
                raise OtfError(f"tensor {name!r} must have rank 1..255, got {arr.ndim}")
            if any(s < 1 for s in arr.shape):
                raise OtfError(f"tensor {name!r} has a zero extent: {arr.shape}")
            nb = name.encode("utf-8")
            if len(nb) > 0xFFFF:
                raise OtfError(f"tensor name too long ({len(nb)} bytes)")
            f.write(struct.pack("<H", len(nb)))
            f.write(nb)
            f.write(struct.pack("<B", arr.ndim))
            f.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
            f.write(memoryview(np.ascontiguousarray(arr, dtype="<f4")))


def read_otf(path) -> dict:
    """Read an OTF file into an ordered {name: float32 ndarray} dict.

    Each payload is read straight from the file into its own new array, so
    the arrays are owned, aligned and writeable, and a load holds at most one
    copy of the file.  A payload larger than the bytes left in the file is
    reported as truncated before anything is allocated for it.
    """
    with open(path, "rb") as f:
        size = os.fstat(f.fileno()).st_size

        def take(n, what):
            at = f.tell()
            out = f.read(n)
            if len(out) != n:
                raise OtfError(f"truncated while reading {what} at byte {at} of {path}")
            return out

        if take(4, "magic") != OTF_MAGIC:
            raise OtfError(f"bad magic at byte 0 of {path}: not an OTF file")
        (count,) = struct.unpack("<I", take(4, "tensor count"))
        result = {}
        for t in range(count):
            at = f.tell()
            (name_len,) = struct.unpack("<H", take(2, f"name length of tensor {t}"))
            try:
                name = take(name_len, f"name of tensor {t}").decode("utf-8")
            except UnicodeDecodeError as e:
                raise OtfError(f"invalid UTF-8 name at byte {at} of {path}") from e
            if not name:
                raise OtfError(f"empty tensor name at byte {at} of {path}")
            if name in result:
                raise OtfError(f"duplicate tensor name {name!r} at byte {at} of {path}")
            (rank,) = struct.unpack("<B", take(1, f"rank of {name!r}"))
            if rank < 1:
                raise OtfError(f"tensor {name!r} has rank 0 at byte {f.tell() - 1} of {path}")
            extents = struct.unpack(f"<{rank}I", take(4 * rank, f"extents of {name!r}"))
            if any(e < 1 for e in extents):
                raise OtfError(f"tensor {name!r} has a zero extent at byte {at} of {path}")
            at, n_bytes = f.tell(), 4 * math.prod(extents)
            truncated = f"truncated while reading payload of {name!r} at byte {at} of {path}"
            if n_bytes > size - at:
                raise OtfError(f"{truncated}: {n_bytes} bytes claimed, {size - at} left")
            arr = np.empty(extents, dtype="<f4")
            if f.readinto(arr) != n_bytes:
                raise OtfError(truncated)
            result[name] = arr
        if f.tell() != size:
            raise OtfError(f"{size - f.tell()} trailing bytes after tensor {count - 1} of {path}")
    return result


def all_finite(arr: np.ndarray) -> bool:
    """Whether ``arr`` holds no NaN and no infinity, in one pass with no temporary.

    A NaN, an infinity or an overflow leaves the sum of squares non-finite;
    min and max, which propagate NaN, tell an overflow apart.
    """
    with np.errstate(over="ignore"):
        return bool(np.isfinite(np.vdot(arr, arr))
                    or (np.isfinite(arr.min()) and np.isfinite(arr.max())))


def read_tensor(path, name: str) -> np.ndarray:
    """Tensor ``name`` of the OTF file ``path``, an input image or mask; a
    file without it, or a NaN or an infinity in it, is a ValueError."""
    tensors = read_otf(path)
    if name not in tensors:
        raise ValueError(f"{path} holds no tensor named {name!r}")
    if not all_finite(tensors[name]):
        raise ValueError(f"tensor {name!r} in {path} holds a non-finite value")
    return tensors[name]


# ---------------------------------------------------------------------------
# PGM export
# ---------------------------------------------------------------------------

def _as_hw(image) -> np.ndarray:
    arr = np.asarray(image)
    if arr.ndim == 3 and arr.shape[0] == 1:
        arr = arr[0]
    if arr.ndim != 2:
        raise ValueError(f"expected a (1, H, W) or (H, W) image, got shape {arr.shape}")
    return arr


def write_pgm(path, image) -> None:
    """Binary PGM P5, maxval 255, round-half-up quantization of [0, 1] values."""
    arr = _as_hw(image)
    if arr.min() < 0.0 or arr.max() > 1.0:
        raise ValueError(f"image values must lie in [0, 1], got [{arr.min()}, {arr.max()}]")
    q = np.floor(arr * 255.0 + 0.5).astype(np.uint8)
    h, w = q.shape
    with open(path, "wb") as f:
        f.write(b"P5\n%d %d\n255\n" % (w, h))
        f.write(q.tobytes())


def write_mask_pgm(path, mask) -> None:
    """Export a (2, H, W) binary mask as PGM with {0, 128, 255} = bg/organ/tumor."""
    arr = np.asarray(mask)
    if arr.ndim != 3 or arr.shape[0] != 2:
        raise ValueError(f"expected a (2, H, W) mask, got shape {arr.shape}")
    if not np.isin(arr, (0.0, 1.0)).all():
        raise ValueError("mask values must be binary")
    levels = np.zeros(arr.shape[1:], dtype=np.uint8)
    levels[arr[0] > 0.5] = 128
    levels[arr[1] > 0.5] = 255
    h, w = levels.shape
    with open(path, "wb") as f:
        f.write(b"P5\n%d %d\n255\n" % (w, h))
        f.write(levels.tobytes())


def read_pgm(path) -> np.ndarray:
    """Read a binary P5 PGM written by this module; returns (H, W) uint8."""
    blob = Path(path).read_bytes()
    parts = blob.split(b"\n", 3)
    if len(parts) != 4 or parts[0] != b"P5":
        raise ValueError(f"{path} is not a binary PGM file")
    w, h = (int(v) for v in parts[1].split())
    if parts[2] != b"255":
        raise ValueError(f"unsupported maxval in {path}")
    data = parts[3]
    if len(data) != w * h:
        raise ValueError(f"PGM payload size mismatch in {path}")
    return np.frombuffer(data, dtype=np.uint8).reshape(h, w)


# ---------------------------------------------------------------------------
# Dataset directory
# ---------------------------------------------------------------------------

def write_dataset(spec: SyntheticSpec, root, force: bool = False) -> dict:
    """Materialize all samples under root/{train,val,test} plus manifest.json."""
    spec.validate()
    root = Path(root)
    if root.exists() and any(root.iterdir()) and not force:
        raise FileExistsError(f"{root} exists and is not empty (use force to overwrite)")
    splits = split_ranges(spec.n_samples)
    for split in splits:
        # drop stale samples from a previous, possibly larger, generation
        if (root / split).is_dir():
            shutil.rmtree(root / split)
    for split, indices in splits.items():
        d = root / split
        d.mkdir(parents=True, exist_ok=True)
        for index in indices:
            sample = generate(spec, index)
            stem = d / f"{index:04d}"
            write_otf(f"{stem}.img.otf", {"image": sample.image})
            write_otf(f"{stem}.mask.otf", {"mask": sample.mask})
            write_pgm(f"{stem}.img.pgm", sample.image)
    manifest = {
        "spec": asdict(spec),
        "splits": {k: len(v) for k, v in splits.items()},
    }
    with open(root / "manifest.json", "w") as f:
        json.dump(manifest, f, indent=2, sort_keys=True)
        f.write("\n")
    return manifest


class DiskDataset:
    """Samples stored by write_dataset, index-addressable in file order."""

    def __init__(self, root, split):
        d = Path(root) / split
        if not d.is_dir():
            raise FileNotFoundError(f"dataset split directory {d} does not exist")
        self.stems = sorted(p.name[:-8] for p in d.glob("*.img.otf"))
        self.dir = d

    def __len__(self):
        return len(self.stems)

    def __getitem__(self, i) -> Sample:
        stem = self.dir / self.stems[i]
        return Sample(read_tensor(f"{stem}.img.otf", "image"),
                      read_tensor(f"{stem}.mask.otf", "mask"))
