"""The assembled network: encoder, two expansive paths, heads, and losses.

The contracting path is a standard double-conv + max-pool ladder.  Two
decoders climb back up: the additional (auxiliary) path consumes the
MSC-processed encoder skips, and the original (main) path consumes, at each
stage, the MDSA-attended concatenation of the auxiliary stage output with the
same MSC skip.  Skips are aligned by resolution, each MSC output is computed
once and shared by both decoders, and both heads are 1x1 convolutions to the
mask channels.  Training minimizes lambda_s * BCE(main) + lambda_a * BCE(aux).
"""
from __future__ import annotations

import json
import math
import os
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from . import blocks
from .blocks import (
    ConvBlockParams,
    ConvParams,
    apply_conv,
    conv_block,
    init_conv_block,
    init_dspa,
    init_msc,
    kaiming_conv,
    mdsa,
)
from .data import OtfError, all_finite, read_otf, write_otf
from .tensor import (
    Tensor,
    ShapeError,
    add,
    bce_with_logits,
    concat_channels,
    maxpool2d,
    scale,
)

CONFIG_ENTRY = "config.json"


class CheckpointError(ValueError):
    """A checkpoint does not match the expected parameter set or shapes."""


def _is_int(v):
    return isinstance(v, int) and not isinstance(v, bool)


def _is_number(v):
    # Python's json reads NaN and Infinity, which JSON itself does not have
    return _is_int(v) or (isinstance(v, float) and math.isfinite(v))


# the JSON values each annotation accepts: a list is encoder_channels, a tuple a radius pair
_JSON_KINDS = {
    "int": (_is_int, "an integer"),
    "float": (_is_number, "a finite number"),
    "bool": (lambda v: isinstance(v, bool), "true or false"),
    "list": (lambda v: isinstance(v, list) and all(map(_is_int, v)), "a list of integers"),
    "tuple": (lambda v: isinstance(v, list) and len(v) == 2 and all(map(_is_number, v)),
              "a pair of numbers"),
}


def read_config(cls, section: str, given, **extra_kinds):
    """Build the config dataclass ``cls`` from the JSON object ``given``.

    Unknown keys, and values of a JSON type their field does not take, raise
    ValueError naming ``'<section>.<key>'``; a number pair becomes a tuple,
    and the instance is validated.  ``extra_kinds`` admits further keys,
    each with its kind ("float", "list", ...); returns ``(config, {extra key:
    value})``.  Each field's kind is its annotation read as the type's name,
    so the module defining ``cls`` must postpone annotations
    (``from __future__ import annotations``).
    """
    if not isinstance(given, dict):
        raise ValueError(f"the '{section}' section must be a JSON object")
    kinds = {f.name: f.type for f in fields(cls)} | extra_kinds
    unknown = set(given) - set(kinds)
    if unknown:
        raise ValueError(f"unknown keys in '{section}' section: {sorted(unknown)}")
    values = {}
    for key, value in given.items():
        accepts, wanted = _JSON_KINDS[kinds[key]]
        if not accepts(value):
            raise ValueError(f"'{section}.{key}' must be {wanted}, got {json.dumps(value)}")
        values[key] = tuple(value) if kinds[key] == "tuple" else value
    extra = {key: values.pop(key) for key in extra_kinds if key in values}
    return cls(**values).validate(), extra


def _default_encoder_channels():
    return [64, 128, 256, 512, 1024]


@dataclass
class ModelConfig:
    """Architecture and loss hyperparameters.

    ``encoder_channels`` must double at every stage, and the read-only
    ``decoder_channels`` is its reverse; ``input_size`` is the square input
    extent, a power of two no smaller than 2**(depth-1).  DSPA pools each
    attended skip into ``k`` features, so ``k`` is at most the position count
    of the coarsest, (input_size / 2**(depth-2))**2.  ``mdsa_enabled=False``
    builds the ablation variant whose main-path skips bypass the attention
    stack.
    """

    depth: int = 5
    encoder_channels: list = field(default_factory=_default_encoder_channels)
    out_channels: int = 2
    k: int = 10
    lambda_s: float = 10.0
    lambda_a: float = 1.0
    input_size: int = 512
    mdsa_enabled: bool = True

    def __post_init__(self):
        self.encoder_channels = list(self.encoder_channels)
        self.validate()

    @property
    def decoder_channels(self):
        return list(reversed(self.encoder_channels))

    def validate(self):
        if self.depth < 2:
            raise ValueError("depth must be >= 2")
        if len(self.encoder_channels) != self.depth:
            raise ValueError(
                f"encoder_channels must list {self.depth} stages,"
                f" got {len(self.encoder_channels)}"
            )
        if self.encoder_channels[0] < 1:
            raise ValueError(f"encoder_channels must start at >= 1, got {self.encoder_channels}")
        for i in range(1, self.depth):
            if self.encoder_channels[i] != 2 * self.encoder_channels[i - 1]:
                raise ValueError(
                    f"encoder_channels must double per stage, got {self.encoder_channels}"
                )
        if self.out_channels < 1:
            raise ValueError("out_channels must be >= 1")
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if self.lambda_s < 0 or self.lambda_a < 0:
            raise ValueError("loss weights must be >= 0")
        n = self.input_size
        if n < 1 or (n & (n - 1)) != 0:
            raise ValueError(f"input_size must be a power of two, got {n}")
        if n < 2 ** (self.depth - 1):
            raise ValueError(
                f"input_size {n} too small for depth {self.depth}"
                f" (needs >= {2 ** (self.depth - 1)})"
            )
        side = n >> (self.depth - 2)  # stage 1's skip, the coarsest that DSPA pools
        if self.mdsa_enabled and self.k > side * side:
            raise ValueError(f"k must be <= {side * side}, the {side}x{side} positions of the"
                             f" coarsest attended skip, got {self.k}")
        return self

    def to_dict(self):
        return asdict(self)

    @classmethod
    def from_dict(cls, d):
        """The inverse of ``to_dict``, read as the ``model`` section by
        ``read_config``; a ``decoder_channels`` key, which older checkpoints
        carry, must be the reverse of ``encoder_channels``."""
        config, legacy = read_config(cls, "model", d, decoder_channels="list")
        if legacy and legacy["decoder_channels"] != config.decoder_channels:
            raise ValueError("decoder_channels must be the reverse of encoder_channels")
        return config


@dataclass
class DecoderStage:
    """One climb of an expansive path: up-sample, concatenate the skip, conv block."""

    up: ConvParams
    block: ConvBlockParams


@dataclass
class DualOutput:
    """Logit maps from both heads, each (N, L, H, W)."""

    main_logits: Tensor
    aux_logits: Tensor


class OmegaNet:
    """Parameterized network instance; read-only during forward passes."""

    def __init__(self, config: ModelConfig, seed: int = 0, dtype=np.float32):
        config.validate()
        self.config = config
        self.dtype = dtype
        rng = np.random.default_rng(seed)
        d = config.depth
        enc_ch = config.encoder_channels
        dec_ch = config.decoder_channels

        self.encoder = [init_conv_block(rng, c_in, c, dtype)
                        for c_in, c in zip([1] + enc_ch, enc_ch)]

        # decoder stage j (1-based) works at skip E_{d-j} with C = dec_ch[j] channels
        self.skip_msc = [init_msc(rng, dec_ch[j], dtype) for j in range(1, d)]
        if config.mdsa_enabled:
            self.skip_dspa = [
                init_dspa(rng, 2 * dec_ch[j], config.k, dtype) for j in range(1, d)
            ]
        else:
            self.skip_dspa = None

        # the main skip is the aux stage output concatenated with the MSC skip
        self.aux, self.main = [], []
        for j in range(1, d):
            c = dec_ch[j]
            for path, skip_channels in ((self.aux, c), (self.main, 2 * c)):
                up = kaiming_conv(rng, dec_ch[j - 1], c, 2, transposed=True, dtype=dtype)
                path.append(DecoderStage(up, init_conv_block(rng, c + skip_channels, c, dtype)))

        self.head_aux = kaiming_conv(rng, dec_ch[d - 1], config.out_channels, 1, dtype=dtype)
        self.head_main = kaiming_conv(rng, dec_ch[d - 1], config.out_channels, 1, dtype=dtype)

    # -- parameters ---------------------------------------------------------

    def named_parameters(self):
        return list(blocks.named_parameters({
            "enc": self.encoder,
            "msc": self.skip_msc,
            "dspa": self.skip_dspa,
            "aux": self.aux,
            "main": self.main,
            "head": {"aux": self.head_aux, "main": self.head_main},
        }))

    def num_parameters(self):
        return sum(p.size for _, p in self.named_parameters())

    def zero_grad(self):
        for _, p in self.named_parameters():
            p.zero_grad()

    # -- forward ------------------------------------------------------------

    def encode(self, x: Tensor):
        """Contracting path; returns the d feature maps, deepest last."""
        cfg = self.config
        if x.ndim != 4 or x.shape[1] != 1:
            raise ShapeError(f"expected input shape (N, 1, H, W), got {x.shape}")
        if x.shape[2] != cfg.input_size or x.shape[3] != cfg.input_size:
            raise ShapeError(
                f"expected {cfg.input_size}x{cfg.input_size} input,"
                f" got {x.shape[2]}x{x.shape[3]}"
            )
        feats = []
        cur = x
        for i, block in enumerate(self.encoder):
            if i > 0:
                cur = maxpool2d(cur)
            cur = conv_block(cur, block)
            feats.append(cur)
        return feats

    def msc_skips(self, encs):
        """Cascade-MSC output for each skip, stage order (computed once, shared)."""
        d = self.config.depth
        return [
            blocks.cascade_msc(encs[d - 1 - j], self.skip_msc[j - 1])
            for j in range(1, d)
        ]

    @staticmethod
    def _climb(prev, stages, skips):
        """Run an expansive path from ``prev``; returns its stage outputs.

        ``zip`` draws each stage's skip before the stage runs, so a lazily
        built skip is computed before its up-sampler."""
        outs = []
        for stage, skip in zip(stages, skips):
            up = apply_conv(prev, stage.up)
            prev = conv_block(concat_channels([up, skip]), stage.block)
            outs.append(prev)
        return outs

    def decode_additional(self, encs, msc_outs):
        """Auxiliary expansive path; returns its d-1 stage outputs."""
        return self._climb(encs[-1], self.aux, msc_outs)

    def decode_original(self, encs, aux_feats, msc_outs):
        """Main expansive path with attended skips; returns its d-1 stage outputs."""
        skips = (concat_channels([a, m]) for a, m in zip(aux_feats, msc_outs))
        if self.skip_dspa is not None:
            skips = map(mdsa, skips, self.skip_dspa)
        return self._climb(encs[-1], self.main, skips)

    def forward(self, x: Tensor) -> DualOutput:
        encs = self.encode(x)
        msc_outs = self.msc_skips(encs)
        aux_feats = self.decode_additional(encs, msc_outs)
        main_feats = self.decode_original(encs, aux_feats, msc_outs)
        return DualOutput(
            main_logits=apply_conv(main_feats[-1], self.head_main),
            aux_logits=apply_conv(aux_feats[-1], self.head_aux),
        )

    def loss(self, out: DualOutput, mask: Tensor) -> Tensor:
        return dual_loss(out, mask, self.config.lambda_s, self.config.lambda_a)


# ---------------------------------------------------------------------------
# Losses
# ---------------------------------------------------------------------------

def bce_loss(logits: Tensor, mask: Tensor) -> Tensor:
    """Mean binary cross-entropy of sigmoid(logits) against a {0,1} mask."""
    if logits.shape != mask.shape:
        raise ShapeError(f"bce_loss shape mismatch: {logits.shape} vs {mask.shape}")
    if not np.isin(mask.data, (0.0, 1.0)).all():
        raise ValueError("bce_loss mask must contain only 0 and 1")
    return bce_with_logits(logits, mask)


def dual_loss(out: DualOutput, mask: Tensor, lambda_s: float = ModelConfig.lambda_s,
              lambda_a: float = ModelConfig.lambda_a) -> Tensor:
    """lambda_s * BCE(main) + lambda_a * BCE(aux)."""
    main = scale(bce_loss(out.main_logits, mask), lambda_s)
    aux = scale(bce_loss(out.aux_logits, mask), lambda_a)
    return add(main, aux)


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------

def _json_entry(obj) -> np.ndarray:
    raw = json.dumps(obj, sort_keys=True).encode("utf-8")
    return np.frombuffer(raw, dtype=np.uint8).astype(np.float32)


def _entry_json(arr):
    arr = np.asarray(arr)
    with np.errstate(invalid="ignore"):  # NaN and inf are caught by the check below
        codes = arr.astype(np.uint8)
    if not np.array_equal(codes.astype(np.float32), arr.astype(np.float32)):
        raise ValueError("its values are not bytes")
    return json.loads(bytes(codes).decode("utf-8"))


def _fsync(path) -> None:
    """Flush a file's or a directory's data to the disk."""
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def save_checkpoint(net: OmegaNet, path, extra=None) -> None:
    """Write the config header plus every parameter (and optional trainer
    state arrays) into one OTF container.

    The container is written to ``<path>.tmp`` and then renamed over
    ``path``, so ``path`` always holds either the old or the new checkpoint.
    The file is fsynced before the rename, and its directory after it, so
    the bytes reach the disk before the name points at them.
    """
    entries = [(CONFIG_ENTRY, _json_entry(net.config.to_dict()))]
    for name, p in net.named_parameters():
        entries.append((name, np.ascontiguousarray(p.data, dtype=np.float32)))
    for name, arr in (extra or {}).items():
        entries.append((name, np.ascontiguousarray(arr, dtype=np.float32)))
    tmp = f"{path}.tmp"
    try:
        write_otf(tmp, entries)
        _fsync(tmp)
        os.replace(tmp, path)
        _fsync(os.path.dirname(os.path.abspath(path)))
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def load_checkpoint(path):
    """Returns (ModelConfig, {name: ndarray}) with the config entry stripped."""
    try:
        entries = read_otf(path)
    except OtfError as e:
        raise CheckpointError(f"unreadable checkpoint: {e}") from e
    if CONFIG_ENTRY not in entries:
        raise CheckpointError(f"checkpoint {path} has no {CONFIG_ENTRY} entry")
    try:
        config = ModelConfig.from_dict(_entry_json(entries.pop(CONFIG_ENTRY)))
    except (TypeError, ValueError) as e:
        raise CheckpointError(f"corrupt config entry in checkpoint {path}: {e}") from e
    return config, entries


def restore_parameters(net: OmegaNet, entries: dict) -> dict:
    """Load parameter tensors into the net, validating names, shapes and values.

    Adam state entries are returned untouched: ``adam.t``, one non-negative
    whole number, and ``adam.m.<name>`` with ``adam.v.<name>``, a pair of
    moments shaped like parameter ``<name>``.  Any other tensor, a missing
    parameter or moment partner, a misshapen tensor, and a NaN or an infinity
    in any tensor is an error.  Parameter arrays of the net's dtype are taken
    over, not copied.
    """
    params = dict(net.named_parameters())
    for name in params:
        if name not in entries:
            raise CheckpointError(f"checkpoint is missing tensor {name!r}")
    extra = {}
    for name, arr in entries.items():
        if not all_finite(arr):
            raise CheckpointError(f"checkpoint tensor {name!r} holds a non-finite value")
        if name == "adam.t":
            if arr.shape != (1,) or arr[0] < 0 or not float(arr[0]).is_integer():
                raise CheckpointError(
                    f"checkpoint tensor 'adam.t' must be one non-negative whole number,"
                    f" got {arr.tolist()}"
                )
            extra[name] = arr
            continue
        moment, param = name[:7], name[7:]
        if moment not in ("adam.m.", "adam.v."):
            param = name
        if param not in params:
            raise CheckpointError(f"unexpected tensor {name!r} in checkpoint")
        p = params[param]
        if tuple(arr.shape) != tuple(p.shape):
            raise CheckpointError(
                f"checkpoint tensor {name!r} has shape {tuple(arr.shape)},"
                f" expected {tuple(p.shape)}"
            )
        if param == name:
            p.data = arr.astype(net.dtype, copy=False)
            continue
        partner = ("adam.v." if moment == "adam.m." else "adam.m.") + param
        if partner not in entries:
            raise CheckpointError(f"checkpoint tensor {name!r} has no partner {partner!r}")
        extra[name] = arr
    return extra


def build_from_checkpoint(path, expected: ModelConfig | None = None):
    """Rebuild a network from a checkpoint; returns (net, trainer state dict).

    With ``expected`` given, a checkpoint written for any other model config
    raises CheckpointError naming both configs.
    """
    config, entries = load_checkpoint(path)
    if expected is not None and config != expected:
        raise CheckpointError(
            f"checkpoint {path} holds model config {config.to_dict()},"
            f" but the run config has {expected.to_dict()}"
        )
    net = OmegaNet(config, seed=0)
    extra = restore_parameters(net, entries)
    return net, extra
