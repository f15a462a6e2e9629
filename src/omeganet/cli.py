"""Command-line entry point: gen-data, train, eval, predict, verify.

Commands are driven by a JSON run configuration with four sections (model,
train, data, paths); unknown keys are rejected before any work starts.
Exit codes are a stable contract: 0 ok, 2 configuration, input or
file-system error (any ValueError or OSError that is not a checkpoint or
shape error), 3 training divergence, 4 checkpoint or shape error.
"""
from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .data import (
    DiskDataset,
    SyntheticSpec,
    read_pgm,
    read_tensor,
    write_dataset,
    write_mask_pgm,
    write_otf,
)
from .net import (
    CheckpointError,
    ModelConfig,
    OmegaNet,
    build_from_checkpoint,
    read_config,
)
from .tensor import ShapeError, Tensor, no_grad, sigmoid
from .train import (
    AdamState,
    DivergenceError,
    TrainLoopConfig,
    adam_state_from_arrays,
    binarize,
    evaluate,
    format_metrics,
    train,
    write_metrics_csv,
)
from . import verify

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DIVERGENCE = 3
EXIT_CHECKPOINT = 4


@dataclass
class RunConfig:
    model: ModelConfig
    train: TrainLoopConfig
    lr: float
    weight_decay: float
    data: SyntheticSpec
    paths: dict


_SECTIONS = {"model", "train", "data", "paths"}
_PATH_KEYS = {"data_dir", "checkpoint", "metrics_csv"}
CHANNEL_NAMES = ("organ", "tumor")  # the synthetic masks' two channels


def load_run_config(path) -> RunConfig:
    path = Path(path)
    try:
        raw = json.loads(path.read_text())
    except json.JSONDecodeError as e:
        raise ValueError(f"config file {path} is not valid JSON: {e}") from e
    if not isinstance(raw, dict) or set(raw) != _SECTIONS:
        raise ValueError(f"config file {path} must hold a JSON object with exactly the"
                         f" sections {sorted(_SECTIONS)}")

    model = ModelConfig.from_dict(raw["model"])
    if model.out_channels != len(CHANNEL_NAMES):
        raise ValueError(f"'model.out_channels' must be {len(CHANNEL_NAMES)}, one per mask"
                         f" channel {CHANNEL_NAMES}, got {model.out_channels}")
    loop, rates = read_config(TrainLoopConfig, "train", raw["train"],
                              lr="float", weight_decay="float")
    lr = float(rates.get("lr", AdamState.lr))
    weight_decay = float(rates.get("weight_decay", AdamState.weight_decay))
    if lr <= 0 or weight_decay < 0:
        raise ValueError("lr must be > 0 and weight_decay >= 0")
    spec, _ = read_config(SyntheticSpec, "data", raw["data"])

    paths = raw["paths"]
    if not (isinstance(paths, dict) and set(paths) == _PATH_KEYS
            and all(isinstance(v, str) and v for v in paths.values())):
        raise ValueError(f"the 'paths' section must set exactly {sorted(_PATH_KEYS)},"
                         " each to a non-empty string")
    resolved = sorted((Path(v).resolve(), k) for k, v in paths.items())
    for (a, key_a), (b, key_b) in zip(resolved, resolved[1:]):
        if a == b:  # one file written as two would destroy the other
            raise ValueError(f"'paths.{key_a}' and 'paths.{key_b}' both name {a}")

    return RunConfig(model=model, train=loop, lr=lr, weight_decay=weight_decay,
                     data=spec, paths=paths)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_gen_data(args) -> int:
    cfg = load_run_config(args.config)
    out = Path(args.out) if args.out else Path(cfg.paths["data_dir"])
    manifest = write_dataset(cfg.data, out, force=args.force)
    print(f"wrote {cfg.data.n_samples} samples to {out}: "
          + ", ".join(f"{k}={v}" for k, v in manifest["splits"].items()))
    return EXIT_OK


def cmd_train(args) -> int:
    cfg = load_run_config(args.config)
    dataset = DiskDataset(cfg.paths["data_dir"], "train")
    if args.resume:
        net, extra = build_from_checkpoint(args.resume, expected=cfg.model)
        adam = adam_state_from_arrays(extra, lr=cfg.lr, weight_decay=cfg.weight_decay)
    else:
        net = OmegaNet(cfg.model, seed=cfg.train.seed)
        adam = AdamState(lr=cfg.lr, weight_decay=cfg.weight_decay)

    for key in ("checkpoint", "metrics_csv"):
        Path(cfg.paths[key]).parent.mkdir(parents=True, exist_ok=True)
    history = train(net, dataset, cfg.train, adam=adam, checkpoint_path=cfg.paths["checkpoint"],
                    history_csv=cfg.paths["metrics_csv"])
    print(f"trained {len(history)} steps; checkpoint {cfg.paths['checkpoint']}")
    try:
        val = DiskDataset(cfg.paths["data_dir"], "val")
    except FileNotFoundError:
        val = None
    if val is not None and len(val) > 0:
        report = evaluate(net, val, threshold=cfg.train.threshold,
                          micro_batch_size=cfg.train.micro_batch_size)
        print("validation metrics:")
        print(format_metrics(report, CHANNEL_NAMES))
    return EXIT_OK


def cmd_eval(args) -> int:
    cfg = load_run_config(args.config)
    net, _ = build_from_checkpoint(args.checkpoint or cfg.paths["checkpoint"], expected=cfg.model)
    dataset = DiskDataset(cfg.paths["data_dir"], args.split)
    if len(dataset) == 0:
        raise ValueError(f"split '{args.split}' in {cfg.paths['data_dir']} is empty")
    report = evaluate(net, dataset, threshold=cfg.train.threshold,
                      micro_batch_size=cfg.train.micro_batch_size)
    print(f"{args.split} split ({len(dataset)} samples):")
    print(format_metrics(report, CHANNEL_NAMES))
    out_csv = args.out or Path(cfg.paths["metrics_csv"]).with_suffix(f".{args.split}.csv")
    Path(out_csv).parent.mkdir(parents=True, exist_ok=True)
    write_metrics_csv(out_csv, report, CHANNEL_NAMES)
    return EXIT_OK


def _load_image(path) -> np.ndarray:
    path = Path(path)
    if path.suffix == ".pgm":
        return (read_pgm(path).astype(np.float32) / 255.0)[None]
    return read_tensor(path, "image")


def cmd_predict(args) -> int:
    net, _ = build_from_checkpoint(args.checkpoint)
    image = _load_image(args.image)
    with no_grad():  # the net rejects any image but a (1, H, W) one of its size
        out = net.forward(Tensor(image[None].astype(np.float32)))
        prob = sigmoid(out.main_logits).data[0]
    mask = binarize(prob, args.threshold).astype(np.float32)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_otf(out_dir / "prob.otf", {"prob": prob.astype(np.float32)})
    write_mask_pgm(out_dir / "mask.pgm", mask)
    print(f"wrote {out_dir / 'prob.otf'} and {out_dir / 'mask.pgm'}")
    return EXIT_OK


def cmd_verify(args) -> int:
    ok = verify.run_suite(args.suite)
    return EXIT_OK if ok else 1


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="omeganet",
        description="Dual-supervised small-object segmentation: data, training,"
                    " evaluation, prediction, and self-verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate the synthetic dataset")
    p.add_argument("--config", required=True)
    p.add_argument("--out", help="output directory (default: paths.data_dir)")
    p.add_argument("--force", action="store_true", help="overwrite a non-empty directory")
    p.set_defaults(fn=cmd_gen_data)

    p = sub.add_parser("train", help="train a model on the generated dataset")
    p.add_argument("--config", required=True)
    p.add_argument("--resume", help="checkpoint to continue from")
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a dataset split")
    p.add_argument("--config", required=True)
    p.add_argument("--checkpoint", help="checkpoint path (default: paths.checkpoint)")
    p.add_argument("--split", choices=("train", "val", "test"), default="val")
    p.add_argument("--out", help="metrics CSV path (default: paths.metrics_csv as <stem>.<split>.csv)")
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("predict", help="segment one image with a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--image", required=True, help=".otf (tensor 'image') or .pgm input")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--threshold", type=float, default=0.5)
    p.set_defaults(fn=cmd_predict)

    p = sub.add_parser("verify", help="run the self-check suites")
    p.add_argument("--suite", choices=("grad", "oracle", "shape", "all"), default="all")
    p.set_defaults(fn=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (CheckpointError, ShapeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CHECKPOINT
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except DivergenceError as e:
        print(f"error: training diverged: {e}", file=sys.stderr)
        return EXIT_DIVERGENCE


if __name__ == "__main__":
    sys.exit(main())
