"""Print one SHA-256 per case of fixed training runs, to show that a change
leaves every number bit-identical.

Run it on two checkouts at the same BLAS thread count and diff the output:

    OMP_NUM_THREADS=1 PYTHONPATH=src python tools/bithash.py [case ...]

With no case named, every case runs.  On two vCPUs at one BLAS thread the
six ``toy_*`` cases take about 10 s together, and ``paper_steps`` (paper
channels at 128x128) about 12 s with a 1.7 GB peak RSS.
"""
from __future__ import annotations

import hashlib
import sys
import tempfile
from pathlib import Path

import numpy as np

from omeganet.data import SyntheticSpec, generate, stack_samples
from omeganet.net import ModelConfig, OmegaNet
from omeganet.train import (
    AdamState,
    TrainLoopConfig,
    accumulate_gradients,
    adam_step,
    evaluate,
    train,
)

# configs/toy.json's model and the benchmark's paper-channel model
TOY_MODEL = dict(depth=3, encoder_channels=[8, 16, 32], out_channels=2, k=10, input_size=64)
PAPER_MODEL = dict(depth=5, encoder_channels=[64, 128, 256, 512, 1024], out_channels=2,
                   k=10, input_size=128)


def _samples(size, n):
    spec = SyntheticSpec(image_size=size, n_samples=n, noise_sigma=0.05, seed=3)
    return [generate(spec, i) for i in range(n)]


def _update(h, named_arrays):
    for name, arr in named_arrays:
        h.update(name.encode())
        h.update(np.ascontiguousarray(arr).tobytes())


def steps(model, n_steps, micro_batch, accumulation, lr, dtype) -> str:
    """Loss, gradients, parameters and Adam moments after each of ``n_steps``
    updates of ``accumulation`` micro-batches of ``micro_batch`` samples."""
    net = OmegaNet(ModelConfig(**model), seed=0, dtype=dtype)
    per_step = micro_batch * accumulation
    samples = _samples(model["input_size"], n_steps * per_step)
    params = net.named_parameters()
    adam = AdamState(lr=lr)
    h = hashlib.sha256()
    for s in range(n_steps):
        batches = [stack_samples(samples[lo:lo + micro_batch], dtype=dtype)
                   for lo in range(s * per_step, (s + 1) * per_step, micro_batch)]
        grads, loss = accumulate_gradients(net, batches)
        adam_step(params, grads, adam)
        h.update(np.float64(loss).tobytes())
        for name, p in params:
            _update(h, [(name, grads[name]), (name, p.data),
                        (name, adam.m[name]), (name, adam.v[name])])
    return h.hexdigest()


def train_run(dtype) -> str:
    """A ``train()`` run's checkpoint, history CSV and final parameters, then
    ``evaluate`` on held-out samples.  17 samples leave a short last
    micro-batch in the loop's evaluations, and 5 in the final one."""
    samples = _samples(TOY_MODEL["input_size"], 22)
    net = OmegaNet(ModelConfig(**TOY_MODEL), seed=0, dtype=dtype)
    cfg = TrainLoopConfig(epochs=2, micro_batch_size=2, accumulation_steps=4,
                          eval_interval=3, seed=1)
    h = hashlib.sha256()
    with tempfile.TemporaryDirectory() as tmp:
        ckpt, csv = Path(tmp) / "ckpt.otf", Path(tmp) / "history.csv"
        train(net, samples[:17], cfg, adam=AdamState(lr=1e-3), checkpoint_path=ckpt,
              history_csv=csv)
        h.update(ckpt.read_bytes())
        h.update(csv.read_bytes())
    _update(h, [(name, p.data) for name, p in net.named_parameters()])
    h.update(repr(evaluate(net, samples[17:], micro_batch_size=2)).encode())
    return h.hexdigest()


CASES = {
    "toy_steps_f32": lambda: steps(TOY_MODEL, 3, 2, 4, 1e-3, np.float32),
    "toy_steps_f64": lambda: steps(TOY_MODEL, 3, 2, 4, 1e-3, np.float64),
    "toy_train_f32": lambda: train_run(np.float32),
    "toy_train_f64": lambda: train_run(np.float64),
    # an odd micro-batch, of 3 samples
    "toy_mb3_f32": lambda: steps(TOY_MODEL, 2, 3, 2, 1e-3, np.float32),
    "toy_mb3_f64": lambda: steps(TOY_MODEL, 2, 3, 2, 1e-3, np.float64),
    "paper_steps": lambda: steps(PAPER_MODEL, 2, 1, 1, 1e-4, np.float32),
}


def main(argv) -> int:
    unknown = set(argv) - set(CASES)
    if unknown:
        print(f"unknown cases {sorted(unknown)}; choose from {list(CASES)}", file=sys.stderr)
        return 2
    for name in argv or CASES:
        print(f"{name} {CASES[name]()}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
