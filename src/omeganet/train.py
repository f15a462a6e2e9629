"""Adam optimizer, gradient accumulation, segmentation metrics, and the loop.

The loss is mean-reduced over batch, channels, and pixels, so accumulating G
micro-batches (each loss scaled by 1/G before backward) produces exactly the
gradient of the G-times-larger batch.  One optimizer step consumes G
micro-batches; the optimizer step count doubles as the global step counter,
which makes checkpoint resume deterministic.
"""
from __future__ import annotations

import csv
import errno
import os
from dataclasses import dataclass, field

import numpy as np

from .data import all_finite, stack_samples
from .net import OmegaNet, _fsync, save_checkpoint
from .tensor import no_grad, scale, sigmoid


class DivergenceError(RuntimeError):
    """A loss or gradient went non-finite."""


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------

# Adam's moment decay rates and denominator offset (Kingma & Ba's defaults)
BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


@dataclass
class AdamState:
    """Adam with L2-coupled weight decay (decay folded into the gradient)."""

    lr: float = 1e-4
    weight_decay: float = 0.00015
    t: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)


# Adam streams every parameter through scratch buffers of this many elements
# (128 KiB of float32), so the update holds no whole-array temporaries.
ADAM_CHUNK = 32768


def adam_step(params, grads, state: AdamState) -> None:
    """One update over [(name, Tensor)] given {name: gradient array}.

    g <- grad + weight_decay * param; m, v exponential moments with bias
    correction; param <- param - lr * m_hat / (sqrt(v_hat) + eps).
    Parameters and moments are updated in place, ``ADAM_CHUNK`` elements at a
    time, with the ufunc sequence of ``reference.adam_step_naive``, so the
    result is bit-identical to the whole-array formula.  A ``p.data`` that is
    not C-contiguous or not writeable is first replaced by an owned copy.
    A missing, misshapen or non-finite gradient rejects the whole step before
    any parameter is touched.
    """
    for name, p in params:
        g = grads.get(name)
        shape = getattr(g, "shape", None)  # None for a missing gradient
        if shape != p.data.shape:
            raise ValueError(
                f"gradient shape {shape} does not match parameter {name!r} {p.data.shape}"
            )
        if not all_finite(g):
            raise DivergenceError(f"non-finite gradient for parameter {name!r}")
    state.t += 1
    bc1 = 1.0 - BETA1 ** state.t
    bc2 = 1.0 - BETA2 ** state.t
    wd, lr = state.weight_decay, state.lr
    scratch = None
    for name, p in params:
        if not (p.data.flags.c_contiguous and p.data.flags.writeable):
            # reshape(-1) of such an array is a copy, and the update would be lost
            p.data = np.array(p.data, order="C")
        if name not in state.m:
            state.m[name], state.v[name] = np.zeros_like(p.data), np.zeros_like(p.data)
        m, v = state.m[name], state.v[name]
        if scratch is None or scratch.dtype != p.data.dtype:
            scratch = np.empty((2, ADAM_CHUNK), dtype=p.data.dtype)
        flat_g = grads[name].reshape(-1)
        flat_p, flat_m, flat_v = p.data.reshape(-1), m.reshape(-1), v.reshape(-1)
        for lo in range(0, flat_p.size, ADAM_CHUNK):
            hi = min(lo + ADAM_CHUNK, flat_p.size)
            pc, mc, vc, gc = flat_p[lo:hi], flat_m[lo:hi], flat_v[lo:hi], flat_g[lo:hi]
            a, b = scratch[0, :hi - lo], scratch[1, :hi - lo]
            if wd:
                np.multiply(wd, pc, out=b)
                gc = np.add(gc, b, out=a)
            mc *= BETA1
            mc += np.multiply(1.0 - BETA1, gc, out=b)
            vc *= BETA2
            np.multiply(gc, gc, out=b)
            vc += np.multiply(1.0 - BETA2, b, out=b)
            np.divide(mc, bc1, out=a)
            np.multiply(lr, a, out=a)
            np.divide(vc, bc2, out=b)
            np.sqrt(b, out=b)
            np.add(b, EPS, out=b)
            np.divide(a, b, out=a)
            pc -= a


def adam_state_arrays(state: AdamState) -> dict:
    """Flatten optimizer state into float32 arrays for checkpointing; float32
    moments are returned as they are, not copied."""
    out = {"adam.t": np.array([state.t], dtype=np.float32)}
    for name, arr in state.m.items():
        out[f"adam.m.{name}"] = arr.astype(np.float32, copy=False)
    for name, arr in state.v.items():
        out[f"adam.v.{name}"] = arr.astype(np.float32, copy=False)
    return out


def adam_state_from_arrays(arrays: dict, lr=AdamState.lr,
                           weight_decay=AdamState.weight_decay) -> AdamState:
    """Rebuild optimizer state from ``adam_state_arrays`` entries.

    The state owns the moment arrays from then on: float32 arrays, such as
    those ``read_otf`` returns, are taken over, not copied, and ``adam_step``
    updates them in place, so the caller must not use them elsewhere.
    """
    state = AdamState(lr=lr, weight_decay=weight_decay)
    state.t = int(arrays.get("adam.t", np.zeros(1))[0])
    for name, arr in arrays.items():
        if name.startswith("adam.m."):
            state.m[name[len("adam.m."):]] = arr.astype(np.float32, copy=False)
        elif name.startswith("adam.v."):
            state.v[name[len("adam.v."):]] = arr.astype(np.float32, copy=False)
    return state


# ---------------------------------------------------------------------------
# Gradient accumulation
# ---------------------------------------------------------------------------

def accumulate_gradients(net: OmegaNet, micro_batches):
    """Mean gradient over G micro-batches of (images, mask) tensors.

    Each micro-batch loss is scaled by 1/G before backward, so the summed
    leaf gradients equal the mean of the per-micro-batch gradients.
    Returns ({name: grad}, mean loss).
    """
    g = len(micro_batches)
    if g < 1:
        raise ValueError("need at least one micro-batch")
    net.zero_grad()
    losses = []
    for images, mask in micro_batches:
        out = net.forward(images)
        loss = net.loss(out, mask)
        losses.append(loss.item())
        scale(loss, 1.0 / g).backward()
    return {name: p.grad for name, p in net.named_parameters()}, float(np.mean(losses))


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

@dataclass
class ChannelMetrics:
    tp: int
    fp: int
    fn: int
    tn: int
    dsc: float
    ppv: float
    sensitivity: float


@dataclass
class MetricsReport:
    """Per-channel confusion counts and overlap metrics, plus macro averages."""

    channels: list
    macro_dsc: float
    macro_ppv: float
    macro_sensitivity: float


def binarize(prob: np.ndarray, threshold: float = 0.5) -> np.ndarray:
    """Shared thresholding used for metrics and mask export: strictly above."""
    if not 0.0 < threshold < 1.0:
        raise ValueError(f"threshold must lie in (0, 1), got {threshold}")
    return prob > threshold


def confusion_counts(prob, mask, threshold=0.5):
    """Per-channel (tp, fp, fn, tn) int64 arrays over all batch pixels."""
    prob = np.asarray(prob)
    mask = np.asarray(mask)
    if prob.shape != mask.shape:
        raise ValueError(f"shape mismatch: prob {prob.shape} vs mask {mask.shape}")
    if not (prob.min() >= 0.0 and prob.max() <= 1.0):  # NaN fails too
        raise ValueError("probabilities must lie in [0, 1]")
    if not np.isin(mask, (0.0, 1.0)).all():
        raise ValueError("mask must be binary")
    pred = binarize(prob, threshold)
    truth = mask > 0.5
    axes = tuple(i for i in range(prob.ndim) if i != prob.ndim - 3)
    tp = np.logical_and(pred, truth).sum(axis=axes)
    fp = np.logical_and(pred, ~truth).sum(axis=axes)
    fn = np.logical_and(~pred, truth).sum(axis=axes)
    tn = np.logical_and(~pred, ~truth).sum(axis=axes)
    return tp.astype(np.int64), fp.astype(np.int64), fn.astype(np.int64), tn.astype(np.int64)


def metrics_from_counts(tp, fp, fn, tn) -> MetricsReport:
    """DSC = 2TP/(|T|+|P|), PPV = TP/(TP+FP), Sensitivity = TP/(TP+FN).

    A channel empty on both sides scores 1 everywhere; a denominator that is
    empty on exactly one side scores 0 for the affected metric.
    """
    channels = []
    for c in range(len(tp)):
        t = int(tp[c] + fn[c])
        p = int(tp[c] + fp[c])
        if t == 0 and p == 0:
            dsc = ppv = sens = 1.0
        else:
            dsc = 2.0 * tp[c] / (t + p)
            ppv = tp[c] / p if p > 0 else 0.0
            sens = tp[c] / t if t > 0 else 0.0
        channels.append(ChannelMetrics(int(tp[c]), int(fp[c]), int(fn[c]), int(tn[c]),
                                       float(dsc), float(ppv), float(sens)))
    return MetricsReport(
        channels=channels,
        macro_dsc=float(np.mean([c.dsc for c in channels])),
        macro_ppv=float(np.mean([c.ppv for c in channels])),
        macro_sensitivity=float(np.mean([c.sensitivity for c in channels])),
    )


def compute_metrics(prob, mask, threshold: float = 0.5) -> MetricsReport:
    """Metrics over an (N, L, H, W) probability map against a binary mask."""
    return metrics_from_counts(*confusion_counts(prob, mask, threshold))


def _micro_batches(dataset, indices, size, dtype):
    """Yield the stacked (images, mask) tensors of ``dataset[i]`` for
    ``indices``, ``size`` samples at a time; the last batch may be short."""
    for lo in range(0, len(indices), size):
        yield stack_samples([dataset[i] for i in indices[lo:lo + size]], dtype=dtype)


def evaluate(net: OmegaNet, dataset, threshold: float = 0.5,
             micro_batch_size: int = 8) -> MetricsReport:
    """Main-head metrics over a sequence of samples, accumulated in micro-batches."""
    if len(dataset) == 0:
        raise ValueError("cannot evaluate an empty dataset")
    totals = 0
    with no_grad():
        for images, mask in _micro_batches(dataset, range(len(dataset)), micro_batch_size,
                                           net.dtype):
            prob = sigmoid(net.forward(images).main_logits)
            totals = totals + np.array(confusion_counts(prob.data, mask.data, threshold))
    return metrics_from_counts(*totals)


# ---------------------------------------------------------------------------
# Training loop
# ---------------------------------------------------------------------------

@dataclass
class TrainLoopConfig:
    epochs: int = 1
    micro_batch_size: int = 2
    accumulation_steps: int = 4
    eval_interval: int = 50
    threshold: float = 0.5
    seed: int = 0

    def validate(self):
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        if self.micro_batch_size < 1 or self.accumulation_steps < 1:
            raise ValueError("micro_batch_size and accumulation_steps must be >= 1")
        if self.eval_interval < 1:
            raise ValueError("eval_interval must be >= 1")
        if not 0.0 < self.threshold < 1.0:
            raise ValueError("threshold must lie in (0, 1)")
        return self


@dataclass
class HistoryEntry:
    step: int
    loss: float
    metrics: MetricsReport | None = None


def _epoch_order(seed: int, epoch: int, indices) -> list:
    rng = np.random.default_rng([seed & 0xFFFFFFFF, epoch])
    order = list(indices)
    rng.shuffle(order)
    return order


def train(net: OmegaNet, dataset, cfg: TrainLoopConfig, adam: AdamState | None = None,
          checkpoint_path=None, history_csv=None) -> list:
    """Run the loop; returns the history of (step, loss, metrics at eval points).

    Deterministic given the seed: per-epoch sample order is a pure function of
    (seed, epoch), and the optimizer step count selects the position inside the
    epoch, so a run resumed from a checkpoint replays the uninterrupted
    schedule.  A checkpoint is saved every ``eval_interval`` steps and at the
    last step, or once if no step runs; a ``checkpoint_path`` that is a
    directory is rejected first.  ``history_csv`` gets the header and the
    rows <= adam.t of a history already there, then each step's row as the
    step ends, fsynced before the step's checkpoint.  On divergence both
    files are left as they are and a DivergenceError is raised.
    """
    cfg.validate()
    if checkpoint_path is not None and os.path.isdir(checkpoint_path):
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(checkpoint_path))
    adam = adam if adam is not None else AdamState()
    idx = list(range(len(dataset)))
    per_step = cfg.micro_batch_size * cfg.accumulation_steps
    steps_per_epoch = len(idx) // per_step
    if steps_per_epoch < 1:  # an empty dataset too
        raise ValueError(f"dataset of {len(idx)} samples is smaller than one effective"
                         f" batch of {per_step}")
    total_steps = cfg.epochs * steps_per_epoch
    params = net.named_parameters()
    n_channels = net.config.out_channels
    history = []

    def checkpoint():
        if checkpoint_path is not None:
            if history_csv is not None:
                _fsync(history_csv)
            save_checkpoint(net, checkpoint_path, extra=adam_state_arrays(adam))

    if history_csv is not None:
        _start_history(history_csv, adam.t, n_channels)
        _fsync(os.path.dirname(os.path.abspath(history_csv)))
    for step in range(adam.t, total_steps):
        epoch, pos = divmod(step, steps_per_epoch)
        order = _epoch_order(cfg.seed, epoch, idx)
        chunk = order[pos * per_step:(pos + 1) * per_step]
        grads, loss = accumulate_gradients(
            net, list(_micro_batches(dataset, chunk, cfg.micro_batch_size, net.dtype)))
        if not np.isfinite(loss):
            raise DivergenceError(f"non-finite loss at step {step + 1}")
        adam_step(params, grads, adam)
        entry = HistoryEntry(step=adam.t, loss=loss)
        at_eval = adam.t % cfg.eval_interval == 0 or adam.t == total_steps
        if at_eval:
            entry.metrics = evaluate(net, dataset, threshold=cfg.threshold,
                                     micro_batch_size=cfg.micro_batch_size)
        history.append(entry)
        if history_csv is not None:
            write_history_row(history_csv, entry, n_channels)
        if at_eval:
            checkpoint()
    if not history:
        checkpoint()
    return history


def _start_history(path, t: int, n_channels: int) -> None:
    """Write the history CSV's header, then, if t > 0, the rows with step <= t
    of a history already at ``path`` (none if its first line is not the header)."""
    header = ["step", "loss"] + [f"{m}_{c}" for c in range(n_channels)
                                 for m in ("dsc", "ppv", "sens")]
    kept = []
    if t > 0 and os.path.isfile(path):
        with open(path, newline="", errors="replace") as f:
            if f.readline().rstrip("\r\n") == ",".join(header):
                kept = [r for r in csv.reader(f) if r and r[0].isdigit() and int(r[0]) <= t]
    with open(path, "w", newline="") as f:
        csv.writer(f).writerows([header] + kept)


def write_history_row(path, entry: HistoryEntry, n_channels: int) -> None:
    """Append step, loss, then per-channel dsc/ppv/sens (blank outside eval
    points) to the history CSV, closing the file so the row reaches the OS."""
    row = [entry.step, f"{entry.loss:.9g}"]
    if entry.metrics is not None:
        for c in entry.metrics.channels:
            row += [f"{c.dsc:.6f}", f"{c.ppv:.6f}", f"{c.sensitivity:.6f}"]
    else:
        row += [""] * (3 * n_channels)
    with open(path, "a", newline="") as f:
        csv.writer(f).writerow(row)


def write_metrics_csv(path, report: MetricsReport, names) -> None:
    """One row per channel plus a macro row: dsc, ppv, sensitivity, counts."""
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["channel", "dsc", "ppv", "sensitivity", "tp", "fp", "fn", "tn"])
        for name, c in zip(names, report.channels):
            writer.writerow([name, f"{c.dsc:.6f}", f"{c.ppv:.6f}", f"{c.sensitivity:.6f}",
                             c.tp, c.fp, c.fn, c.tn])
        writer.writerow(["macro", f"{report.macro_dsc:.6f}", f"{report.macro_ppv:.6f}",
                         f"{report.macro_sensitivity:.6f}", "", "", "", ""])


def format_metrics(report: MetricsReport, names) -> str:
    """Fixed-width table with the DSC / PPV / Sensi column layout."""
    lines = [f"{'':<10}{'DSC':>8}{'PPV':>8}{'Sensi':>8}"]
    for name, c in zip(names, report.channels):
        lines.append(f"{name:<10}{c.dsc:>8.4f}{c.ppv:>8.4f}{c.sensitivity:>8.4f}")
    lines.append(
        f"{'macro':<10}{report.macro_dsc:>8.4f}{report.macro_ppv:>8.4f}"
        f"{report.macro_sensitivity:>8.4f}"
    )
    return "\n".join(lines)
