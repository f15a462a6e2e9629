"""One omegabench workload, run closed-loop in its own process.

Started by ``run.py``, which pins the BLAS threads and reads what this
process prints to stdout: one ``op`` line per completed operation (so that a
crash still leaves a count) and, at the end, one ``result`` line holding the
metrics, the correctness checks and the environment record.

    python3 omegabench/worker.py --workload toy_train --seed 1 --seconds 20 \
        --trace 0 --workdir .omegabench/toy_train-seed1-trace0
"""
from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import struct
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from omeganet import data, net, tensor  # noqa: E402

# the package re-exports the function train.train under the module's name
train = importlib.import_module("omeganet.train")  # noqa: E402
from tracer import BLOCKS, OP_GROUPS, Probe  # noqa: E402

# configs/toy.json shape: depth 3, channels [8, 16, 32], 64x64, 2 x 4 micro-batches
TOY_MODEL = dict(depth=3, encoder_channels=[8, 16, 32], out_channels=2, k=10,
                 lambda_s=10.0, lambda_a=1.0, input_size=64)
TOY_SAMPLES = 64
TOY_MICRO_BATCH, TOY_ACCUMULATION = 2, 4
TOY_EVAL_INTERVAL = 50
TOY_LR, WEIGHT_DECAY = 1e-3, 0.00015

# paper channels 64..1024 at 128x128, micro-batch 1
PAPER_MODEL = dict(depth=5, encoder_channels=[64, 128, 256, 512, 1024], out_channels=2,
                   k=10, lambda_s=10.0, lambda_a=1.0, input_size=128)
PAPER_LR = 1e-4
PAPER_POOL = 4  # distinct generated inputs, cycled
STRETCH = 5  # operations per stretch of the tail statistic


def progress(kind: str) -> None:
    print(f"op {kind}", flush=True)


def log(message: str) -> None:
    print(f"[{time.strftime('%H:%M:%S')}] {message}", file=sys.stderr, flush=True)


def median(values):
    """Median, or 0.0 when a failed run left no samples (JSON has no NaN)."""
    return float(np.median(values)) if len(values) else 0.0


def tail(values):
    """(value, excess of each stretch): the run's median plus the smallest,
    over consecutive stretches of about ``STRETCH`` operations, of the
    stretch's p90 minus its median.  A run of six operations or more is cut
    into at least three stretches.

    Load from outside the process only ever slows operations, and it comes
    in spells of seconds to minutes: a whole-run percentile above the median
    counts how many operations the spells hit, and spread 23-35% between
    runs of the same code.  The quietest stretch keeps the program's own
    spread, so a slow operation that the program makes every few operations
    still shows."""
    n = len(values)
    if n == 0:
        return 0.0, []
    k = max(1, min(n // 2, max(3, n // STRETCH)))
    parts = [values[i * n // k:(i + 1) * n // k] for i in range(k)]
    excess = [float(np.percentile(p, 90) - np.median(p)) for p in parts]
    return median(values) + min(excess), excess


class Workload:
    """Shared closed-loop machinery: set-up repeats, timing, tracing, checks."""

    setup_repeats = 4  # after the loop, besides the one before it; setup_s is the median of all

    def __init__(self, args):
        self.seed = args.seed
        self.seconds = args.seconds
        self.work = Path(args.workdir)
        self.checks = {}
        self.attempted = 0
        self.failed = 0
        self.warmup = 0
        self.setup_times = []
        self.tracing = bool(args.trace)
        self.probe = Probe(self.hooks())
        self.setup_mark = 0  # first span of the timed loop
        self.op_times = []
        self.op_traced = []
        self.op_windows = []  # (start, end) of each timed operation

    def hooks(self):
        return {}

    def check(self, name, ok, detail=""):
        self.checks[name] = {"ok": bool(ok), "detail": detail}

    def run_setup(self):
        """The set-up the loop uses, timed (and traced in a traced run)."""
        self.probe.set_mode(self.tracing)
        t0 = time.perf_counter()
        state = self.setup()
        self.setup_times.append(time.perf_counter() - t0)
        self.setup_spans = self.probe.self_times()
        self.setup_mark = len(self.probe.spans)
        self.probe.counts.clear()
        self.probe.retained.clear()
        self.probe.set_mode(False)
        log(f"set-up {self.setup_times}")
        return state

    def setup_again(self):
        """Time ``setup_repeats`` more set-ups after the loop, untraced.  The
        first set-up of a process runs on a cold heap (and, on paper_infer,
        while the checkpoint just written is still being flushed), so it is
        slower than the ones after it; the median of all keeps the steady
        cost.  The caller frees the loop's state first, so peak RSS is not
        raised."""
        for _ in range(self.setup_repeats):
            t0 = time.perf_counter()
            state = self.setup()
            self.setup_times.append(time.perf_counter() - t0)
            del state
        log(f"set-up after the loop {self.setup_times[-self.setup_repeats:]}")

    def traced(self, i: int) -> bool:
        """Traced runs alternate traced and untraced operations, traced first."""
        on = self.tracing and i % 2 == 0
        self.probe.set_mode(on)
        return on

    def timed_ops(self, op, kind):
        """Call op() until the time is up; one timing per call."""
        start = time.perf_counter()
        i = 0
        while time.perf_counter() - start < self.seconds:
            on = self.traced(i)
            self.attempted += 1
            t0 = time.perf_counter()
            try:
                op(i)
            except Exception as e:  # noqa: BLE001 - counted and reported as a failed op
                self.failed += 1
                self.check(f"{kind}_{i}_raised", False, repr(e))
                break
            t1 = time.perf_counter()
            self.op_times.append(t1 - t0)
            self.op_windows.append((t0, t1))
            self.op_traced.append(on)
            progress(kind)
            i += 1
        self.probe.set_mode(None)
        wall = time.perf_counter() - start
        log(f"loop done: {len(self.op_times)} operations in {wall:.1f} s")
        return wall

    def end_to_end(self, samples_per_op, wall):
        untraced = [t for t, on in zip(self.op_times, self.op_traced) if not on]
        value, excess = tail(untraced)
        return {
            "setup_s": {"value": median(self.setup_times), "unit": "s"},
            "step_s_p50": {"value": median(untraced), "unit": "s"},
            "step_s_tail": {"value": value, "unit": "s"},
            "samples_per_s": {"value": samples_per_op * len(self.op_times) / wall,
                              "unit": "1/s"},
            "peak_rss_mb": {"value": peak_rss_mb(), "unit": "MB"},
        }, {"tail_stretch_excess": excess, "samples": len(untraced),
            "op_times": self.op_times}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def params_digest(model) -> str:
    h = hashlib.sha256()
    for name, p in model.named_parameters():
        h.update(name.encode())
        h.update(np.ascontiguousarray(p.data, dtype=np.float32).tobytes())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# toy_train: omeganet train on the toy shape, from OTF files on disk
# ---------------------------------------------------------------------------

class ToyTrain(Workload):
    """``train.train`` on a DiskDataset, evaluating and checkpointing every
    ``eval_interval`` (50) steps as ``omeganet train`` does.  ``train.train``
    also evaluates and checkpoints at its last step, so each call of the loop
    runs up to the next multiple of 50 steps (about 21 s on two cores), and
    the loop starts no call after half of ``--seconds``, so that the number
    of calls does not turn on a few percent of speed; the step
    clock is driven by hooks on the functions the loop calls.  A traced run
    makes at least two calls, a traced one and an untraced one."""

    setup_repeats = 15  # one set-up takes about 50 ms: more repeats steady the median

    def __init__(self, args):
        self.last = 0.0
        self.steps = []  # (start, end)
        self.evals = []
        self.ckpts = []
        super().__init__(args)

    def hooks(self):
        def step(t0, t1):
            self.steps.append((self.last, t1))
            self.last = t1

        def evaluated(t0, t1):
            self.evals.append((t0, t1))
            self.last = t1

        def saved(t0, t1):
            self.ckpts.append((t0, t1))
            self.last = t1
        return {"train.adam_step": step, "train.evaluate": evaluated,
                "net.save_checkpoint": saved}

    def setup(self):
        spec = data.SyntheticSpec(image_size=64, n_samples=TOY_SAMPLES, noise_sigma=0.05,
                                  seed=self.seed)
        data.write_dataset(spec, self.work / "data", force=True)
        dataset = data.DiskDataset(self.work / "data", "train")
        model = net.OmegaNet(net.ModelConfig(**TOY_MODEL), seed=self.seed)
        return dataset, model

    def run(self):
        dataset, model = self.run_setup()
        per_step = TOY_MICRO_BATCH * TOY_ACCUMULATION
        epoch_steps = len(dataset) // per_step  # 5 steps of the 44-sample split
        chunk_epochs = TOY_EVAL_INTERVAL // epoch_steps
        cfg = train.TrainLoopConfig(epochs=1, micro_batch_size=TOY_MICRO_BATCH,
                                    accumulation_steps=TOY_ACCUMULATION,
                                    eval_interval=TOY_EVAL_INTERVAL, seed=self.seed)
        adam = train.AdamState(lr=TOY_LR, weight_decay=WEIGHT_DECAY)
        ckpt = self.work / "checkpoint.otf"
        history = []

        def train_until(epochs):
            cfg.epochs = epochs
            self.last = time.perf_counter()
            history.extend(train.train(model, dataset, cfg, adam=adam, checkpoint_path=ckpt))

        train_until(1)  # warm-up, not timed: one epoch, its evaluation and checkpoint
        self.warmup = epoch_steps
        self.steps.clear()
        self.evals.clear()
        self.ckpts.clear()

        start = time.perf_counter()
        chunk_traced = []
        i = 0
        min_calls = 2 if self.tracing else 1
        while i < min_calls or time.perf_counter() - start < self.seconds / 2:
            on = self.traced(i)
            n_before = len(self.steps)
            try:
                train_until(chunk_epochs * (i + 1))
            except Exception as e:  # noqa: BLE001 - counted and reported as a failed op
                self.attempted += 1
                self.failed += 1
                self.check("train_raised", False, repr(e))
            chunk_traced.extend([on] * (len(self.steps) - n_before))
            if self.failed:
                break
            for _ in range(len(self.steps) - n_before):
                progress("step")
            progress("eval")
            progress("checkpoint")
            i += 1
        self.probe.set_mode(None)
        wall = time.perf_counter() - start
        self.attempted += len(self.steps) + len(self.evals) + len(self.ckpts)
        self.op_times = [t1 - t0 for t0, t1 in self.steps]
        self.op_windows = list(self.steps)
        self.op_traced = chunk_traced

        log(f"loop done: {len(self.steps)} steps, {len(self.evals)} evaluations"
            f" in {wall:.1f} s")
        if not self.failed:
            self.check_training(history, epoch_steps)
            self.check_checkpoint(model, adam, ckpt)
            self.check_determinism(dataset, history)
        del model, adam
        self.setup_again()

        metrics, report = self.end_to_end(per_step, wall)
        eval_s = sum(t1 - t0 for t0, t1 in self.evals)
        report["eval_images_per_s"] = len(dataset) * len(self.evals) / eval_s if eval_s else 0.0
        report["evals"] = len(self.evals)
        report["checkpoints"] = len(self.ckpts)
        report["first_losses"] = [float.hex(e.loss) for e in history[:2 * epoch_steps]]
        return metrics, report

    def check_training(self, history, window):
        losses = [e.loss for e in history]
        self.check("loss_finite", all(np.isfinite(losses)), f"{len(losses)} steps")
        first, last = np.mean(losses[:window]), np.mean(losses[-window:])
        self.check("loss_moving_average_falls", last < first,
                   f"mean of first {window} {first:.4f} -> last {window} {last:.4f}")

    def check_checkpoint(self, model, adam, ckpt):
        config, entries = net.load_checkpoint(ckpt)
        same = config.to_dict() == model.config.to_dict()
        for name, p in model.named_parameters():
            same = same and entries[name].tobytes() == p.data.astype(np.float32).tobytes()
        fresh = net.OmegaNet(config, seed=self.seed + 1)
        extra = net.restore_parameters(fresh, entries)
        same = same and params_digest(fresh) == params_digest(model)
        state = train.adam_state_arrays(adam)
        same = same and sorted(extra) == sorted(state) and all(
            extra[k].tobytes() == state[k].tobytes() for k in state)
        self.check("checkpoint_round_trip", same, f"{len(entries)} tensors")

    def check_determinism(self, dataset, history):
        """A second run from the same seed replays the first epoch's losses bit for bit."""
        model = net.OmegaNet(net.ModelConfig(**TOY_MODEL), seed=self.seed)
        cfg = train.TrainLoopConfig(epochs=1, micro_batch_size=TOY_MICRO_BATCH,
                                    accumulation_steps=TOY_ACCUMULATION,
                                    eval_interval=TOY_EVAL_INTERVAL, seed=self.seed)
        adam = train.AdamState(lr=TOY_LR, weight_decay=WEIGHT_DECAY)
        replay = train.train(model, dataset, cfg, adam=adam)
        same = [struct.pack("<d", a.loss) for a in replay] == [
            struct.pack("<d", b.loss) for b in history[:len(replay)]]
        self.check("deterministic_losses", same, f"{len(replay)} steps replayed")


# ---------------------------------------------------------------------------
# paper_infer: the predict path at paper channels
# ---------------------------------------------------------------------------

class PaperInfer(Workload):
    """``omeganet predict`` at paper channels: set-up loads a checkpoint
    (written once beforehand, untimed), and each image runs a no_grad
    forward, sigmoid and binarize."""

    def setup(self):
        config, entries = net.load_checkpoint(self.ckpt)
        model = net.OmegaNet(config, seed=0)
        net.restore_parameters(model, entries)
        return model

    def run(self):
        self.ckpt = self.work / "checkpoint.otf"
        saved = net.OmegaNet(net.ModelConfig(**PAPER_MODEL), seed=self.seed)
        saved_digest = params_digest(saved)
        net.save_checkpoint(saved, self.ckpt)
        del saved
        model = self.run_setup()
        self.check("checkpoint_round_trip", params_digest(model) == saved_digest,
                   "restored parameters equal the saved ones")
        spec = data.SyntheticSpec(image_size=128, n_samples=PAPER_POOL, seed=self.seed)
        images = [data.generate(spec, i).image[None].astype(np.float32)
                  for i in range(PAPER_POOL)]
        outputs = []

        def predict(i):
            with tensor.no_grad():
                out = model.forward(tensor.Tensor(images[i % PAPER_POOL]))
                prob = tensor.sigmoid(out.main_logits).data
            mask = train.binarize(prob[0], 0.5)
            outputs.append((prob.shape, float(prob.min()), float(prob.max()),
                            bool(np.isfinite(prob).all()), mask.shape))

        predict(0)  # warm-up, not timed
        self.warmup = 1
        outputs.clear()
        wall = self.timed_ops(predict, "image")
        ok = all(shape == (1, 2, 128, 128) and 0.0 <= lo and hi <= 1.0 and finite
                 and mshape == (2, 128, 128) for shape, lo, hi, finite, mshape in outputs)
        self.check("outputs_shape_and_range", ok and bool(outputs),
                   f"{len(outputs)} images of shape (1, 2, 128, 128) in [0, 1]")
        del model
        self.setup_again()
        return self.end_to_end(1, wall)


# ---------------------------------------------------------------------------
# paper_train: one accumulate_gradients + adam_step per step at paper channels
# ---------------------------------------------------------------------------

class PaperTrain(Workload):
    """Micro-batch 1 training steps at paper channels and 128x128."""

    def setup(self):
        return net.OmegaNet(net.ModelConfig(**PAPER_MODEL), seed=self.seed)

    def run(self):
        model = self.run_setup()
        spec = data.SyntheticSpec(image_size=128, n_samples=PAPER_POOL, seed=self.seed)
        samples = [data.generate(spec, i) for i in range(PAPER_POOL)]
        params = model.named_parameters()
        adam = train.AdamState(lr=PAPER_LR, weight_decay=WEIGHT_DECAY)
        losses = []

        def step(i):
            batch = data.stack_samples([samples[i % PAPER_POOL]])
            grads, loss = train.accumulate_gradients(model, [batch])
            train.adam_step(params, grads, adam)
            losses.append(loss)

        step(0)  # warm-up, not timed: allocates the Adam moments
        step(1)  # the second step still runs on a cold heap
        self.warmup = 2
        head_before = model.head_main.bias.data.copy()
        wall = self.timed_ops(step, "step")
        self.check("loss_finite", all(np.isfinite(losses)), f"{len(losses)} steps")
        self.check("parameters_updated",
                   not np.array_equal(head_before, model.head_main.bias.data),
                   "head bias changed over the timed steps")
        del model, params, adam, step
        self.setup_again()
        return self.end_to_end(1, wall)


WORKLOADS = {"toy_train": ToyTrain, "paper_infer": PaperInfer, "paper_train": PaperTrain}


# ---------------------------------------------------------------------------
# Per-layer metrics from the traced operations
# ---------------------------------------------------------------------------

def per_layer(w: Workload):
    """Layer metrics per timed operation (train step or image), from the
    traced operations only; ``net.load_checkpoint.s`` is that of the traced
    set-up.
    Returns (metrics, self-time table of the traced spans)."""
    probe = w.probe
    table = probe.self_times(w.setup_mark)
    n = max(1, sum(w.op_traced))

    def inclusive(*names):
        return sum(table.get(name, (0.0, 0.0, 0))[0] for name in names) / n

    out = {}

    def put(name, value, unit):
        out[name] = {"value": value, "unit": unit}

    for group in sorted(set(OP_GROUPS.values())):
        ops = [op for op, g in OP_GROUPS.items() if g == group]
        put(f"tensor.{group}.fwd_s", inclusive(*(f"tensor.{op}" for op in ops)), "s")
        put(f"tensor.{group}.bwd_s", inclusive(*(f"tensor.{op}.bwd" for op in ops)), "s")
    for kind in ("im2col", "col2im"):
        put(f"tensor.{kind}.s", inclusive(f"tensor.{kind}"), "s")
        put(f"tensor.{kind}.bytes", probe.counts[f"tensor.{kind}.bytes"] / n, "B")
    put("tensor.conv2d.gemm_flops", probe.counts["tensor.conv2d.gemm_flops"] / n, "flop")
    put("tensor.backward.s", inclusive("tensor.backward"), "s")
    put("tensor.backward.self_s", table.get("tensor.backward", (0, 0.0, 0))[1] / n, "s")
    put("tensor.tape_nodes", probe.counts["tensor.tape_nodes"] / n, "count")

    bwd_by_block = {}
    for name, t0, t1, _, block in probe.spans[w.setup_mark:]:
        if name.endswith(".bwd") and block:
            bwd_by_block[block] = bwd_by_block.get(block, 0.0) + (t1 - t0)
    for b in BLOCKS + ("up", "head"):
        put(f"blocks.{b}.fwd_s", inclusive(f"blocks.{b}"), "s")
        put(f"blocks.{b}.bwd_s", bwd_by_block.get(f"blocks.{b}", 0.0) / n, "s")
        put(f"blocks.{b}.retained_mb", median(probe.retained[f"blocks.{b}"]), "MB")
    put("net.forward.retained_mb", median(probe.retained["net.forward"]), "MB")
    for m in ("encode", "msc_skips", "decode_additional", "decode_original", "loss"):
        put(f"net.{m}.fwd_s", inclusive(f"net.{m}"), "s")
    put("net.save_checkpoint.s", inclusive("net.save_checkpoint"), "s")
    load = w.setup_spans.get("net.load_checkpoint", (0.0, 0.0, 0))[0]
    put("net.load_checkpoint.s", load, "s")  # the one traced set-up
    for f in ("adam_step", "accumulate_gradients", "evaluate", "confusion_counts"):
        put(f"train.{f}.s", inclusive(f"train.{f}"), "s")
    put("data.read_otf.s", inclusive("data.read_otf"), "s")
    put("data.read_otf.bytes", probe.counts["data.read_otf.bytes"] / n, "B")
    put("data.write_otf.s", inclusive("data.write_otf"), "s")
    put("data.write_otf.bytes", probe.counts["data.write_otf.bytes"] / n, "B")
    put("data.stack_samples.s", inclusive("data.stack_samples"), "s")

    traced = [t for t, on in zip(w.op_times, w.op_traced) if on]
    untraced = [t for t, on in zip(w.op_times, w.op_traced) if not on]
    put("trace.overhead_s", median(traced) - median(untraced), "s")
    put("trace.span_coverage", span_coverage(w), "ratio")
    put("trace.ops", float(n), "count")
    return out, table


def span_coverage(w: Workload) -> float:
    """Share of the traced operations' time covered by top-level named spans.

    For toy_train an operation is a step, whose window runs from the end of
    the previous step, evaluation or checkpoint to the end of its adam_step;
    the spans inside it are the children of the ``train.train`` span.  For
    the paper workloads the window is the timed call and every outermost
    span inside it counts.
    """
    spans = w.probe.spans
    windows = [s for s, on in zip(w.op_windows, w.op_traced) if on]
    if isinstance(w, ToyTrain):
        roots = {i for i in range(w.setup_mark, len(spans)) if spans[i][0] == "train.train"}
    else:
        roots = {-1}
    top = sorted((t0, t1) for _, t0, t1, parent, _ in spans[w.setup_mark:] if parent in roots)
    covered = total = 0.0
    j = 0
    for start, end in windows:
        total += end - start
        while j < len(top) and top[j][1] <= end:
            t0, t1 = top[j]
            if t0 >= start:
                covered += t1 - t0
            j += 1
    return covered / total if total else 0.0


def environment(workload: Workload) -> dict:
    config = np.show_config(mode="dicts")
    blas = config.get("Build Dependencies", {}).get("blas", {})
    try:
        mem = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") / 2**30
    except (ValueError, OSError):
        mem = float("nan")
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "omeganet").glob("*.py")):
        src.update(path.name.encode())
        src.update(path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": {v: os.environ.get(v, "") for v in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "cpus": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "memory_gib": round(mem, 2),
        "git_rev": git_rev(),
        "src_sha256": src.hexdigest(),
        "warmup_ops": workload.warmup,
        "setup_repeats": f"1 before the loop and {workload.setup_repeats} after it",
    }


def git_rev() -> str:
    """HEAD of the checkout, read from .git without running git; a checkout
    that is not a repository has none."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "none (not a git checkout)"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--workdir", required=True)
    args = ap.parse_args(argv)
    Path(args.workdir).mkdir(parents=True, exist_ok=True)

    w = WORKLOADS[args.workload](args)
    metrics, report = w.run()
    result = {
        "correct": w.failed == 0 and all(c["ok"] for c in w.checks.values()),
        "attempted": w.attempted,
        "failed": w.failed,
        "checks": w.checks,
        "report": report,
        "environment": environment(w),
    }
    for path in Path(args.workdir).iterdir():  # inputs and checkpoints; the record stays
        if path.is_dir():
            shutil.rmtree(path)
        else:
            path.unlink()
    if args.trace:
        report["untraced_step_s_p50"] = metrics["step_s_p50"]["value"]
        result["metrics"], table = per_layer(w)
        result["self_times"] = {k: v for k, v in sorted(
            table.items(), key=lambda kv: -kv[1][1])[:25]}
        w.probe.write_spans(Path(args.workdir) / "spans.jsonl")
    else:
        result["metrics"] = metrics
    print("result " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
