"""Span tracing of the omeganet layers, installed from outside the library.

A ``Probe`` replaces the public functions of the five layer modules
(``tensor``, ``blocks``, ``net``, ``train``, ``data``) with wrappers that
record one span per call: name, start, end, parent span and the block that
was active.  ``blocks``, ``net`` and ``train`` bind tensor ops by name
(``from .tensor import conv2d``), so every binding of a function in every
``omeganet`` module is replaced, not only the defining one.  Backward time is
taken by wrapping the ``_backward_fn`` of each Tensor an op returns, and is
attributed to the block that was active at the forward call.

Exact counts (GEMM flops, im2col/col2im bytes, tape nodes, OTF bytes) are
computed from shapes, and the memory the tape retains after each
grad-enabled forward is summed per block from the arrays the tape's nodes
and backward closures keep alive.

Spans stay in memory as tuples and are written out once, at the end.
"""
from __future__ import annotations

import importlib
import json
import sys
import time
import weakref
from collections import defaultdict

import numpy as np

from omeganet import blocks, data, net, tensor

# the package re-exports the function train.train under the module's name
train = importlib.import_module("omeganet.train")

# tensor op -> metric group: ``tensor.<group>.fwd_s|bwd_s`` sums the group's ops
OP_GROUPS = {
    "conv2d": "conv2d",
    "transposed_conv2d": "transposed_conv2d",
    "matmul": "matmul",
    "softmax_rows": "softmax_rows",
    "maxpool2d": "maxpool2d",
    "add": "pointwise",
    "relu": "pointwise",
    "sigmoid": "pointwise",
    "scale": "pointwise",
    "concat_channels": "pointwise",
    "reshape": "pointwise",
    "transpose_last2": "pointwise",
    "adaptive_avg_pool_to_k": "reduce",
    "sum_all": "reduce",
    "mean_all": "reduce",
    "bce_with_logits": "reduce",
}
BLOCKS = ("conv_block", "cascade_msc", "dspa", "channel_attention")
NET_METHODS = ("forward", "encode", "msc_skips", "decode_additional", "decode_original", "loss")
FUNCTIONS = (
    (train, ("train", "accumulate_gradients", "adam_step", "evaluate", "confusion_counts",
             "binarize")),
    (data, ("read_otf", "write_otf", "stack_samples", "write_dataset", "generate")),
    (net, ("save_checkpoint", "load_checkpoint", "restore_parameters")),
)


def _owner(arr: np.ndarray) -> np.ndarray:
    """The array that owns the memory ``arr`` views."""
    while isinstance(arr.base, np.ndarray):
        arr = arr.base
    return arr


def _otf_bytes(items) -> int:
    """Exact size of the OTF file holding ``items`` [(name, array)]."""
    total = 8
    for name, arr in items:
        shape = np.shape(arr)
        total += 2 + len(name.encode("utf-8")) + 1 + 4 * len(shape)
        total += 4 * int(np.prod(shape, dtype=np.int64))
    return total


class Probe:
    """Installs span-recording wrappers and keeps the spans and counts.

    ``hooks`` maps a span name to ``callback(t0, t1)``, called after every
    call of that function.  ``set_mode(False)`` installs wrappers for the
    hooked functions only, which record nothing else; ``set_mode(True)``
    installs every wrapper and records spans and counts; ``set_mode(None)``
    restores the library's own functions.
    """

    def __init__(self, hooks=None):
        self.hooks = dict(hooks or {})
        # span tuple: (name, t0, t1, parent index or -1, block name or "")
        self.spans = []
        self.counts = defaultdict(int)
        self.retained = defaultdict(list)  # block -> MB retained, one per forward
        self._stack = []
        self._fwd_nodes = None
        self._installed = []
        self._targets = self._find_targets()

    # -- installation -------------------------------------------------------

    def _find_targets(self):
        """[(owner, attribute, original, span name, kind)] for every binding."""
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "omeganet" or name.startswith("omeganet.")]
        originals = []
        for op in OP_GROUPS:
            originals.append((getattr(tensor, op), f"tensor.{op}", "op"))
        for name in BLOCKS:
            originals.append((getattr(blocks, name), f"blocks.{name}", "block"))
        for module, names in FUNCTIONS:
            layer = module.__name__.rsplit(".", 1)[-1]
            for name in names:
                originals.append((getattr(module, name), f"{layer}.{name}", "fn"))
        targets = []
        for fn, span, kind in originals:
            for m in modules:
                for attr, value in vars(m).items():
                    if value is fn:
                        targets.append((m, attr, fn, span, kind))
        targets.append((tensor, "_im2col", tensor._im2col, "tensor.im2col", "im2col"))
        targets.append((tensor, "_col2im", tensor._col2im, "tensor.col2im", "col2im"))
        targets.append((tensor.Tensor, "backward", tensor.Tensor.backward,
                        "tensor.backward", "fn"))
        for name in NET_METHODS:
            targets.append((net.OmegaNet, name, getattr(net.OmegaNet, name),
                            f"net.{name}", "forward" if name == "forward" else "fn"))
        # net calls apply_conv only for the up-samplers and the heads
        targets.append((net, "apply_conv", net.apply_conv, "blocks.up|head", "apply_conv"))
        return targets

    def set_mode(self, full) -> None:
        for owner, attr, original in self._installed:
            setattr(owner, attr, original)
        self._installed = []
        if full is None:
            return
        for owner, attr, original, span, kind in self._targets:
            if full:
                wrapper = self._wrap(original, span, kind)
            elif span in self.hooks:
                wrapper = self._hook_only(original, self.hooks[span])
            else:
                continue
            setattr(owner, attr, wrapper)
            self._installed.append((owner, attr, original))

    @staticmethod
    def _hook_only(fn, hook):
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            t0 = clock()
            out = fn(*args, **kwargs)
            hook(t0, clock())
            return out
        return wrapper

    # -- span recording -----------------------------------------------------

    def _block(self) -> str:
        spans = self.spans
        for idx in reversed(self._stack):
            name = spans[idx][0]
            if name.startswith("blocks."):
                return name
        return ""

    def _wrap(self, fn, span, kind):
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter
        hook = self.hooks.get(span)
        probe = self

        def run(name, block, call, *args, **kwargs):
            idx = len(spans)
            spans.append((name, 0.0, 0.0, stack[-1] if stack else -1, block))
            stack.append(idx)
            t0 = clock()
            try:
                return call(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (name, t0, t1, spans[idx][3], block)
                if hook is not None:
                    hook(t0, t1)

        if kind == "op":
            bwd_span = f"{span}.bwd"

            def wrapper(*args, **kwargs):
                block = probe._block()
                out = run(span, block, fn, *args, **kwargs)
                if span == "tensor.conv2d":
                    x, weight = args[0], args[1]
                    counts["tensor.conv2d.gemm_flops"] += (
                        2 * x.shape[0] * weight.size * out.shape[2] * out.shape[3])
                backward_fn = out._backward_fn
                if backward_fn is not None:
                    counts["tensor.tape_nodes"] += 1
                    if probe._fwd_nodes is not None:
                        probe._fwd_nodes.append(
                            (block, weakref.ref(out.data), weakref.ref(backward_fn)))

                    def timed_backward(g):
                        run(bwd_span, block, backward_fn, g)
                    out._backward_fn = timed_backward
                return out
            return wrapper

        if kind in ("im2col", "col2im"):
            def wrapper(*args, **kwargs):
                out = run(span, "", fn, *args, **kwargs)
                counts[f"{span}.bytes"] += out.nbytes
                return out
            return wrapper

        if kind == "apply_conv":
            def wrapper(x, p):
                name = "blocks.up" if p.transposed else "blocks.head"
                return run(name, name, fn, x, p)
            return wrapper

        if kind == "forward":
            def wrapper(model, x):
                if not tensor._grad_enabled or probe._fwd_nodes is not None:
                    return run(span, "", fn, model, x)
                probe._fwd_nodes = []
                try:
                    out = run(span, "", fn, model, x)
                    probe._record_retained(model)
                finally:
                    probe._fwd_nodes = None
                return out
            return wrapper

        if span == "data.read_otf":
            def wrapper(*args, **kwargs):
                out = run(span, "", fn, *args, **kwargs)
                counts["data.read_otf.bytes"] += _otf_bytes(out.items())
                return out
            return wrapper

        if span == "data.write_otf":
            def wrapper(path, tensors):
                items = list(tensors.items()) if isinstance(tensors, dict) else list(tensors)
                out = run(span, "", fn, path, items)
                counts["data.write_otf.bytes"] += _otf_bytes(items)
                return out
            return wrapper

        block = span if kind == "block" else ""

        def wrapper(*args, **kwargs):
            return run(span, block, fn, *args, **kwargs)
        return wrapper

    def _record_retained(self, model) -> None:
        """Sum, per block, the bytes the tape of one forward keeps alive.

        A tape node keeps its output array and every array its backward
        closure captured; views are charged to the array owning the memory,
        each owner once, to the first block that retained it.  Parameters are
        not forward state and are left out.
        """
        params = {id(_owner(p.data)) for _, p in model.named_parameters()}
        seen = set()
        per_block = defaultdict(int)
        for block, data_ref, backward_ref in self._fwd_nodes:
            backward_fn, out_data = backward_ref(), data_ref()
            if backward_fn is None or out_data is None:
                continue  # the node was freed, so the tape does not keep it
            arrays = [out_data]
            for cell in backward_fn.__closure__ or ():
                value = cell.cell_contents
                if isinstance(value, np.ndarray):
                    arrays.append(value)
            for arr in arrays:
                owner = _owner(arr)
                if id(owner) in params or id(owner) in seen:
                    continue
                seen.add(id(owner))
                per_block[block] += owner.nbytes
        for block in ("blocks." + b for b in BLOCKS + ("up", "head")):
            self.retained[block].append(per_block.get(block, 0) / 2**20)
        self.retained["net.forward"].append(sum(per_block.values()) / 2**20)

    # -- results ------------------------------------------------------------

    def self_times(self, first: int = 0) -> dict:
        """{span name: [inclusive seconds, self seconds, calls]} for spans[first:]."""
        child = defaultdict(float)
        for name, t0, t1, parent, _ in self.spans[first:]:
            if parent >= first:
                child[parent] += t1 - t0
        table = defaultdict(lambda: [0.0, 0.0, 0])
        for idx in range(first, len(self.spans)):
            name, t0, t1, _, _ = self.spans[idx]
            row = table[name]
            row[0] += t1 - t0
            row[1] += t1 - t0 - child.get(idx, 0.0)
            row[2] += 1
        return dict(table)

    def write_spans(self, path) -> None:
        with open(path, "w") as f:
            for idx, (name, t0, t1, parent, block) in enumerate(self.spans):
                f.write(json.dumps({"id": idx, "name": name, "start": t0, "end": t1,
                                    "parent": parent, "block": block}) + "\n")
