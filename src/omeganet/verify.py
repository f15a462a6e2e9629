"""Self-check suites: finite-difference gradients, loop oracles, shape fidelity.

Each suite returns a list of CheckResult rows so that both the CLI and the
test suite can run the identical checks; the CLI prints one line per row and
reports the worst relative error seen.
"""
from __future__ import annotations

import sys
import time
from dataclasses import dataclass

import numpy as np

from . import blocks, reference
from .net import ModelConfig, OmegaNet, bce_loss
from .tensor import (
    Tensor,
    _im2col,
    no_grad,
    adaptive_avg_pool_to_k,
    conv2d,
    matmul,
    maxpool2d,
    softmax_rows,
    sum_all,
    transpose_last2,
    transposed_conv2d,
)
from .train import ADAM_CHUNK, AdamState, adam_step, compute_metrics

GRAD_TOL_BLOCK = 1e-4
GRAD_TOL_END_TO_END = 1e-3
ORACLE_TOL = 1e-10
ORACLE_INSTANCES = 100  # random cases per op in the oracle suite


@dataclass
class CheckResult:
    name: str
    worst: float
    tol: float

    @property
    def passed(self):
        return self.worst <= self.tol


def _rand(rng, shape):
    return Tensor(rng.normal(size=shape), dtype=np.float64, requires_grad=True)


# ---------------------------------------------------------------------------
# Gradient suite
# ---------------------------------------------------------------------------

def _grad_check(name, loss_fn, named_params) -> CheckResult:
    errors = reference.check_gradients(loss_fn, named_params)
    return CheckResult(name, max(errors.values()), GRAD_TOL_BLOCK)


def _op_check(name, rng, op, *shapes, params=()) -> CheckResult:
    """Check sum(op(*operands)) against its operands, drawn from ``rng`` in
    order, and against ``params``."""
    operands = [_rand(rng, shape) for shape in shapes]
    return _grad_check(name, lambda: sum_all(op(*operands)),
                       list(zip("xwb", operands)) + list(params))


def grad_suite():
    """Finite-difference checks per block, then the tiny end-to-end network."""
    rng = np.random.default_rng(42)
    results = [
        _op_check("conv2d", rng, conv2d, (2, 3, 5, 5), (4, 3, 3, 3), (4,)),
        # a 1x1 kernel's columns are a view of the input
        _op_check("conv2d_1x1", np.random.default_rng(5), conv2d,
                  (2, 3, 5, 5), (4, 3, 1, 1), (4,)),
        _op_check("conv2d_relu", np.random.default_rng(41),  # pre-activations >= 0.12 off 0
                  lambda x, w, b: conv2d(x, w, b, relu=True), (2, 3, 5, 5), (4, 3, 3, 3), (4,)),
        _op_check("transposed_conv2d", rng, transposed_conv2d, (2, 3, 4, 4), (3, 2, 2, 2), (2,)),
        _op_check("maxpool2d", rng, maxpool2d, (1, 2, 4, 4)),
        _op_check("adaptive_avg_pool", rng, lambda x: adaptive_avg_pool_to_k(x, 5), (1, 2, 3, 4)),
    ]
    xs = _rand(rng, (4, 6))
    # quadratic weighting makes the softmax gradient generic
    sw = Tensor(rng.normal(size=(4, 6)), dtype=np.float64)
    results.append(_grad_check(
        "softmax_rows", lambda: sum_all(matmul(softmax_rows(xs), transpose_last2(sw))),
        [("x", xs)]))
    pd = blocks.init_dspa(np.random.default_rng(3), 3, k=2, dtype=np.float64)
    pm = blocks.init_msc(np.random.default_rng(4), 3, dtype=np.float64)
    results += [
        _op_check("dspa", rng, lambda m: blocks.dspa(m, pd), (1, 3, 4, 4),
                  params=blocks.named_parameters(pd, "p")),
        _op_check("channel_attention", rng, blocks.channel_attention, (1, 3, 3, 3)),
        _op_check("cascade_msc", rng, lambda m: blocks.cascade_msc(m, pm), (1, 3, 4, 4),
                  params=blocks.named_parameters(pm, "p")),
    ]
    zl = _rand(rng, (2, 2, 3, 3))
    yb = Tensor((rng.uniform(size=(2, 2, 3, 3)) > 0.5).astype(np.float64))
    results.append(_grad_check("bce", lambda: bce_loss(zl, yb), [("logits", zl)]))
    results.append(end_to_end_grad_check())
    return results


def tiny_config() -> ModelConfig:
    """The smallest full network used for end-to-end gradient verification."""
    return ModelConfig(depth=3, encoder_channels=[4, 8, 16], out_channels=2,
                       k=4, input_size=16)


def end_to_end_grad_check() -> CheckResult:
    # h must sit well below the distance to the nearest relu/maxpool kink of
    # the deep composition; 1e-3 (fine for the shallow per-block checks) picks
    # up kink crossings here, while 1e-6 is clean and still far above the
    # float64 difference-quotient noise floor.
    rng = np.random.default_rng(7)
    net = OmegaNet(tiny_config(), seed=7, dtype=np.float64)
    x = Tensor(rng.normal(size=(1, 1, 16, 16)), dtype=np.float64)
    mask = Tensor((rng.uniform(size=(1, 2, 16, 16)) > 0.6).astype(np.float64))
    errors = reference.check_gradients(
        lambda: net.loss(net.forward(x), mask), net.named_parameters(), h=1e-6)
    return CheckResult("end_to_end", max(errors.values()), GRAD_TOL_END_TO_END)


# ---------------------------------------------------------------------------
# Oracle suite
# ---------------------------------------------------------------------------

# Each case draws one random instance from ``rng`` and returns the error of
# the fast path against its scalar-loop oracle.

def _conv2d_case(rng, relu=False):
    n, ci, co = rng.integers(1, 3), rng.integers(1, 5), rng.integers(1, 5)
    k, dl = int(rng.choice([1, 3, 5])), int(rng.integers(1, 3))
    x = rng.normal(size=(n, ci, int(rng.integers(1, 10)), int(rng.integers(1, 10))))
    wt = rng.normal(size=(co, ci, k, k))
    b = rng.normal(size=(co,))
    got = conv2d(Tensor(x), Tensor(wt), Tensor(b), dl, relu=relu).data
    ref = reference.conv2d_naive(x, wt, b, 1, dl * (k - 1) // 2, dl)
    return reference.relative_error(got, np.maximum(ref, 0) if relu else ref)


def _conv2d_tiled_case(rng):
    """Bits that differ between conv2d, whose forward tiles these columns at
    the module's constants (16 -> 8 channels, 3x3, 128x96: six tiles in
    float64, the last taking the short remainder), and one GEMM per sample."""
    n, dl, relu = int(rng.integers(1, 3)), int(rng.integers(1, 3)), bool(rng.integers(2))
    x = rng.normal(size=(n, 16, 128, 96))
    wt = rng.normal(size=(8, 16, 3, 3))
    b = rng.normal(size=(8,))
    got = conv2d(Tensor(x), Tensor(wt), Tensor(b), dl, relu=relu).data
    ref = np.stack([np.matmul(wt.reshape(8, -1), _im2col(x[i:i + 1], 3, dl)[0])
                    for i in range(n)]) + b.reshape(1, 8, 1)
    return float(_bit_mismatches(got, (np.maximum(ref, 0) if relu else ref).reshape(got.shape)))


def _transposed_conv2d_case(rng):
    # the up-sampler's stride is its kernel size k
    n, ci, co = rng.integers(1, 3), rng.integers(1, 5), rng.integers(1, 5)
    k = int(rng.integers(1, 4))
    x = rng.normal(size=(n, ci, int(rng.integers(1, 6)), int(rng.integers(1, 6))))
    wt = rng.normal(size=(ci, co, k, k))
    b = rng.normal(size=(co,))
    got = transposed_conv2d(Tensor(x), Tensor(wt), Tensor(b)).data
    return reference.relative_error(got, reference.transposed_conv2d_naive(x, wt, b, k))


def _maxpool2d_case(rng):
    x = rng.normal(size=(int(rng.integers(1, 3)), int(rng.integers(1, 4)),
                         2 * int(rng.integers(1, 5)), 2 * int(rng.integers(1, 5))))
    return reference.relative_error(maxpool2d(Tensor(x)).data, reference.maxpool2d_naive(x))


def _softmax_rows_case(rng):
    x = rng.uniform(-6, 6, size=(int(rng.integers(1, 8)), int(rng.integers(1, 9))))
    got = softmax_rows(Tensor(x)).data
    return max(np.abs(got - reference.softmax_naive(x)).max(), np.abs(got.sum(-1) - 1.0).max())


def _adaptive_avg_pool_case(rng):
    x = rng.normal(size=(1, int(rng.integers(1, 4)), int(rng.integers(2, 5)),
                         int(rng.integers(2, 5))))
    kk = int(rng.integers(1, min(5, x.shape[2] * x.shape[3]) + 1))
    got = adaptive_avg_pool_to_k(Tensor(x), kk).data
    return reference.relative_error(got, reference.adaptive_pool_naive(x, kk))


def _dspa_case(rng):
    c = int(rng.integers(2, 4))
    h = w = int(rng.integers(2, 5))
    kk = int(rng.integers(1, 5))
    m = Tensor(rng.normal(size=(1, c, h, w)), dtype=np.float64)
    p = blocks.init_dspa(rng, c, k=kk, dtype=np.float64)
    got = blocks.dspa(m, p).data.reshape(c, h * w)
    t = np.maximum(reference.conv2d_naive(
        m.data, p.dilated.weight.data, p.dilated.bias.data, 1, 2, 2), 0)
    d = reference.adaptive_pool_naive(t, kk)[0]
    ref, _ = reference.spatial_attention_naive(m.data.reshape(c, h * w), d)
    return reference.relative_error(got, ref)


def _channel_attention_case(rng):
    c = int(rng.integers(1, 5))
    h = w = int(rng.integers(2, 4))
    m = Tensor(rng.normal(size=(1, c, h, w)), dtype=np.float64)
    got = blocks.channel_attention(m).data.reshape(c, h * w)
    ref, _ = reference.channel_attention_naive(m.data.reshape(c, h * w))
    return reference.relative_error(got, ref)


def _metrics_case(rng):
    """The largest of 1 for a confusion count unlike the naive one and the
    difference from the DSC recomputed from the naive counts; both must
    agree exactly."""
    shape = (int(rng.integers(1, 3)), 2, int(rng.integers(2, 7)), int(rng.integers(2, 7)))
    prob = rng.uniform(size=shape)
    mask = (rng.uniform(size=shape) > rng.uniform(0.2, 0.8)).astype(np.float64)
    errors = [0.0]
    naive = reference.metrics_naive(prob, mask)
    for got, ref in zip(compute_metrics(prob, mask).channels, naive):
        if any(getattr(got, key) != ref[key] for key in ("tp", "fp", "fn", "tn")):
            errors.append(1.0)
        t, p = ref["tp"] + ref["fn"], ref["tp"] + ref["fp"]
        errors.append(abs(got.dsc - (1.0 if (t == 0 and p == 0) else 2.0 * ref["tp"] / (t + p))))
    return max(errors)


# (name, case, tolerance, seed); the rows naming one seed draw from one generator in order
ORACLE_CASES = (
    ("conv2d", _conv2d_case, ORACLE_TOL, 2024),
    ("conv2d_relu", lambda rng: _conv2d_case(rng, relu=True), ORACLE_TOL, 6),
    ("conv2d_tiled", _conv2d_tiled_case, 0.0, 21),
    ("transposed_conv2d", _transposed_conv2d_case, ORACLE_TOL, 2024),
    ("maxpool2d", _maxpool2d_case, ORACLE_TOL, 2024),
    ("softmax_rows", _softmax_rows_case, 1e-12, 2024),
    ("adaptive_avg_pool", _adaptive_avg_pool_case, ORACLE_TOL, 2024),
    ("dspa", _dspa_case, ORACLE_TOL, 2024),
    ("channel_attention", _channel_attention_case, ORACLE_TOL, 2024),
    ("metrics", _metrics_case, 0.0, 2024),
)


def oracle_suite():
    """Fast paths versus scalar-loop oracles: the worst error over random
    small cases per op, then the bit-exact Adam and init checks."""
    rngs = {seed: np.random.default_rng(seed) for *_, seed in ORACLE_CASES}
    results = [CheckResult(name, max(case(rngs[seed]) for _ in range(ORACLE_INSTANCES)), tol)
               for name, case, tol, seed in ORACLE_CASES]
    mismatches = sum(adam_mismatches(dtype, wd)
                     for dtype in (np.float32, np.float64) for wd in (0.0, AdamState.weight_decay))
    results.append(CheckResult("adam", float(mismatches), 0.0))
    mismatches = sum(init_mismatches(dtype, transposed)
                     for dtype in (np.float32, np.float64) for transposed in (False, True))
    results.append(CheckResult("init", float(mismatches), 0.0))
    return results


def _bit_mismatches(a, b) -> int:
    """Elements whose bits differ between two arrays of one float dtype."""
    bits = f"u{a.dtype.itemsize}"
    return int(np.count_nonzero(a.view(bits) != b.view(bits)))


ADAM_SIZES = (1, ADAM_CHUNK - 1, ADAM_CHUNK, ADAM_CHUNK + 1, 3 * ADAM_CHUNK + 5)


def adam_mismatches(dtype, weight_decay) -> int:
    """Elements of parameters and moments whose bits differ between the chunked
    ``adam_step`` and ``reference.adam_step_naive`` after 5 updates.

    One parameter per size in ``ADAM_SIZES``, straddling the chunk edges.
    """
    rng = np.random.default_rng(11)
    init = {f"p{n}": rng.normal(size=n).astype(dtype) for n in ADAM_SIZES}
    fast = [(k, Tensor(a.copy())) for k, a in init.items()]
    slow = [(k, Tensor(a.copy())) for k, a in init.items()]
    fast_state = AdamState(lr=1e-3, weight_decay=weight_decay)
    slow_state = AdamState(lr=1e-3, weight_decay=weight_decay)
    for _ in range(5):
        grads = {k: rng.normal(size=a.shape).astype(dtype) for k, a in init.items()}
        adam_step(fast, grads, fast_state)
        reference.adam_step_naive(slow, grads, slow_state)
    return sum(_bit_mismatches(a, b) for (k, p), (_, q) in zip(fast, slow)
               for a, b in ((p.data, q.data), (fast_state.m[k], slow_state.m[k]),
                            (fast_state.v[k], slow_state.v[k])))


INIT_SIZES = (1, blocks.KAIMING_CHUNK - 1, blocks.KAIMING_CHUNK, blocks.KAIMING_CHUNK + 1,
              3 * blocks.KAIMING_CHUNK + 5)


def init_mismatches(dtype, transposed) -> int:
    """Weight elements whose bits differ between the deferred
    ``blocks.kaiming_conv`` and ``reference.kaiming_conv_naive``, plus one if
    the two generators' states differ once every weight is built.

    One weight per size in ``INIT_SIZES``, straddling the chunk edges, each
    a 1x1 conv with that many input channels.  Both generators first make a
    32-bit draw, so each holds the unused half of a 64-bit output that the
    build must keep.  All weights are built before any is read, and they are
    read in reverse, against references drawn in construction order.
    """
    fast, slow = np.random.default_rng(13), np.random.default_rng(13)
    fast.integers(2)
    slow.integers(2)
    built = [blocks.kaiming_conv(fast, n, 1, 1, transposed=transposed, dtype=dtype).weight
             for n in INIT_SIZES]
    refs = [reference.kaiming_conv_naive(slow, n, 1, 1, transposed=transposed, dtype=dtype)
            for n in INIT_SIZES]
    return int(fast.bit_generator.state != slow.bit_generator.state) + sum(
        _bit_mismatches(got.data, ref) for got, ref in reversed(list(zip(built, refs))))


# ---------------------------------------------------------------------------
# Shape suite
# ---------------------------------------------------------------------------

def shape_suite():
    """Forward-pass shape contracts for {depth 3, 5} x {32, 64} inputs."""
    results = []
    for depth in (3, 5):
        for size in (32, 64):
            channels = [4 * 2 ** i for i in range(depth)]
            cfg = ModelConfig(depth=depth, encoder_channels=channels,
                              out_channels=2, k=10, input_size=size)
            net = OmegaNet(cfg, seed=0)
            x = Tensor(np.zeros((1, 1, size, size), dtype=np.float32))
            with no_grad():
                encs = net.encode(x)
                out = net.forward(x)
            bottleneck_ok = encs[-1].shape == (
                1, channels[-1], size // 2 ** (depth - 1), size // 2 ** (depth - 1))
            heads_ok = (out.main_logits.shape == (1, 2, size, size)
                        and out.aux_logits.shape == (1, 2, size, size))
            results.append(CheckResult(
                f"shapes_d{depth}_s{size}", 0.0 if (bottleneck_ok and heads_ok) else 1.0, 0.0))
    return results


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------

def run_suite(name: str) -> bool:
    suites = {
        "grad": grad_suite,
        "oracle": oracle_suite,
        "shape": shape_suite,
    }
    names = list(suites) if name == "all" else [name]
    ok = True
    for suite_name in names:
        start = time.time()
        results = suites[suite_name]()
        elapsed = time.time() - start
        for r in results:
            status = "PASS" if r.passed else "FAIL"
            print(f"[{status}] {suite_name}/{r.name}: worst {r.worst:.3e} (tol {r.tol:.0e})")
            ok = ok and r.passed
        # the one timed line goes to stderr, so stdout compares byte for byte
        print(f"{suite_name} suite finished in {elapsed:.1f}s", file=sys.stderr)
    return ok
