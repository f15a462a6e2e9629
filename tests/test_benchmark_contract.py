"""The benchmark's tracer wraps library names by lookup; they must all exist.

``omegabench/tracer.py`` finds ``tensor._im2col``, ``tensor._col2im``,
``net.apply_conv`` and the ``OmegaNet`` methods by name when a ``Probe`` is
built, so renaming one would fail every benchmark run.  This runs one traced
forward and backward of the smallest full network and checks that the spans
the per-layer metrics read are recorded and that the originals come back.
``omegabench/worker.py`` builds its model configs by keyword, so they are
built and round-tripped here too, and its ``paper_infer`` set-up is replayed
to check that a net restored from a checkpoint draws no Kaiming weight.
"""
import importlib.util
import sys
from pathlib import Path

import numpy as np

from omeganet import verify
from omeganet.net import (
    ModelConfig, OmegaNet, load_checkpoint, restore_parameters, save_checkpoint,
)
from omeganet.tensor import Tensor

BENCH = Path(__file__).resolve().parent.parent / "omegabench"


def load_bench_module(name):
    spec = importlib.util.spec_from_file_location(f"omegabench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def bindings():
    """Every attribute of every omeganet module, plus the wrapped class methods."""
    found = {(name, attr): value
             for name, module in list(sys.modules.items())
             if name == "omeganet" or name.startswith("omeganet.")
             for attr, value in vars(module).items()}
    found.update({("OmegaNet", attr): value for attr, value in vars(OmegaNet).items()})
    found[("Tensor", "backward")] = Tensor.backward
    return found


def test_probe_records_the_layer_spans_and_restores_the_library():
    probe = load_bench_module("tracer").Probe()
    before = bindings()
    probe.set_mode(True)
    try:
        rng = np.random.default_rng(0)
        net = OmegaNet(verify.tiny_config(), seed=0, dtype=np.float64)
        x = Tensor(rng.normal(size=(1, 1, 16, 16)), dtype=np.float64)
        mask = Tensor((rng.uniform(size=(1, 2, 16, 16)) > 0.5).astype(np.float64))
        net.loss(net.forward(x), mask).backward()
    finally:
        probe.set_mode(None)
    names = {span[0] for span in probe.spans}
    for name in ("tensor.im2col", "tensor.col2im", "blocks.up", "blocks.head",
                 "net.decode_original"):
        assert name in names, name
    after = bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


def test_worker_model_configs_build_and_round_trip(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))  # the worker imports tracer by bare name
    worker = load_bench_module("worker")
    for model in (worker.TOY_MODEL, worker.PAPER_MODEL):
        config = ModelConfig(**model)
        assert ModelConfig.from_dict(config.to_dict()) == config


def test_traced_backward_gives_the_untraced_gradient_bytes():
    # the tracer wraps every closure in one that discards its return value, so
    # closures must keep accumulating their own gradients
    probe = load_bench_module("tracer").Probe()

    def gradients(traced):
        rng = np.random.default_rng(0)
        net = OmegaNet(verify.tiny_config(), seed=0, dtype=np.float64)
        x = Tensor(rng.normal(size=(1, 1, 16, 16)), dtype=np.float64)
        mask = Tensor((rng.uniform(size=(1, 2, 16, 16)) > 0.5).astype(np.float64))
        probe.set_mode(True if traced else None)
        try:
            net.loss(net.forward(x), mask).backward()
        finally:
            probe.set_mode(None)
        return {name: p.grad for name, p in net.named_parameters()}

    untraced, traced = gradients(False), gradients(True)
    assert traced.keys() == untraced.keys() and len(untraced) == 60
    for name, grad in untraced.items():
        assert grad is not None and traced[name].tobytes() == grad.tobytes(), name


class NoDraw(np.random.Generator):
    """A generator that fails any test drawing from it."""

    def random(self, *args, **kwargs):
        raise AssertionError("a Kaiming weight was drawn")

    uniform = random


def test_restored_net_draws_no_weight(tmp_path, monkeypatch):
    # the paper_infer set-up: load_checkpoint, OmegaNet(config, seed=0),
    # restore_parameters; every weight it would draw is discarded
    save_checkpoint(OmegaNet(verify.tiny_config(), seed=3), tmp_path / "ckpt.otf")
    monkeypatch.setattr(np.random, "default_rng", lambda seed=None: NoDraw(np.random.PCG64(seed)))
    monkeypatch.setattr(np.random, "Generator", NoDraw)
    config, entries = load_checkpoint(tmp_path / "ckpt.otf")
    model = OmegaNet(config, seed=0)
    restore_parameters(model, entries)
    params = model.named_parameters()
    assert len(params) == 60
    for name, p in params:
        assert p.data is entries[name], name
