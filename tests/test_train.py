"""Optimizer, accumulation, metrics, and training-loop behavior."""
import gc
import os
import re
import tracemalloc
import types

import numpy as np
import pytest

from omeganet import reference, verify
from omeganet import train as train_module
from omeganet.data import SyntheticSpec, generate, stack_samples
from omeganet.net import ModelConfig, OmegaNet, save_checkpoint, build_from_checkpoint
from omeganet.tensor import Tensor
from omeganet.train import (
    AdamState,
    DivergenceError,
    TrainLoopConfig,
    accumulate_gradients,
    adam_state_arrays,
    adam_state_from_arrays,
    adam_step,
    compute_metrics,
    evaluate,
    metrics_from_counts,
    train,
)


def toy_net(seed=0, dtype=np.float32, **overrides):
    base = dict(depth=3, encoder_channels=[4, 8, 16], out_channels=2, k=4,
                lambda_s=10.0, lambda_a=1.0, input_size=16)
    base.update(overrides)
    return OmegaNet(ModelConfig(**base), seed=seed, dtype=dtype)


def toy_dataset(n=8, seed=0, size=16):
    spec = SyntheticSpec(image_size=size, n_samples=n, seed=seed)
    return [generate(spec, i) for i in range(n)]


@pytest.fixture
def rng():
    return np.random.default_rng(9)


class TestAdam:
    def test_first_step_magnitude_is_lr(self):
        p = Tensor(np.array([1.0], dtype=np.float32), requires_grad=True)
        state = AdamState(lr=0.01, weight_decay=0.0)
        adam_step([("p", p)], {"p": np.array([0.37], dtype=np.float32)}, state)
        delta = 1.0 - p.data[0]
        assert abs(delta - 0.01) < 0.01 * 1e-5

    def test_zero_gradient_leaves_parameters(self, rng):
        w = rng.normal(size=(3, 3)).astype(np.float32)
        p = Tensor(w.copy(), requires_grad=True)
        state = AdamState(weight_decay=0.0)
        adam_step([("p", p)], {"p": np.zeros_like(w)}, state)
        np.testing.assert_array_equal(p.data, w)

    def test_quadratic_descent_is_monotone(self):
        p = Tensor(np.array([1.0]), dtype=np.float64, requires_grad=True)
        state = AdamState(lr=0.1, weight_decay=0.0)
        values = [abs(float(p.data[0]))]
        for _ in range(10):
            adam_step([("p", p)], {"p": 2.0 * p.data}, state)
            values.append(abs(float(p.data[0])))
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_nan_gradient_rejects_step(self):
        p = Tensor(np.ones(2, dtype=np.float32), requires_grad=True)
        state = AdamState()
        with pytest.raises(DivergenceError, match="p"):
            adam_step([("p", p)], {"p": np.array([np.nan, 0.0], dtype=np.float32)}, state)
        assert state.t == 0
        np.testing.assert_array_equal(p.data, np.ones(2))

    def test_huge_finite_gradient_passes_and_infinity_rejects(self):
        # the sum of squares of 3e38 overflows, so the finite check must look again
        p = Tensor(np.zeros(2, dtype=np.float32), requires_grad=True)
        state = AdamState(weight_decay=0.0)
        with np.errstate(over="ignore"):  # the second moment overflows too
            adam_step([("p", p)], {"p": np.array([3e38, -3e38], dtype=np.float32)}, state)
        assert state.t == 1 and np.isfinite(p.data).all()
        with pytest.raises(DivergenceError, match="'p'"):
            adam_step([("p", p)], {"p": np.array([np.inf, 0.0], dtype=np.float32)}, state)
        assert state.t == 1

    def test_weight_decay_contributes(self):
        p = Tensor(np.array([2.0], dtype=np.float32), requires_grad=True)
        state = AdamState(lr=0.001, weight_decay=0.5)
        adam_step([("p", p)], {"p": np.zeros(1, dtype=np.float32)}, state)
        assert p.data[0] < 2.0

    def test_finite_updates_on_finite_inputs(self, rng):
        p = Tensor(rng.normal(size=(4, 4)).astype(np.float32), requires_grad=True)
        state = AdamState(lr=0.01)
        for _ in range(5):
            adam_step([("p", p)], {"p": rng.normal(size=(4, 4)).astype(np.float32)}, state)
            assert np.isfinite(p.data).all()

    def test_state_array_round_trip(self, rng):
        p = Tensor(rng.normal(size=(2, 3)).astype(np.float32), requires_grad=True)
        state = AdamState(lr=0.01)
        for _ in range(3):
            adam_step([("p", p)], {"p": rng.normal(size=(2, 3)).astype(np.float32)}, state)
        restored = adam_state_from_arrays(adam_state_arrays(state), lr=0.01)
        assert restored.t == state.t
        np.testing.assert_array_equal(restored.m["p"], state.m["p"])
        np.testing.assert_array_equal(restored.v["p"], state.v["p"])

    def test_state_arrays_share_the_float32_moments(self, rng):
        params = [(name, Tensor(rng.normal(size=shape).astype(np.float32), requires_grad=True))
                  for name, shape in (("a", (2, 3)), ("b", (5,)))]
        state = AdamState(lr=0.01)
        adam_step(params, {name: rng.normal(size=p.shape).astype(np.float32)
                           for name, p in params}, state)
        arrays = adam_state_arrays(state)
        for moments, kind in ((state.m, "m"), (state.v, "v")):
            for name, arr in moments.items():
                assert np.shares_memory(arrays[f"adam.{kind}.{name}"], arr)
        assert len(arrays) == 1 + 2 * len(params)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("weight_decay", [0.0, 1.5e-4])
    def test_bit_identical_to_whole_array_formula(self, dtype, weight_decay):
        # sizes straddle the chunk edges
        assert verify.adam_mismatches(dtype, weight_decay) == 0

    def test_non_contiguous_and_read_only_parameters_update(self, rng):
        w = rng.normal(size=(4, 3))
        raw = rng.normal(size=7).astype(np.float32).tobytes()

        def make():
            return [("t", Tensor(w.copy().T)),
                    ("ro", Tensor(np.frombuffer(raw, dtype=np.float32)))]

        fast, slow = make(), make()
        assert not fast[0][1].data.flags.c_contiguous
        assert not fast[1][1].data.flags.writeable
        fast_state, slow_state = AdamState(lr=0.01), AdamState(lr=0.01)
        for _ in range(3):
            grads = {"t": rng.normal(size=(3, 4)),
                     "ro": rng.normal(size=7).astype(np.float32)}
            adam_step(fast, grads, fast_state)
            reference.adam_step_naive(slow, grads, slow_state)
        initial = {"t": w.T, "ro": np.frombuffer(raw, dtype=np.float32)}
        for (name, p), (_, q) in zip(fast, slow):
            assert not np.array_equal(p.data, initial[name]), name
            np.testing.assert_array_equal(p.data, q.data, err_msg=name)
            np.testing.assert_array_equal(fast_state.m[name], slow_state.m[name])
            np.testing.assert_array_equal(fast_state.v[name], slow_state.v[name])

    def test_second_step_holds_no_whole_array_temporaries(self, rng):
        p = Tensor(rng.normal(size=1 << 20).astype(np.float32), requires_grad=True)
        g = rng.normal(size=1 << 20).astype(np.float32)
        state = AdamState()
        adam_step([("p", p)], {"p": g}, state)  # allocates the moments
        gc.collect()
        tracemalloc.start()
        try:
            adam_step([("p", p)], {"p": g}, state)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.5 * p.data.nbytes, peak

    def test_misshapen_gradient_rejects_whole_step(self):
        # a missing gradient, None or an absent key, is rejected the same way
        a_grad = np.ones(2, dtype=np.float32)
        for grads in ({"a": a_grad, "b": np.ones(4, dtype=np.float32)},
                      {"a": a_grad, "b": None}, {"a": a_grad}):
            a = Tensor(np.ones(2, dtype=np.float32), requires_grad=True)
            b = Tensor(np.ones(3, dtype=np.float32), requires_grad=True)
            state = AdamState()
            with pytest.raises(ValueError, match="'b'"):
                adam_step([("a", a), ("b", b)], grads, state)
            assert state.t == 0 and state.m == {} and state.v == {}, grads
            np.testing.assert_array_equal(a.data, np.ones(2))
            np.testing.assert_array_equal(b.data, np.ones(3))


class TestAccumulation:
    def make_batches(self, net, ds, indices, micro):
        return [stack_samples([ds[i] for i in indices[lo:lo + micro]], dtype=net.dtype)
                for lo in range(0, len(indices), micro)]

    def test_g1_equals_plain_step(self):
        net = toy_net(dtype=np.float64)
        ds = toy_dataset(4)
        batches = self.make_batches(net, ds, [0, 1], 2)
        grads, _ = accumulate_gradients(net, batches)
        net.zero_grad()
        images, mask = batches[0]
        net.loss(net.forward(images), mask).backward()
        for name, p in net.named_parameters():
            np.testing.assert_allclose(grads[name], p.grad, rtol=1e-12, atol=0)

    def test_g2_equals_concatenated_batch(self):
        net = toy_net(dtype=np.float64)
        ds = toy_dataset(4)
        micro = self.make_batches(net, ds, [0, 1, 2, 3], 2)
        grads_acc, _ = accumulate_gradients(net, micro)
        big = self.make_batches(net, ds, [0, 1, 2, 3], 4)
        grads_big, _ = accumulate_gradients(net, big)
        for name in grads_big:
            err = reference.relative_error(grads_acc[name], grads_big[name])
            assert err < 1e-6, name

    def test_duplicated_micro_batch_equals_single(self):
        net = toy_net(dtype=np.float64)
        ds = toy_dataset(4)
        one = self.make_batches(net, ds, [0, 1], 2)
        twice, _ = accumulate_gradients(net, one + one)
        once, _ = accumulate_gradients(net, one)
        for name in once:
            np.testing.assert_allclose(twice[name], once[name], rtol=1e-9)


    def test_peak_memory_independent_of_micro_batch_count(self):
        # configs/toy.json shape: a consumed tape frees each micro-batch's
        # graph during its backward, so the next forward starts from nothing
        net = toy_net(encoder_channels=[8, 16, 32], k=10, input_size=64)
        ds = toy_dataset(8, size=64)
        batches = self.make_batches(net, ds, list(range(8)), 2)

        def traced_peak(micro_batches):
            net.zero_grad()
            gc.collect()
            tracemalloc.start()
            try:
                accumulate_gradients(net, micro_batches)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        one, four = traced_peak(batches[:1]), traced_peak(batches)
        assert four <= 1.10 * one, (one, four)

class TestMetrics:
    def test_perfect_prediction(self, rng):
        mask = (rng.uniform(size=(1, 2, 6, 6)) > 0.4).astype(np.float64)
        report = compute_metrics(mask.copy(), mask)
        for c in report.channels:
            assert c.dsc == c.ppv == c.sensitivity == 1.0

    def test_disjoint_prediction(self):
        mask = np.zeros((1, 2, 4, 4))
        mask[:, :, :2] = 1.0
        prob = np.zeros((1, 2, 4, 4))
        prob[:, :, 2:] = 1.0
        report = compute_metrics(prob, mask)
        for c in report.channels:
            assert c.dsc == c.ppv == c.sensitivity == 0.0

    def test_half_overlap_counts(self):
        mask = np.zeros((1, 1, 4, 4))
        mask[0, 0, 0, :4] = 1.0
        prob = np.zeros((1, 1, 4, 4))
        prob[0, 0, 0, 2:] = 1.0
        prob[0, 0, 1, :2] = 1.0
        report = compute_metrics(prob, mask)
        c = report.channels[0]
        assert (c.tp, c.fp, c.fn) == (2, 2, 2)
        assert c.dsc == 0.5 and c.ppv == 0.5 and c.sensitivity == 0.5

    def test_empty_conventions(self):
        empty = metrics_from_counts([0], [0], [0], [16])
        assert empty.channels[0].dsc == 1.0
        one_sided = metrics_from_counts([0], [0], [4], [12])
        assert one_sided.channels[0].dsc == 0.0
        assert one_sided.channels[0].ppv == 0.0
        pred_only = metrics_from_counts([0], [4], [0], [12])
        assert pred_only.channels[0].sensitivity == 0.0

    def test_threshold_validation(self, rng):
        prob = rng.uniform(size=(1, 1, 2, 2))
        mask = np.zeros((1, 1, 2, 2))
        with pytest.raises(ValueError, match="threshold"):
            compute_metrics(prob, mask, threshold=1.5)

    def test_nan_probabilities_rejected(self):
        # NaN compares false both ways, so it must not slip past the range check
        mask = np.zeros((1, 2, 4, 4))
        with pytest.raises(ValueError, match=r"probabilities must lie in \[0, 1\]"):
            compute_metrics(np.full((1, 2, 4, 4), np.nan), mask)

    def test_matches_naive_counting(self, rng):
        for _ in range(20):
            prob = rng.uniform(size=(2, 2, 5, 5))
            mask = (rng.uniform(size=(2, 2, 5, 5)) > rng.uniform(0.1, 0.9)).astype(np.float64)
            report = compute_metrics(prob, mask)
            for got, ref in zip(report.channels, reference.metrics_naive(prob, mask)):
                assert (got.tp, got.fp, got.fn, got.tn) == (
                    ref["tp"], ref["fp"], ref["fn"], ref["tn"])

    def test_counts_partition_pixels(self, rng):
        prob = rng.uniform(size=(3, 2, 4, 4))
        mask = (rng.uniform(size=(3, 2, 4, 4)) > 0.5).astype(np.float64)
        report = compute_metrics(prob, mask)
        for c in report.channels:
            assert c.tp + c.fp + c.fn + c.tn == 3 * 16

    def test_dsc_is_harmonic_mean(self, rng):
        for _ in range(30):
            prob = rng.uniform(size=(1, 2, 6, 6))
            mask = (rng.uniform(size=(1, 2, 6, 6)) > 0.5).astype(np.float64)
            for c in compute_metrics(prob, mask).channels:
                if c.ppv + c.sensitivity > 0:
                    h = 2 * c.ppv * c.sensitivity / (c.ppv + c.sensitivity)
                    np.testing.assert_allclose(c.dsc, h, rtol=1e-12)

    def test_evaluate_accumulates_like_one_batch(self):
        net = toy_net()
        ds = toy_dataset(6)
        split = evaluate(net, ds, micro_batch_size=2)
        from omeganet.tensor import no_grad, sigmoid
        images, mask = stack_samples([ds[i] for i in range(6)])
        with no_grad():
            prob = sigmoid(net.forward(images).main_logits)
        whole = compute_metrics(prob.data, mask.data)
        for a, b in zip(split.channels, whole.channels):
            assert (a.tp, a.fp, a.fn, a.tn) == (b.tp, b.fp, b.fn, b.tn)


class TestTrainLoop:
    def test_package_root_yields_the_module(self):
        assert isinstance(train_module, types.ModuleType)
        assert train_module.train is train

    def test_zero_epochs_changes_nothing(self):
        net = toy_net()
        before = {n: p.data.copy() for n, p in net.named_parameters()}
        history = train(net, toy_dataset(8), TrainLoopConfig(epochs=0, micro_batch_size=2,
                                                             accumulation_steps=2, seed=0))
        assert history == []
        for n, p in net.named_parameters():
            np.testing.assert_array_equal(p.data, before[n])

    def test_same_seed_identical_histories(self):
        cfg = TrainLoopConfig(epochs=2, micro_batch_size=2, accumulation_steps=2,
                              eval_interval=2, seed=5)
        h1 = train(toy_net(seed=1), toy_dataset(8), cfg, adam=AdamState(lr=1e-3))
        h2 = train(toy_net(seed=1), toy_dataset(8), cfg, adam=AdamState(lr=1e-3))
        assert [e.loss for e in h1] == [e.loss for e in h2]

    def test_losses_finite_and_logged_per_step(self):
        cfg = TrainLoopConfig(epochs=2, micro_batch_size=2, accumulation_steps=2,
                              eval_interval=100, seed=0)
        history = train(toy_net(), toy_dataset(8), cfg, adam=AdamState(lr=1e-3))
        assert [e.step for e in history] == [1, 2, 3, 4]
        assert all(np.isfinite(e.loss) for e in history)

    def test_divergence_aborts_and_keeps_last_checkpoint(self, tmp_path):
        net = toy_net()
        ds = toy_dataset(8)
        ckpt = tmp_path / "ck.otf"
        cfg = TrainLoopConfig(epochs=2, micro_batch_size=2, accumulation_steps=2,
                              eval_interval=1, seed=0)
        adam = AdamState(lr=1e-3)
        # first epoch trains fine and writes checkpoints
        train(net, ds, TrainLoopConfig(epochs=1, micro_batch_size=2, accumulation_steps=2,
                                       eval_interval=1, seed=0), adam=adam,
              checkpoint_path=ckpt)
        good = ckpt.read_bytes()
        # poison one weight so the next forward overflows float32
        net.encoder[0].conv1.weight.data[:] = 1e38
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(DivergenceError):
                train(net, ds, cfg, adam=adam, checkpoint_path=ckpt)
        assert ckpt.read_bytes() == good

    def test_nan_gradient_at_step_k_keeps_state_and_last_eval_checkpoint(
            self, tmp_path, monkeypatch):
        net, ds, ckpt = toy_net(), toy_dataset(8), tmp_path / "ck.otf"
        # 2 steps per epoch; checkpoints at steps 2 and 4, the NaN arrives at step 5
        cfg = TrainLoopConfig(epochs=3, micro_batch_size=2, accumulation_steps=2,
                              eval_interval=2, seed=0)
        k, adam = 5, AdamState(lr=1e-3)
        accumulate = train_module.accumulate_gradients
        before = {}

        def poisoned(net_, micro_batches):
            grads, loss = accumulate(net_, micro_batches)
            if adam.t == k - 1:
                before["params"] = {n: p.data.copy() for n, p in net_.named_parameters()}
                before["m"] = {n: a.copy() for n, a in adam.m.items()}
                before["v"] = {n: a.copy() for n, a in adam.v.items()}
                save_checkpoint(net_, tmp_path / "before.otf",
                                extra=adam_state_arrays(adam))
                grads["msc.2.conv1.weight"].flat[3] = np.nan
            return grads, loss

        monkeypatch.setattr(train_module, "accumulate_gradients", poisoned)
        with pytest.raises(DivergenceError, match="msc.2.conv1.weight"):
            train(net, ds, cfg, adam=adam, checkpoint_path=ckpt,
                  history_csv=tmp_path / "history.csv")
        assert adam.t == k - 1
        rows = (tmp_path / "history.csv").read_text().splitlines()[1:]
        assert [row.split(",")[0] for row in rows] == ["1", "2", "3", "4"]
        for name, p in net.named_parameters():
            assert p.data.tobytes() == before["params"][name].tobytes(), name
        for moments, saved in ((adam.m, before["m"]), (adam.v, before["v"])):
            assert moments.keys() == saved.keys()
            for name, arr in moments.items():
                assert arr.tobytes() == saved[name].tobytes(), name
        # the step-4 checkpoint holds exactly the state the failed step started from
        assert ckpt.read_bytes() == (tmp_path / "before.otf").read_bytes()

    def test_dataset_smaller_than_effective_batch_rejected(self):
        with pytest.raises(ValueError, match="effective"):
            train(toy_net(), toy_dataset(3), TrainLoopConfig(
                epochs=1, micro_batch_size=2, accumulation_steps=2, seed=0))

    def test_resume_reproduces_straight_run(self, tmp_path):
        cfg2 = TrainLoopConfig(epochs=2, micro_batch_size=2, accumulation_steps=2,
                               eval_interval=10, seed=3)
        straight_net = toy_net(seed=4)
        straight_hist = train(straight_net, toy_dataset(8), cfg2, adam=AdamState(lr=1e-3))

        half_net = toy_net(seed=4)
        adam = AdamState(lr=1e-3)
        cfg1 = TrainLoopConfig(epochs=1, micro_batch_size=2, accumulation_steps=2,
                               eval_interval=10, seed=3)
        first = train(half_net, toy_dataset(8), cfg1, adam=adam)
        ckpt = tmp_path / "resume.otf"
        save_checkpoint(half_net, ckpt, extra=adam_state_arrays(adam))

        resumed_net, extra = build_from_checkpoint(ckpt)
        resumed_adam = adam_state_from_arrays(extra, lr=1e-3)
        second = train(resumed_net, toy_dataset(8), cfg2, adam=resumed_adam)

        assert [e.loss for e in first + second] == [e.loss for e in straight_hist]
        for (n, a), (_, b) in zip(straight_net.named_parameters(),
                                  resumed_net.named_parameters()):
            np.testing.assert_array_equal(a.data, b.data, err_msg=n)

    def test_history_csv_round_trip(self, tmp_path):
        cfg = TrainLoopConfig(epochs=2, micro_batch_size=2, accumulation_steps=2,
                              eval_interval=2, seed=0)
        path = tmp_path / "hist.csv"
        history = train(toy_net(), toy_dataset(8), cfg, adam=AdamState(lr=1e-3),
                        history_csv=path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "step,loss,dsc_0,ppv_0,sens_0,dsc_1,ppv_1,sens_1"
        assert len(lines) == 1 + len(history)
        # eval rows carry metrics, the others leave them blank
        assert lines[1].endswith(",,,,,")
        assert not lines[2].endswith(",,,,,")

    def test_no_history_csv_writes_no_file(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg = TrainLoopConfig(epochs=1, micro_batch_size=2, accumulation_steps=2,
                              eval_interval=1, seed=0)
        train(toy_net(), toy_dataset(8), cfg, adam=AdamState(lr=1e-3),
              checkpoint_path=tmp_path / "ck.otf")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["ck.otf"]

    @pytest.mark.parametrize("before", ["full", "none", "foreign"])
    def test_resume_keeps_history_rows_up_to_its_step(self, tmp_path, before):
        # a resume at step 2 keeps rows 1-2 of a history already at the path
        # and appends rows 3-4; a file with another header keeps nothing
        cfg = TrainLoopConfig(epochs=2, micro_batch_size=2, accumulation_steps=2,
                              eval_interval=1, seed=3)
        straight_csv = tmp_path / "straight.csv"
        train(toy_net(seed=4), toy_dataset(8), cfg, adam=AdamState(lr=1e-3),
              history_csv=straight_csv)
        straight = straight_csv.read_bytes()
        half_net, adam = toy_net(seed=4), AdamState(lr=1e-3)
        train(half_net, toy_dataset(8), TrainLoopConfig(**{**vars(cfg), "epochs": 1}),
              adam=adam)
        assert adam.t == 2

        path = tmp_path / "resumed.csv"
        if before == "full":
            path.write_bytes(straight)
        elif before == "foreign":  # rows 1 and 2 under the eval table's header
            path.write_bytes(b"channel,dsc,ppv,sensitivity,tp,fp,fn,tn\r\n"
                             b"1,0.5,0.5,0.5,1,1,1,1\r\n2,0.5,0.5,0.5,1,1,1,1\r\n")
        train(half_net, toy_dataset(8), cfg, adam=adam, history_csv=path)
        lines = straight.splitlines(keepends=True)
        assert len(lines) == 1 + 4
        expected = straight if before == "full" else b"".join(lines[:1] + lines[3:])
        assert path.read_bytes() == expected

    def test_checkpoint_path_that_is_a_directory_fails_before_step_1(
            self, tmp_path, monkeypatch):
        accumulate, steps = train_module.accumulate_gradients, []

        def counted(net_, micro_batches):
            steps.append(micro_batches)
            return accumulate(net_, micro_batches)

        monkeypatch.setattr(train_module, "accumulate_gradients", counted)
        cfg = TrainLoopConfig(epochs=1, micro_batch_size=2, accumulation_steps=2,
                              eval_interval=2, seed=0)
        history = tmp_path / "history.csv"
        with pytest.raises(IsADirectoryError, match=re.escape(str(tmp_path))):
            train(toy_net(), toy_dataset(8), cfg, adam=AdamState(lr=1e-3),
                  checkpoint_path=tmp_path, history_csv=history)
        assert steps == [] and not history.exists()

    def test_history_is_fsynced_before_each_checkpoint(self, tmp_path, monkeypatch):
        # row appended, then the CSV fsynced, then the checkpoint that records it
        events = []
        write_row, fsync = train_module.write_history_row, train_module._fsync
        save = train_module.save_checkpoint
        history, ckpt = tmp_path / "history.csv", tmp_path / "ck.otf"

        def logged_row(path, entry, n_channels):
            write_row(path, entry, n_channels)
            events.append(("row", entry.step))

        def logged_fsync(path):
            fsync(path)
            events.append(("fsync", os.path.relpath(path, tmp_path)))

        def logged_save(net_, path, extra=None):
            save(net_, path, extra=extra)
            events.append(("checkpoint", int(extra["adam.t"][0])))

        monkeypatch.setattr(train_module, "write_history_row", logged_row)
        monkeypatch.setattr(train_module, "_fsync", logged_fsync)
        monkeypatch.setattr(train_module, "save_checkpoint", logged_save)
        cfg = TrainLoopConfig(epochs=2, micro_batch_size=2, accumulation_steps=2,
                              eval_interval=2, seed=0)
        train(toy_net(), toy_dataset(8), cfg, adam=AdamState(lr=1e-3),
              checkpoint_path=ckpt, history_csv=history)
        assert events == [
            ("fsync", "."),
            ("row", 1), ("row", 2), ("fsync", "history.csv"), ("checkpoint", 2),
            ("row", 3), ("row", 4), ("fsync", "history.csv"), ("checkpoint", 4),
        ]
