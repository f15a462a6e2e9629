"""End-to-end command-line behavior: exit codes, files, determinism."""
import json
import os
import signal
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from omeganet import cli as cli_module
from omeganet import reference
from omeganet import verify
from omeganet import train as train_module
from omeganet.cli import load_run_config, main
from omeganet.data import generate, read_otf, read_pgm, write_otf, SyntheticSpec
from omeganet.net import ModelConfig, OmegaNet, save_checkpoint
from omeganet.train import TrainLoopConfig


def make_config(tmp_path, **tweaks):
    cfg = {
        "model": {"depth": 3, "encoder_channels": [4, 8, 16], "out_channels": 2,
                  "k": 4, "lambda_s": 10.0, "lambda_a": 1.0, "input_size": 16},
        "train": {"epochs": 2, "micro_batch_size": 2, "accumulation_steps": 2,
                  "eval_interval": 2, "threshold": 0.5, "seed": 0,
                  "lr": 0.001, "weight_decay": 0.00015},
        "data": {"image_size": 16, "n_samples": 12, "noise_sigma": 0.05, "seed": 2},
        "paths": {"data_dir": str(tmp_path / "data"),
                  "checkpoint": str(tmp_path / "ckpt.otf"),
                  "metrics_csv": str(tmp_path / "metrics.csv")},
    }
    for dotted, value in tweaks.items():
        section, key = dotted.split(".")
        cfg[section][key] = value
    path = tmp_path / "run.json"
    path.write_text(json.dumps(cfg))
    return path, cfg


def tree_bytes(root):
    return {str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


class TestGenData:
    def test_split_counts(self, tmp_path, capsys):
        config, _ = make_config(tmp_path)
        assert main(["gen-data", "--config", str(config)]) == 0
        out = capsys.readouterr().out
        assert "train=8" in out and "val=1" in out and "test=3" in out

    def test_rerun_identical_bytes(self, tmp_path):
        config, cfg = make_config(tmp_path)
        assert main(["gen-data", "--config", str(config)]) == 0
        first = tree_bytes(tmp_path / "data")
        assert main(["gen-data", "--config", str(config), "--force"]) == 0
        assert tree_bytes(tmp_path / "data") == first

    def test_existing_nonempty_dir_without_force(self, tmp_path):
        config, _ = make_config(tmp_path)
        assert main(["gen-data", "--config", str(config)]) == 0
        assert main(["gen-data", "--config", str(config)]) == 2

    def test_missing_config_names_path(self, tmp_path, capsys):
        missing = tmp_path / "nope.json"
        assert main(["gen-data", "--config", str(missing)]) == 2
        assert str(missing) in capsys.readouterr().err


class TestConfigValidation:
    def test_unknown_key_rejected(self, tmp_path, capsys):
        config, cfg = make_config(tmp_path)
        raw = json.loads(config.read_text())
        raw["train"]["bogus_knob"] = 1
        config.write_text(json.dumps(raw))
        assert main(["gen-data", "--config", str(config)]) == 2
        assert "bogus_knob" in capsys.readouterr().err

    def test_every_field_accepted_in_its_section(self, tmp_path):
        config, _ = make_config(tmp_path)
        raw = json.loads(config.read_text())
        raw["train"].update(asdict(TrainLoopConfig()))
        raw["data"].update(asdict(SyntheticSpec(image_size=16, n_samples=12)))
        config.write_text(json.dumps(raw))
        loaded = load_run_config(config)
        assert loaded.train == TrainLoopConfig()
        assert loaded.data == SyntheticSpec(image_size=16, n_samples=12)

    def test_invalid_json_rejected(self, tmp_path):
        config = tmp_path / "broken.json"
        config.write_text("{not json")
        assert main(["gen-data", "--config", str(config)]) == 2

    def test_missing_path_key_rejected(self, tmp_path):
        config, _ = make_config(tmp_path)
        raw = json.loads(config.read_text())
        del raw["paths"]["metrics_csv"]
        config.write_text(json.dumps(raw))
        assert main(["gen-data", "--config", str(config)]) == 2

    @pytest.mark.parametrize("command", ["gen-data", "train"])
    @pytest.mark.parametrize("dotted, value", [
        ("train.lr", [1]),
        ("train.lr", None),
        ("train.lr", float("nan")),
        ("data.noise_sigma", float("inf")),
        ("data.organ_radius", 0.2),
        ("train.epochs", 0.5),
        ("train.micro_batch_size", 1.5),
        ("train.seed", 1.5),
        ("model.mdsa_enabled", "false"),
        ("model.k", 2.5),
    ])
    def test_value_of_wrong_json_type_exits_2_naming_key(self, tmp_path, capsys,
                                                         command, dotted, value):
        config, _ = make_config(tmp_path, **{dotted: value})
        assert main([command, "--config", str(config)]) == 2
        assert dotted in capsys.readouterr().err

    def test_section_that_is_not_an_object_exits_2(self, tmp_path, capsys):
        config, _ = make_config(tmp_path)
        raw = json.loads(config.read_text())
        raw["train"] = list(raw["train"].items())
        config.write_text(json.dumps(raw))
        assert main(["gen-data", "--config", str(config)]) == 2
        assert "'train' section" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["gen-data", "train", "eval"])
    def test_out_channels_other_than_mask_channels_exit_2(self, tmp_path, capsys, command):
        config, _ = make_config(tmp_path, **{"model.out_channels": 3})
        assert main([command, "--config", str(config)]) == 2
        assert "'model.out_channels'" in capsys.readouterr().err
        assert not (tmp_path / "data").exists()

    @pytest.mark.parametrize("command", ["gen-data", "train", "eval"])
    def test_k_over_coarsest_attended_skip_exits_2_writing_nothing(self, tmp_path, capsys,
                                                                  command):
        config, _ = make_config(tmp_path, **{"model.k": 65})  # the 16x16 net's is 8x8
        assert main([command, "--config", str(config)]) == 2
        assert "k must be <= 64" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["run.json"]

    def test_k_over_coarsest_attended_skip_trains_without_mdsa(self, tmp_path):
        config, _ = make_config(tmp_path, **{"model.k": 65, "model.mdsa_enabled": False})
        assert main(["gen-data", "--config", str(config)]) == 0
        assert main(["train", "--config", str(config)]) == 0

    @pytest.mark.parametrize("key, other", [("metrics_csv", "checkpoint"),
                                            ("checkpoint", "data_dir"),
                                            ("data_dir", "metrics_csv")])
    def test_paths_naming_one_file_exit_2_naming_both(self, generated, capsys, key, other):
        config, cfg, tmp_path = generated
        before = tree_bytes(tmp_path)
        same = Path(cfg["paths"][other])  # the other key's file, spelled another way
        make_config(tmp_path, **{f"paths.{key}": str(same.parent / "sub" / ".." / same.name)})
        assert main(["train", "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert f"'paths.{key}'" in err and f"'paths.{other}'" in err, err
        del before["run.json"]  # rewritten with the clashing paths
        assert {k: v for k, v in tree_bytes(tmp_path).items() if k != "run.json"} == before

    @pytest.mark.parametrize("channels", [[0, 0, 0], [-1, -2, -4]])
    def test_channels_below_one_exit_2_naming_key(self, tmp_path, capsys, channels):
        config, _ = make_config(tmp_path, **{"model.encoder_channels": channels})
        assert main(["gen-data", "--config", str(config)]) == 2
        assert "encoder_channels" in capsys.readouterr().err


def truncated_checkpoint(cfg, tmp_path):
    """A checkpoint of the run config's model, cut off mid-payload."""
    path = tmp_path / "truncated.otf"
    save_checkpoint(OmegaNet(ModelConfig(**cfg["model"]), seed=0), path)
    blob = path.read_bytes()
    path.write_bytes(blob[:len(blob) // 2])
    return path


@pytest.fixture
def generated(tmp_path):
    config, cfg = make_config(tmp_path)
    assert main(["gen-data", "--config", str(config)]) == 0
    return config, cfg, tmp_path


class TestTrain:
    def test_zero_epochs_checkpoints_initial_model(self, generated):
        config, cfg, tmp_path = generated
        raw = json.loads(config.read_text())
        raw["train"]["epochs"] = 0
        config.write_text(json.dumps(raw))
        assert main(["train", "--config", str(config)]) == 0
        entries = read_otf(cfg["paths"]["checkpoint"])
        assert "config.json" in entries and "enc.1.conv1.weight" in entries
        csv_lines = (tmp_path / "metrics.csv").read_text().strip().splitlines()
        assert len(csv_lines) == 1  # header only

    def test_each_checkpoint_written_once(self, generated, monkeypatch):
        # 4 steps with an eval every 2: train() saves at steps 2 and 4, and the
        # command does not write the step-4 checkpoint again
        config, cfg, tmp_path = generated
        save, steps = train_module.save_checkpoint, []

        def counting_save(net, path, extra=None):
            steps.append(int(extra["adam.t"][0]))
            save(net, path, extra=extra)

        monkeypatch.setattr(train_module, "save_checkpoint", counting_save)
        assert main(["train", "--config", str(config)]) == 0
        assert steps == [2, 4]

    def test_train_writes_checkpoint_and_history(self, generated, capsys):
        config, cfg, tmp_path = generated
        assert main(["train", "--config", str(config)]) == 0
        out = capsys.readouterr().out
        assert "validation metrics" in out and "DSC" in out
        lines = (tmp_path / "metrics.csv").read_text().strip().splitlines()
        assert len(lines) == 1 + 4  # 2 epochs x 2 steps

    def test_divergence_exits_3_with_one_error_line_and_rows_before_it(self, generated,
                                                                        capsys):
        config, cfg, tmp_path = generated
        make_config(tmp_path, **{"train.lr": 1e30})  # step 1 is finite, step 2's loss is not
        with np.errstate(over="ignore", invalid="ignore"):
            assert main(["train", "--config", str(config)]) == 3
        err = capsys.readouterr().err
        errors = [line for line in err.splitlines() if line.startswith("error:")]
        assert len(errors) == 1 and "training diverged" in errors[0], err
        lines = (tmp_path / "metrics.csv").read_text().splitlines()
        assert lines[0].startswith("step,loss,") and [r.split(",")[0] for r in lines[1:]] == ["1"]

    def test_absurd_lr_diverges_with_exit_3(self, generated):
        config, cfg, tmp_path = generated
        raw = json.loads(config.read_text())
        raw["train"]["lr"] = 1e30
        config.write_text(json.dumps(raw))
        with np.errstate(over="ignore", invalid="ignore"):
            assert main(["train", "--config", str(config)]) == 3

    def test_resume_matches_straight_run(self, generated, monkeypatch):
        # resuming from every eval point, mid-epoch ones included, ends on the
        # straight run's checkpoint bytes; into the straight run's full CSV it
        # ends on that CSV's bytes, and into no CSV it writes the header and
        # the rows after the resumed step
        config, cfg, tmp_path = generated
        raw = json.loads(config.read_text())
        raw["train"]["eval_interval"] = 1  # 2 steps per epoch: steps 1 and 3 are mid-epoch
        config.write_text(json.dumps(raw))
        save, copies = train_module.save_checkpoint, []

        def save_and_copy(net, path, extra=None):
            save(net, path, extra=extra)
            copies.append(tmp_path / f"step{len(copies) + 1}.otf")
            copies[-1].write_bytes(Path(path).read_bytes())

        monkeypatch.setattr(train_module, "save_checkpoint", save_and_copy)
        assert main(["train", "--config", str(config)]) == 0
        monkeypatch.undo()
        straight_ckpt = (tmp_path / "ckpt.otf").read_bytes()
        straight_csv = (tmp_path / "metrics.csv").read_bytes()
        straight = straight_csv.decode().strip().splitlines()
        assert len(copies) == len(straight) - 1 == 4

        resumed_csv = tmp_path / "resumed.csv"
        raw["paths"]["checkpoint"] = str(tmp_path / "resumed.otf")
        raw["paths"]["metrics_csv"] = str(resumed_csv)
        config.write_text(json.dumps(raw))
        for step, copy in enumerate(copies, 1):
            for full in (True, False):
                resumed_csv.unlink(missing_ok=True)
                if full:
                    resumed_csv.write_bytes(straight_csv)
                assert main(["train", "--config", str(config), "--resume", str(copy)]) == 0
                assert (tmp_path / "resumed.otf").read_bytes() == straight_ckpt, step
                if full:
                    assert resumed_csv.read_bytes() == straight_csv, step
                else:
                    resumed = resumed_csv.read_text().strip().splitlines()
                    assert resumed == straight[:1] + straight[1 + step:], step

    def test_resume_with_other_model_config_exits_4(self, generated, capsys):
        config, cfg, tmp_path = generated
        assert main(["train", "--config", str(config)]) == 0
        ckpt = tmp_path / "ckpt.otf"
        before = ckpt.read_bytes()
        raw = json.loads(config.read_text())
        raw["model"]["k"] = 5
        config.write_text(json.dumps(raw))
        assert main(["train", "--config", str(config), "--resume", str(ckpt)]) == 4
        err = capsys.readouterr().err
        assert "'k': 4" in err and "'k': 5" in err
        assert ckpt.read_bytes() == before

    def test_nan_gradient_exits_3_keeping_last_eval_checkpoint(self, generated, monkeypatch):
        config, cfg, tmp_path = generated
        ckpt = tmp_path / "ckpt.otf"
        raw = json.loads(config.read_text())
        raw["train"]["epochs"] = 3  # 2 steps per epoch, checkpoints at 2 and 4
        config.write_text(json.dumps(raw))
        accumulate = train_module.accumulate_gradients
        calls, at_step_5 = [], {}

        def poisoned(net, micro_batches):
            calls.append(None)
            grads, loss = accumulate(net, micro_batches)
            if len(calls) == 5:
                at_step_5["ckpt"] = ckpt.read_bytes()
                grads["head.main.bias"][0] = np.nan
            return grads, loss

        monkeypatch.setattr(train_module, "accumulate_gradients", poisoned)
        assert main(["train", "--config", str(config)]) == 3
        assert ckpt.read_bytes() == at_step_5["ckpt"]
        lines = (tmp_path / "metrics.csv").read_text().strip().splitlines()
        assert [row.split(",")[0] for row in lines[1:]] == ["1", "2", "3", "4"]


# Runs a command, stopping at each kill point: the child names the point on
# its stdout and waits for one byte on its stdin before it goes on.  The
# points are every training step; in each checkpoint write, inside
# `write_otf` before its second, middle and last tensors, and after it
# returns; and each step's history CSV row.  The command's own output goes to stderr.
KILL_POINTS_CHILD = r"""
import os, sys
from omeganet import cli, net, train

points = os.fdopen(os.dup(1), "w")
sys.stdout = sys.stderr


def stop(point):
    points.write(point + "\n")
    points.flush()
    sys.stdin.buffer.read(1)


class Gate:
    # write_otf reaches a tensor's array only after writing every tensor before it
    def __init__(self, name, arr):
        self.name, self.arr = name, arr

    def __array__(self, dtype=None, copy=None):
        stop(f"write_otf before {self.name}")
        return self.arr


def gated_write_otf(path, entries, write_otf=net.write_otf):
    last = len(entries) - 1
    write_otf(path, [(name, Gate(name, arr) if i in (1, last // 2, last) else arr)
                     for i, (name, arr) in enumerate(entries)])
    stop("write_otf returned")


def gated(point, fn):
    def wrapper(*args, **kwargs):
        stop(point)
        return fn(*args, **kwargs)
    return wrapper


net.write_otf = gated_write_otf
train.accumulate_gradients = gated("step", train.accumulate_gradients)
train.write_history_row = gated("history row", train.write_history_row)
sys.exit(cli.main(sys.argv[1:]))
"""


def run_to_kill_point(argv, log, kill_at=None):
    """Run `omeganet <argv>` in a child, letting it past every kill point, or
    SIGKILLing it at point number ``kill_at``; returns (points reached, exit)."""
    src = str(Path(cli_module.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    with open(log, "wb") as stderr:
        child = subprocess.Popen([sys.executable, "-c", KILL_POINTS_CHILD, *argv], env=env,
                                 stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=stderr)
    reached = []
    try:
        for line in child.stdout:
            reached.append(line.decode().rstrip("\n"))
            if len(reached) == kill_at:
                child.send_signal(signal.SIGKILL)
                break
            child.stdin.write(b"g")
            child.stdin.flush()
        return reached, child.wait(timeout=60)
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()
        child.stdin.close()
        child.stdout.close()


def test_kill_anywhere_keeps_a_loadable_checkpoint_and_resume_replays_the_run(generated):
    """SIGKILL `train` at every kill point: the checkpoint is then absent or
    loads, a leftover `.tmp` is harmless, and resuming (or restarting, when no
    checkpoint exists) ends on the uninterrupted run's checkpoint and CSV bytes."""
    config, cfg, tmp_path = generated
    raw = json.loads(config.read_text())
    raw["train"]["eval_interval"] = 1  # a checkpoint at each of the 4 steps
    config.write_text(json.dumps(raw))
    ckpt, csv = Path(cfg["paths"]["checkpoint"]), Path(cfg["paths"]["metrics_csv"])
    tmp, log = Path(f"{ckpt}.tmp"), tmp_path / "child.err"
    argv = ["train", "--config", str(config)]

    points, code = run_to_kill_point(argv, log)
    assert code == 0, log.read_text()
    straight_ckpt, straight_csv = ckpt.read_bytes(), csv.read_bytes()
    assert len(straight_csv.splitlines()) == 1 + 4 and len(points) >= 20, points

    left_tmp = 0
    for k, point in enumerate(points, 1):
        for path in (ckpt, csv, tmp):
            path.unlink(missing_ok=True)
        reached, code = run_to_kill_point(argv, log, kill_at=k)
        assert (reached[-1], code) == (point, -signal.SIGKILL), (k, reached, log.read_text())
        left_tmp += tmp.exists()
        resume = []
        if ckpt.exists():
            assert main(["eval", "--config", str(config), "--checkpoint", str(ckpt),
                         "--out", str(tmp_path / "e.csv")]) == 0, (k, point)
            resume = ["--resume", str(ckpt)]
        assert main(argv + resume) == 0, (k, point)
        assert ckpt.read_bytes() == straight_ckpt, (k, point)
        assert csv.read_bytes() == straight_csv, (k, point)
        assert not tmp.exists(), (k, point)
    # exactly the kills inside a checkpoint write leave a `.tmp` behind
    assert left_tmp == sum(point.startswith("write_otf") for point in points) == 4 * 4


class TestEval:
    def test_eval_twice_identical_csv(self, generated):
        config, cfg, tmp_path = generated
        assert main(["train", "--config", str(config)]) == 0
        assert main(["eval", "--config", str(config), "--split", "val",
                     "--out", str(tmp_path / "e1.csv")]) == 0
        assert main(["eval", "--config", str(config), "--split", "val",
                     "--out", str(tmp_path / "e2.csv")]) == 0
        assert (tmp_path / "e1.csv").read_bytes() == (tmp_path / "e2.csv").read_bytes()

    def test_untrained_model_metrics_in_range(self, generated):
        config, cfg, tmp_path = generated
        raw = json.loads(config.read_text())
        raw["train"]["epochs"] = 0
        config.write_text(json.dumps(raw))
        assert main(["train", "--config", str(config)]) == 0
        assert main(["eval", "--config", str(config), "--split", "val"]) == 0
        rows = (tmp_path / "metrics.val.csv").read_text().strip().splitlines()[1:]
        for row in rows:
            dsc = float(row.split(",")[1])
            assert 0.0 <= dsc <= 1.0

    def test_default_out_lands_beside_the_history_and_keeps_it(self, generated):
        config, cfg, tmp_path = generated
        assert main(["train", "--config", str(config)]) == 0
        history = (tmp_path / "metrics.csv").read_bytes()
        assert main(["eval", "--config", str(config), "--split", "test"]) == 0
        assert (tmp_path / "metrics.csv").read_bytes() == history
        assert (tmp_path / "metrics.test.csv").read_text().startswith("channel,dsc,")

    def test_mismatched_checkpoint_exits_4_naming_tensor(self, generated, capsys):
        config, cfg, tmp_path = generated
        # the run config's architecture, but one tensor of the wrong shape
        save_checkpoint(OmegaNet(ModelConfig(**cfg["model"]), seed=0), tmp_path / "wrong.otf")
        entries = read_otf(tmp_path / "wrong.otf")
        entries["enc.1.conv1.weight"] = np.zeros((8, 1, 3, 3), dtype=np.float32)
        write_otf(tmp_path / "wrong.otf", entries)
        assert main(["eval", "--config", str(config),
                     "--checkpoint", str(tmp_path / "wrong.otf"),
                     "--split", "val"]) == 4
        assert "enc.1.conv1.weight" in capsys.readouterr().err

    def test_trainer_prefixed_tensor_exits_4_naming_it(self, generated, capsys):
        config, cfg, tmp_path = generated
        save_checkpoint(OmegaNet(ModelConfig(**cfg["model"]), seed=0), tmp_path / "stray.otf",
                        extra={"trainer.x": np.zeros(1, dtype=np.float32)})
        assert main(["eval", "--config", str(config),
                     "--checkpoint", str(tmp_path / "stray.otf"), "--split", "val"]) == 4
        assert "trainer.x" in capsys.readouterr().err

    @pytest.mark.parametrize("other", [dict(encoder_channels=[8, 16, 32]), dict(k=5)])
    def test_other_model_config_exits_4_naming_both(self, generated, capsys, other):
        # a different k leaves every tensor shape alone, so only the config tells
        config, cfg, tmp_path = generated
        model = ModelConfig(**{**cfg["model"], **other})
        save_checkpoint(OmegaNet(model, seed=0), tmp_path / "other.otf")
        assert main(["eval", "--config", str(config),
                     "--checkpoint", str(tmp_path / "other.otf"),
                     "--split", "val"]) == 4
        err = capsys.readouterr().err
        assert str(model.to_dict()) in err
        assert str(ModelConfig(**cfg["model"]).to_dict()) in err

    def test_truncated_checkpoint_exits_4(self, generated, capsys):
        config, cfg, tmp_path = generated
        ckpt = truncated_checkpoint(cfg, tmp_path)
        assert main(["eval", "--config", str(config), "--checkpoint", str(ckpt),
                     "--split", "val"]) == 4
        assert "truncated" in capsys.readouterr().err

    def test_perfect_oracle_checkpoint_scores_dsc_1(self, tmp_path, capsys):
        config, cfg = make_config(tmp_path)
        # one crafted sample with an all-positive mask, heads saturated toward it
        val = tmp_path / "data" / "val"
        val.mkdir(parents=True)
        image = generate(SyntheticSpec(image_size=16, n_samples=1, seed=0), 0).image
        write_otf(val / "0000.img.otf", {"image": image})
        write_otf(val / "0000.mask.otf", {"mask": np.ones((2, 16, 16), dtype=np.float32)})
        net = OmegaNet(ModelConfig(**cfg["model"]), seed=0)
        for _, p in net.named_parameters():
            p.data = np.zeros_like(p.data)
        net.head_main.bias.data = np.full(2, 20.0, dtype=np.float32)
        net.head_aux.bias.data = np.full(2, 20.0, dtype=np.float32)
        save_checkpoint(net, tmp_path / "oracle.otf")
        assert main(["eval", "--config", str(config),
                     "--checkpoint", str(tmp_path / "oracle.otf"),
                     "--split", "val", "--out", str(tmp_path / "o.csv")]) == 0
        rows = (tmp_path / "o.csv").read_text().strip().splitlines()[1:3]
        for row in rows:
            assert float(row.split(",")[1]) == 1.0


class TestPredict:
    @pytest.fixture
    def trained(self, generated):
        config, cfg, tmp_path = generated
        assert main(["train", "--config", str(config)]) == 0
        return config, cfg, tmp_path

    def test_outputs_and_determinism(self, trained):
        config, cfg, tmp_path = trained
        image = str(tmp_path / "data" / "train" / "0000.img.otf")
        for d in ("p1", "p2"):
            assert main(["predict", "--checkpoint", cfg["paths"]["checkpoint"],
                         "--image", image, "--out", str(tmp_path / d)]) == 0
        prob = read_otf(tmp_path / "p1" / "prob.otf")["prob"]
        assert prob.shape == (2, 16, 16)
        assert ((0.0 <= prob) & (prob <= 1.0)).all()
        assert ((tmp_path / "p1" / "prob.otf").read_bytes()
                == (tmp_path / "p2" / "prob.otf").read_bytes())
        assert ((tmp_path / "p1" / "mask.pgm").read_bytes()
                == (tmp_path / "p2" / "mask.pgm").read_bytes())

    def test_mask_consistent_with_threshold(self, trained):
        config, cfg, tmp_path = trained
        image = str(tmp_path / "data" / "train" / "0001.img.otf")
        assert main(["predict", "--checkpoint", cfg["paths"]["checkpoint"],
                     "--image", image, "--out", str(tmp_path / "p")]) == 0
        prob = read_otf(tmp_path / "p" / "prob.otf")["prob"]
        levels = read_pgm(tmp_path / "p" / "mask.pgm")
        organ, tumor = prob[0] > 0.5, prob[1] > 0.5
        expect = np.zeros_like(levels)
        expect[organ] = 128
        expect[tumor] = 255
        np.testing.assert_array_equal(levels, expect)

    def test_bad_threshold_exits_2_before_writing(self, generated, capsys):
        config, cfg, tmp_path = generated
        ckpt = cfg["paths"]["checkpoint"]
        save_checkpoint(OmegaNet(ModelConfig(**cfg["model"]), seed=0), ckpt)
        image = str(tmp_path / "data" / "train" / "0000.img.otf")
        assert main(["predict", "--checkpoint", ckpt, "--image", image,
                     "--out", str(tmp_path / "p"), "--threshold", "1.5"]) == 2
        assert "threshold" in capsys.readouterr().err
        assert not (tmp_path / "p").exists()

    def test_truncated_checkpoint_exits_4(self, generated, capsys):
        config, cfg, tmp_path = generated
        ckpt = truncated_checkpoint(cfg, tmp_path)
        image = str(tmp_path / "data" / "train" / "0000.img.otf")
        assert main(["predict", "--checkpoint", str(ckpt), "--image", image,
                     "--out", str(tmp_path / "p")]) == 4
        assert "truncated" in capsys.readouterr().err

    @pytest.mark.parametrize("shape", [(1, 32, 32), (2, 16, 16), (16, 16)],
                             ids=["32x32", "2-channels", "rank-2"])
    def test_wrong_size_exits_4(self, trained, capsys, shape):
        config, cfg, tmp_path = trained
        bad = tmp_path / "bad.otf"
        write_otf(bad, {"image": np.zeros(shape, dtype=np.float32)})
        assert main(["predict", "--checkpoint", cfg["paths"]["checkpoint"],
                     "--image", str(bad), "--out", str(tmp_path / "p")]) == 4
        assert "expected" in capsys.readouterr().err


def test_corrupt_checkpoint_exits_0_or_4(generated, capsys):
    """Seeded bit flips anywhere in a checkpoint, and truncations, through
    predict and eval: the file either still loads or the command exits 4."""
    config, cfg, tmp_path = generated
    good = tmp_path / "good.otf"
    save_checkpoint(OmegaNet(ModelConfig(**cfg["model"]), seed=0), good)
    blob = good.read_bytes()
    rng = np.random.default_rng(11)
    cases = []
    for bit in rng.integers(0, 8 * len(blob), size=64):
        flipped = bytearray(blob)
        flipped[bit // 8] ^= 1 << (bit % 8)
        cases.append((bytes(flipped), (0, 4)))
    for length in rng.integers(0, len(blob), size=16):
        cases.append((blob[:length], (4,)))
    ckpt = tmp_path / "corrupt.otf"
    image = str(tmp_path / "data" / "train" / "0000.img.otf")
    for data, allowed in cases:
        ckpt.write_bytes(data)
        with np.errstate(all="ignore"):
            codes = (
                main(["predict", "--checkpoint", str(ckpt), "--image", image,
                      "--out", str(tmp_path / "p")]),
                main(["eval", "--config", str(config), "--checkpoint", str(ckpt),
                      "--split", "val", "--out", str(tmp_path / "e.csv")]),
            )
        assert all(code in allowed for code in codes), (len(data), codes, capsys.readouterr().err)


@pytest.mark.parametrize("argv, tweak, culprit, reason", [
    ("gen-data --config {config} --out {file}", None, "{file}", "Not a directory"),
    ("train --config {config}", ("paths.metrics_csv", "{file}/m.csv"), "{file}", "File exists"),
    ("eval --config {config} --out {file}/e.csv", None, "{file}", "File exists"),
    ("predict --checkpoint {ckpt} --image {image} --out {file}/p", None, "{file}",
     "Not a directory"),
    ("train --config {config}", ("paths.checkpoint", "{dir}"), "{dir}", "Is a directory"),
    ("eval --config {config} --checkpoint {dir}", None, "{dir}", "Is a directory"),
    ("predict --checkpoint {ckpt} --image {dir} --out {tmp}/p", None, "{dir}",
     "Is a directory"),
], ids=["gen-data_out_file", "train_csv_under_file", "eval_out_under_file",
        "predict_out_under_file", "train_checkpoint_dir", "eval_checkpoint_dir",
        "predict_image_dir"])
def test_file_system_error_exits_2_naming_path(generated, capsys, argv, tweak, culprit, reason):
    config, cfg, tmp_path = generated
    (tmp_path / "file").write_text("")
    (tmp_path / "dir").mkdir()
    save_checkpoint(OmegaNet(ModelConfig(**cfg["model"]), seed=0), cfg["paths"]["checkpoint"])
    names = {"config": config, "file": tmp_path / "file", "dir": tmp_path / "dir",
             "ckpt": cfg["paths"]["checkpoint"], "tmp": tmp_path,
             "image": tmp_path / "data" / "train" / "0000.img.otf"}
    if tweak:
        make_config(tmp_path, **{tweak[0]: tweak[1].format(**names)})
    assert main([word.format(**names) for word in argv.split()]) == 2
    err = capsys.readouterr().err
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    assert len(errors) == 1 and "Traceback" not in err, err
    assert reason in errors[0] and culprit.format(**names) in errors[0], err


def loading_commands(config, tmp_path, ckpt):
    """Exit codes of predict, eval and train --resume, each loading ``ckpt``."""
    image = str(tmp_path / "data" / "train" / "0000.img.otf")
    with np.errstate(all="ignore"):
        return (
            main(["predict", "--checkpoint", str(ckpt), "--image", image,
                  "--out", str(tmp_path / "p")]),
            main(["eval", "--config", str(config), "--checkpoint", str(ckpt),
                  "--split", "val", "--out", str(tmp_path / "e.csv")]),
            main(["train", "--config", str(config), "--resume", str(ckpt)]),
        )


@pytest.mark.parametrize("key, value", [
    ("k", 2.5),
    ("out_channels", 2.0),
    ("encoder_channels", [4.0, 8.0, 16.0]),
    ("mdsa_enabled", "yes"),
    ("lambda_s", True),
])
def test_wrong_typed_checkpoint_config_exits_4_naming_key(generated, capsys, key, value):
    config, cfg, tmp_path = generated
    ckpt = tmp_path / "typed.otf"
    save_checkpoint(OmegaNet(ModelConfig(**cfg["model"]), seed=0), ckpt)
    entries = read_otf(ckpt)
    raw = json.dumps(dict(cfg["model"], **{key: value})).encode("utf-8")
    entries["config.json"] = np.frombuffer(raw, dtype=np.uint8).astype(np.float32)
    write_otf(ckpt, entries)
    assert loading_commands(config, tmp_path, ckpt) == (4, 4, 4)
    assert capsys.readouterr().err.count(f"'model.{key}'") == 3


def test_checkpoint_config_with_k_over_coarsest_attended_skip_exits_4(generated, capsys):
    config, cfg, tmp_path = generated
    ckpt = tmp_path / "k.otf"
    save_checkpoint(OmegaNet(ModelConfig(**cfg["model"]), seed=0), ckpt)
    entries = read_otf(ckpt)
    raw = json.dumps(dict(cfg["model"], k=65)).encode("utf-8")
    entries["config.json"] = np.frombuffer(raw, dtype=np.uint8).astype(np.float32)
    write_otf(ckpt, entries)
    assert loading_commands(config, tmp_path, ckpt) == (4, 4, 4)
    assert capsys.readouterr().err.count("corrupt config entry") == 3


@pytest.mark.parametrize("name, value", [
    ("adam.v.head.main.bias", None),  # leaves adam.m.head.main.bias without its partner
    ("adam.m.head.main.bias", [0.0]),  # the bias has 2 values
    ("adam.m.head.main.bias", [0.0, 0.0, 0.0]),
    ("adam.t", [-3.0]),
    ("adam.t", [1.5]),
    ("adam.m.bogus", [0.0, 0.0]),
], ids=["v_missing", "m_short", "m_long", "t_negative", "t_fraction", "m_of_no_parameter"])
def test_malformed_adam_state_exits_4_naming_tensor(generated, capsys, name, value):
    config, cfg, tmp_path = generated
    half = tmp_path / "half.json"  # stops after one of two epochs, so a resume trains
    half.write_text(json.dumps(dict(cfg, train=dict(cfg["train"], epochs=1))))
    assert main(["train", "--config", str(half)]) == 0
    entries = read_otf(cfg["paths"]["checkpoint"])
    if value is None:
        del entries[name]
    else:
        entries[name] = np.array(value, dtype=np.float32)
    ckpt = tmp_path / "adam.otf"
    write_otf(ckpt, entries)
    capsys.readouterr()
    assert loading_commands(config, tmp_path, ckpt) == (4, 4, 4)
    assert capsys.readouterr().err.count(repr(name)) == 3


class TestNonFinitePayload:
    @pytest.mark.parametrize("trained", [False, True], ids=["parameter", "adam"])
    def test_nan_or_inf_in_last_float_exits_4(self, generated, capsys, trained):
        config, cfg, tmp_path = generated
        if trained:  # the last tensor is then the Adam second moment of the last bias
            assert main(["train", "--config", str(config)]) == 0
            blob = (tmp_path / "ckpt.otf").read_bytes()
            name = "adam.v.head.main.bias"
        else:
            save_checkpoint(OmegaNet(ModelConfig(**cfg["model"]), seed=0), tmp_path / "good.otf")
            blob = (tmp_path / "good.otf").read_bytes()
            name = "head.main.bias"
        capsys.readouterr()
        ckpt = tmp_path / "poked.otf"
        for value in (np.nan, np.inf, -np.inf):
            ckpt.write_bytes(blob[:-4] + np.float32(value).tobytes())
            assert loading_commands(config, tmp_path, ckpt) == (4, 4, 4), value
            err = capsys.readouterr().err
            assert err.count(f"{name!r} holds a non-finite value") == 3, err

    def test_high_byte_flips_exit_4_exactly_when_non_finite(self, generated):
        config, cfg, tmp_path = generated
        net = OmegaNet(ModelConfig(**cfg["model"]), seed=0)
        # exponent 127, so flipping its top bit gives exponent 255: a NaN
        net.head_main.bias.data[-1] = 1.5
        save_checkpoint(net, tmp_path / "good.otf")
        blob = (tmp_path / "good.otf").read_bytes()
        ckpt = tmp_path / "flipped.otf"
        expected, got = [], []
        for bit in range(8):
            flipped = bytearray(blob)
            flipped[-1] ^= 1 << bit
            ckpt.write_bytes(bytes(flipped))
            finite = np.isfinite(np.frombuffer(bytes(flipped[-4:]), dtype="<f4")[0])
            expected.append((0, 0, 0) if finite else (4, 4, 4))
            got.append(loading_commands(config, tmp_path, ckpt))
        assert sorted(set(expected)) == [(0, 0, 0), (4, 4, 4)]
        assert got == expected


class TestNonFiniteImage:
    """An image with a NaN or an infinity is bad input: exit 2 naming the file."""

    @staticmethod
    def poison(path, value, name="image", everywhere=False):
        arr = read_otf(path)[name]
        arr[(...) if everywhere else (0, 3, 5)] = value
        write_otf(path, {name: arr})
        return str(path)

    @pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
    def test_predict_exits_2(self, generated, capsys, value):
        config, cfg, tmp_path = generated
        save_checkpoint(OmegaNet(ModelConfig(**cfg["model"]), seed=0), tmp_path / "ckpt.otf")
        image = self.poison(tmp_path / "data" / "train" / "0000.img.otf", value)
        assert main(["predict", "--checkpoint", str(tmp_path / "ckpt.otf"),
                     "--image", image, "--out", str(tmp_path / "p")]) == 2
        assert f"tensor 'image' in {image} holds a non-finite value" in capsys.readouterr().err
        assert not (tmp_path / "p").exists()

    def test_eval_exits_2(self, generated, capsys):
        config, cfg, tmp_path = generated
        save_checkpoint(OmegaNet(ModelConfig(**cfg["model"]), seed=0), tmp_path / "ckpt.otf")
        val = sorted((tmp_path / "data" / "val").glob("*.img.otf"))
        image = self.poison(val[0], np.nan, everywhere=True)
        assert main(["eval", "--config", str(config), "--split", "val"]) == 2
        assert f"tensor 'image' in {image} holds a non-finite value" in capsys.readouterr().err

    @pytest.mark.parametrize("kind,name", [("img", "image"), ("mask", "mask")])
    def test_train_exits_2(self, generated, capsys, kind, name):
        config, cfg, tmp_path = generated
        path = self.poison(tmp_path / "data" / "train" / f"0003.{kind}.otf", np.nan, name)
        assert main(["train", "--config", str(config)]) == 2
        assert f"tensor {name!r} in {path} holds a non-finite value" in capsys.readouterr().err


class TestMisnamedTensor:
    """An image or mask file without its expected tensor is bad input: exit 2
    naming the file and the tensor."""

    @staticmethod
    def rename(path, name, new_name):
        write_otf(path, {new_name: read_otf(path)[name]})
        return str(path)

    def test_predict_exits_2(self, generated, capsys):
        config, cfg, tmp_path = generated
        save_checkpoint(OmegaNet(ModelConfig(**cfg["model"]), seed=0), tmp_path / "ckpt.otf")
        image = self.rename(tmp_path / "data" / "train" / "0000.img.otf", "image", "img")
        assert main(["predict", "--checkpoint", str(tmp_path / "ckpt.otf"),
                     "--image", image, "--out", str(tmp_path / "p")]) == 2
        assert f"{image} holds no tensor named 'image'" in capsys.readouterr().err
        assert not (tmp_path / "p").exists()

    def test_eval_exits_2(self, generated, capsys):
        config, cfg, tmp_path = generated
        save_checkpoint(OmegaNet(ModelConfig(**cfg["model"]), seed=0), tmp_path / "ckpt.otf")
        val = sorted((tmp_path / "data" / "val").glob("*.img.otf"))
        image = self.rename(val[0], "image", "img")
        assert main(["eval", "--config", str(config), "--split", "val"]) == 2
        assert f"{image} holds no tensor named 'image'" in capsys.readouterr().err

    @pytest.mark.parametrize("kind,name", [("img", "image"), ("mask", "mask")])
    def test_train_exits_2(self, generated, capsys, kind, name):
        config, cfg, tmp_path = generated
        path = self.rename(tmp_path / "data" / "train" / f"0000.{kind}.otf", name, "x")
        assert main(["train", "--config", str(config)]) == 2
        assert f"{path} holds no tensor named {name!r}" in capsys.readouterr().err


def test_legacy_decoder_channels_not_reversed_exits_4(generated, capsys):
    config, cfg, tmp_path = generated
    ckpt = tmp_path / "legacy.otf"
    model = ModelConfig(**cfg["model"])
    save_checkpoint(OmegaNet(model, seed=0), ckpt)
    entries = read_otf(ckpt)
    legacy = dict(model.to_dict(), decoder_channels=[16, 4, 8])
    raw = json.dumps(legacy, sort_keys=True).encode("utf-8")
    entries["config.json"] = np.frombuffer(raw, dtype=np.uint8).astype(np.float32)
    write_otf(ckpt, entries)
    assert main(["eval", "--config", str(config), "--checkpoint", str(ckpt),
                 "--split", "val", "--out", str(tmp_path / "e.csv")]) == 4
    assert "reverse of encoder_channels" in capsys.readouterr().err


class TestVerifyCommand:
    def test_suites_return_the_pinned_rows(self, monkeypatch):
        # the end-to-end check takes a minute; its row is stubbed, not its place
        monkeypatch.setattr(verify, "end_to_end_grad_check", lambda: verify.CheckResult(
            "end_to_end", 0.0, verify.GRAD_TOL_END_TO_END))
        rows = {suite: [(r.name, r.tol) for r in fn()] for suite, fn in
                [("grad", verify.grad_suite), ("oracle", verify.oracle_suite),
                 ("shape", verify.shape_suite)]}
        blocks = ["conv2d", "conv2d_1x1", "conv2d_relu", "transposed_conv2d", "maxpool2d",
                  "adaptive_avg_pool", "softmax_rows", "dspa", "channel_attention", "cascade_msc",
                  "bce"]
        assert rows == {
            "grad": [(name, 1e-4) for name in blocks] + [("end_to_end", 1e-3)],
            "oracle": [("conv2d", 1e-10), ("conv2d_relu", 1e-10), ("conv2d_tiled", 0.0),
                       ("transposed_conv2d", 1e-10),
                       ("maxpool2d", 1e-10), ("softmax_rows", 1e-12), ("adaptive_avg_pool", 1e-10),
                       ("dspa", 1e-10), ("channel_attention", 1e-10), ("metrics", 0.0),
                       ("adam", 0.0), ("init", 0.0)],
            "shape": [("shapes_d3_s32", 0.0), ("shapes_d3_s64", 0.0), ("shapes_d5_s32", 0.0),
                      ("shapes_d5_s64", 0.0)],
        }

    def test_conv2d_relu_grad_row_stays_off_the_kink(self):
        # a step of h = 1e-3 in one operand moves a pre-activation by at most
        # h times the largest magnitude of the others (1 for the bias)
        rng = np.random.default_rng(41)  # the row's seed
        x, w, b = (rng.normal(size=s) for s in [(2, 3, 5, 5), (4, 3, 3, 3), (4,)])
        step = 1e-3 * max(np.abs(x).max(), np.abs(w).max(), 1.0)
        assert np.abs(reference.conv2d_naive(x, w, b, 1, 1, 1)).min() > 30 * step

    def test_shape_suite_passes(self, capsys):
        assert main(["verify", "--suite", "shape"]) == 0
        out = capsys.readouterr().out
        assert "[PASS] shape/shapes_d3_s32" in out
        assert "[PASS] shape/shapes_d5_s64" in out

    def test_stdout_is_identical_across_runs_and_holds_no_timing(self, capsys):
        outs = []
        for _ in range(2):
            assert main(["verify", "--suite", "shape"]) == 0
            captured = capsys.readouterr()
            assert "shape suite finished in" in captured.err
            outs.append(captured.out)
        assert outs[0] == outs[1]
        assert "finished" not in outs[0]
