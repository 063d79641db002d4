"""CLI surface: flags, config precedence, exit codes, metrics/checkpoint
outputs. Runs against small synthetic IDX datasets on disk."""

import argparse
import dataclasses
import inspect
import os
import shutil
import signal
import string
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from conftest import save_with_fresh_adam

from biopc import dataio
from biopc import encodings as enc
from biopc.baseline import MLP
from biopc.cli import (
    EXIT_CONFIG,
    EXIT_DATA,
    EXIT_ENCODING_DOMAIN,
    EXIT_GRADCHECK,
    EXIT_INTERRUPT,
    EXIT_NON_FINITE,
    EXIT_OK,
    _describe_config,
    build_parser,
    main,
)
from biopc.config import _CHOICES, TrainConfig, merge_config, parse_config_file
from biopc.network import init_network
from biopc.training import GRADCHECK_BATCH, GRADCHECK_DIMS, METRICS_HEADER, run_gradcheck


def _train_args(fake_data_dir, out_dir, *extra):
    return ["train", "--data-dir", str(fake_data_dir), "--out-dir", str(out_dir),
            "--epochs", "1", "--n-updates", "3", *extra]


class TestTrainCommand:
    def test_writes_metrics_and_checkpoint(self, fake_data_dir, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(_train_args(fake_data_dir, out)) == EXIT_OK
        captured = capsys.readouterr().out
        assert "final test error" in captured
        metrics = (out / "metrics.csv").read_text().splitlines()
        assert metrics[0] == METRICS_HEADER
        assert len(metrics) == 3  # header + train row + test row
        assert (out / "model.pcck").is_file()

    def test_metrics_schema_stable(self, fake_data_dir, tmp_path):
        out = tmp_path / "run"
        main(_train_args(fake_data_dir, out, "--epochs", "2"))
        lines = (out / "metrics.csv").read_text().splitlines()
        assert lines[0] == "epoch,split,error,objective,seconds"
        rows = [line.split(",") for line in lines[1:]]
        assert [(r[0], r[1]) for r in rows] == [
            ("1", "train"), ("1", "test"), ("2", "train"), ("2", "test")]
        for r in rows:
            assert 0.0 <= float(r[2]) <= 1.0
            float(r[3]); float(r[4])  # parseable

    def test_determinism_same_seed(self, fake_data_dir, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert main(_train_args(fake_data_dir, out, "--seed", "5")) == EXIT_OK
            outs.append(out)
        strip = lambda p: [",".join(line.split(",")[:4])
                           for line in (p / "metrics.csv").read_text().splitlines()]
        assert strip(outs[0]) == strip(outs[1])
        assert (outs[0] / "model.pcck").read_bytes() == (outs[1] / "model.pcck").read_bytes()

    def test_config_file_and_flag_precedence(self, fake_data_dir, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("epochs = 9\nbatch-size = 32\nseed = 4\n")
        out = tmp_path / "run"
        code = main(["train", "--data-dir", str(fake_data_dir), "--out-dir", str(out),
                     "--config", str(cfg), "--epochs", "1", "--n-updates", "0"])
        assert code == EXIT_OK
        header = capsys.readouterr().out.splitlines()[0]
        assert "epochs=1" in header       # flag beats file
        assert "batch_size=32" in header  # file beats default (64)
        assert "seed=4" in header         # file beats default (0)
        lines = (out / "metrics.csv").read_text().splitlines()
        assert len(lines) == 3  # one epoch trained, not nine

    def test_invalid_combination_is_config_error(self, fake_data_dir, tmp_path, capsys):
        code = main(_train_args(fake_data_dir, tmp_path / "x",
                                "--encoding", "division",
                                "--positive-activities", "false"))
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "division" in err and "positive-activities" in err

    @pytest.mark.parametrize("extra,field", [
        (("--positive-activities", "true"), "positive_activities"),
        (("--feedback", "kp"), "feedback"),
        (("--encoding", "threshold"), "encoding"),
    ], ids=["positivity", "kp", "threshold"])
    def test_backprop_with_pc_structure_is_config_error(self, fake_data_dir, tmp_path, capsys,
                                                        extra, field):
        # backprop's structure is fixed; a PC-only setting would be dropped
        code = main(_train_args(fake_data_dir, tmp_path / "x", "--model", "bp", *extra))
        assert code == EXIT_CONFIG
        captured = capsys.readouterr()
        assert "config error" in captured.err and f"bp models take {field}=" in captured.err
        assert captured.out == ""
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("extra,field", [
        (("--bias", "nan"), "bias"),
        (("--encoding", "threshold", "--e-min", "nan"), "e_min"),
        (("--lr", "inf"), "lr"),
    ], ids=["bias-nan", "e_min-nan", "lr-inf"])
    def test_non_finite_value_is_config_error(self, fake_data_dir, tmp_path, capsys, extra, field):
        # caught before any training, not as a non-finite objective later
        code = main(_train_args(fake_data_dir, tmp_path / "x", *extra))
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "config error" in err and f"{field} must be" in err
        assert not (tmp_path / "x").exists()

    def test_non_utf8_config_is_config_error(self, fake_data_dir, tmp_path, capsys):
        # the byte sits in a comment, which is still decoded
        cfg = tmp_path / "latin1.cfg"
        cfg.write_bytes(b"epochs = 1  # caf\xe9\n")
        code = main(_train_args(fake_data_dir, tmp_path / "x", "--config", str(cfg)))
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "config error" in err and str(cfg) in err and "0xe9" in err
        assert not (tmp_path / "x").exists()

    def test_repeated_config_key_is_config_error(self, fake_data_dir, tmp_path, capsys):
        cfg = tmp_path / "twice.cfg"
        cfg.write_text("epochs = 1\nepochs = 3\n")
        code = main(_train_args(fake_data_dir, tmp_path / "x", "--config", str(cfg)))
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"config error: {cfg}:2: epochs is already set on line 1" in err
        assert "Traceback" not in err and not (tmp_path / "x").exists()

    def test_unknown_flag_is_config_error(self, capsys):
        assert main(["train", "--does-not-exist", "1"]) == EXIT_CONFIG
        assert "config error" in capsys.readouterr().err

    def test_flags_are_the_config_fields(self):
        # train takes every field, with no default of its own so that a
        # config file entry can stand; every other flag is a field with the
        # field's default and choices
        sub = next(a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        fields = {"--" + f.name.replace("_", "-"): f for f in dataclasses.fields(TrainConfig)}
        for command, others in (("train", {"--config"}), ("eval", {"--checkpoint", "--split"}),
                                ("gradcheck", set())):
            actions = {action.option_strings[0]: action
                       for action in sub.choices[command]._actions
                       if action.option_strings[0] not in others | {"-h"}}
            assert set(actions) <= set(fields)
            if command == "train":
                assert set(actions) == set(fields)
            for flag, action in actions.items():
                field = fields[flag]
                assert action.dest == field.name
                assert action.default == (None if command == "train" else field.default)
                assert action.choices == _CHOICES.get(field.name)

    def test_eval_splits_are_the_loader_splits(self):
        sub = next(a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        split = next(a for a in sub.choices["eval"]._actions if a.dest == "split")
        assert split.choices == tuple(dataio._SPLIT_FILES)

    @pytest.mark.parametrize("flag,value", [
        ("--epochs", "two"), ("--lr", "fast"), ("--positive-activities", "maybe"),
        ("--encoding", "other"), ("--hidden-activation", "relu"),
    ])
    def test_bad_flag_value_is_config_error(self, flag, value, capsys):
        assert main(["train", flag, value]) == EXIT_CONFIG
        assert "config error" in capsys.readouterr().err

    def test_encoding_domain_error_exit_code(self, fake_data_dir, tmp_path, capsys):
        # a threshold floor of 0 cannot represent the negative output errors
        # of the very first batch
        code = main(_train_args(fake_data_dir, tmp_path / "x",
                                "--encoding", "threshold", "--e-min", "0"))
        assert code == EXIT_ENCODING_DOMAIN
        err = capsys.readouterr().err
        assert "encoding domain error: epoch 1, batch 1, level 3:" in err
        assert "e_min=0.0" in err

    def test_non_finite_objective_exit_code(self, fake_data_dir, tmp_path, capsys):
        # the first Adam step moves every weight by about lr = 1e308, so the
        # second batch's products overflow to +-inf, which sum to NaN
        with np.errstate(all="ignore"):
            code = main(_train_args(fake_data_dir, tmp_path / "x", "--lr", "1e308"))
        assert code == EXIT_NON_FINITE
        assert "non-finite objective: epoch 1, batch 2: " in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_truncated_gzip_is_data_error(self, fake_data_dir, tmp_path, capsys):
        data = tmp_path / "data"
        shutil.copytree(fake_data_dir, data)
        gz = data / "mnist" / "t10k-images-idx3-ubyte.gz"
        gz.write_bytes(gz.read_bytes()[:-100])
        assert main(_train_args(data, tmp_path / "out")) == EXIT_DATA
        assert "t10k-images-idx3-ubyte.gz" in capsys.readouterr().err

    def test_directory_as_config_is_data_error(self, fake_data_dir, tmp_path, capsys):
        code = main(_train_args(fake_data_dir, tmp_path / "out", "--config", str(tmp_path)))
        assert code == EXIT_DATA
        assert "data error" in capsys.readouterr().err

    def test_out_dir_that_is_a_file_fails_before_training(self, fake_data_dir, tmp_path,
                                                         monkeypatch, capsys):
        from biopc import training
        monkeypatch.setattr(training, "_train_batch", None)  # a batch would raise TypeError
        taken = tmp_path / "taken"
        taken.write_text("not a directory")
        assert main(_train_args(fake_data_dir, taken)) == EXIT_DATA
        assert "data error" in capsys.readouterr().err
        assert taken.read_text() == "not a directory"

    def test_missing_data_is_data_error(self, tmp_path, capsys):
        code = main(["train", "--data-dir", str(tmp_path / "nowhere"),
                     "--out-dir", str(tmp_path / "out"), "--epochs", "1"])
        assert code == EXIT_DATA
        assert "data error" in capsys.readouterr().err


# Config-file values have no quoting: a path holding blanks, or a '#' right
# after one, cannot be written in one. A '#' anywhere else is part of the
# value, so the drawn paths hold '#' but no blank and never start with '#'
# (it would follow the blank after '=').
_PATHS = st.text(string.ascii_letters + string.digits + "/._-=#", min_size=1,
                 max_size=12).filter(lambda path: not path.startswith("#"))
_POSITIVE = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)


@st.composite
def finalized_configs(draw):
    fields = {name: draw(st.sampled_from(choices)) for name, choices in _CHOICES.items()}
    fields["positive_activities"] = draw(st.booleans())
    if enc.build(enc.ENCODINGS, fields["encoding"]).needs_positive:
        fields["positive_activities"] = True
    if fields["model"] == MLP.name:
        fields.update({name: getattr(value, "name", value)
                       for name, value in MLP.fixed_structure.items()})
    return TrainConfig(
        **fields, data_dir=draw(_PATHS), out_dir=draw(_PATHS),
        bias=draw(st.floats(min_value=0.0, allow_infinity=False)),
        epochs=draw(st.integers(1, 10**4)), batch_size=draw(st.integers(1, 10**4)),
        lr=draw(_POSITIVE), beta=draw(st.none() | st.floats(0.0, 1.0)),
        n_updates=draw(st.none() | st.integers(0, 100)),
        gamma=draw(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)),
        epsilon=draw(_POSITIVE), e_max=draw(_POSITIVE),
        e_min=draw(st.none() | st.floats(max_value=0.0, allow_infinity=False)),
        seed=draw(st.integers(0, 2**32 - 1)),
    ).finalize()


@given(finalized_configs())
@example(TrainConfig(out_dir="runs/exp#1").finalize())
def test_run_line_reads_back_as_the_config(tmp_path_factory, cfg):
    lines = [item.replace("=", " = ", 1) for item in _describe_config(cfg).split("  ")]
    path = tmp_path_factory.mktemp("runline") / "run.cfg"
    path.write_text("\n".join(lines) + "\n")
    assert merge_config(parse_config_file(path)).finalize() == cfg


class TestEvalCommand:
    def test_eval_matches_training_metrics_bit_exact(self, fake_data_dir, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(_train_args(fake_data_dir, out, "--seed", "3")) == EXIT_OK
        final_test = (out / "metrics.csv").read_text().splitlines()[-1].split(",")
        capsys.readouterr()
        code = main(["eval", "--checkpoint", str(out / "model.pcck"),
                     "--dataset", "mnist", "--data-dir", str(fake_data_dir)])
        assert code == EXIT_OK
        printed = capsys.readouterr().out
        assert f"error={final_test[2]}" in printed
        assert f"objective={final_test[3]}" in printed

    def test_eval_missing_checkpoint(self, fake_data_dir, capsys):
        code = main(["eval", "--checkpoint", "/nonexistent.pcck",
                     "--data-dir", str(fake_data_dir)])
        assert code == EXIT_DATA

    def test_eval_directory_as_checkpoint(self, fake_data_dir, tmp_path, capsys):
        code = main(["eval", "--checkpoint", str(tmp_path), "--data-dir", str(fake_data_dir)])
        assert code == EXIT_DATA
        assert "data error" in capsys.readouterr().err

    def test_eval_shape_mismatch_is_data_error(self, fake_data_dir, tmp_path, capsys):
        import numpy as np
        from biopc import dataio
        out = tmp_path / "run"
        assert main(_train_args(fake_data_dir, out)) == EXIT_OK
        # a 10x10-pixel dataset cannot feed a 784-input checkpoint
        small = tmp_path / "smalldata" / "mnist"
        small.mkdir(parents=True)
        rng = np.random.default_rng(0)
        dataio._write_idx(small / "t10k-images-idx3-ubyte", dataio.IMAGES_MAGIC,
                          rng.integers(0, 256, size=(6, 10, 10), dtype=np.uint8))
        dataio.write_idx_labels(small / "t10k-labels-idx1-ubyte", np.arange(6) % 10)
        capsys.readouterr()
        code = main(["eval", "--checkpoint", str(out / "model.pcck"),
                     "--dataset", "mnist", "--data-dir", str(tmp_path / "smalldata")])
        assert code == EXIT_DATA
        assert "data error" in capsys.readouterr().err

    def test_empty_split_is_data_error(self, fake_data_dir, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(_train_args(fake_data_dir, out)) == EXIT_OK
        empty = tmp_path / "empty" / "mnist"
        empty.mkdir(parents=True)
        dataio.write_idx_images(empty / "t10k-images-idx3-ubyte", np.zeros((0, 784)))
        dataio.write_idx_labels(empty / "t10k-labels-idx1-ubyte", np.zeros(0))
        capsys.readouterr()
        code = main(["eval", "--checkpoint", str(out / "model.pcck"),
                     "--data-dir", str(tmp_path / "empty")])
        assert code == EXIT_DATA
        assert "no samples" in capsys.readouterr().err

    @pytest.mark.parametrize("width", [5, 12])
    def test_output_level_unlike_the_classes_is_data_error(self, fake_data_dir, tmp_path,
                                                           width, capsys):
        path = tmp_path / "narrow.pcck"
        save_with_fresh_adam(path, init_network([784, width], seed=0))
        code = main(["eval", "--checkpoint", str(path), "--data-dir", str(fake_data_dir)])
        assert code == EXIT_DATA
        err = capsys.readouterr().err
        assert err.splitlines() == [f"data error: outputs have {width} rows, the labels "
                                    f"have {dataio.N_CLASSES} classes"]

    def test_untrained_network_near_chance(self, fake_data_dir, tmp_path, capsys):
        out = tmp_path / "run"
        # n-updates 0 with lr tiny: nearly untrained network
        assert main(_train_args(fake_data_dir, out, "--lr", "1e-12")) == EXIT_OK
        error = float((out / "metrics.csv").read_text().splitlines()[-1].split(",")[2])
        assert error == pytest.approx(0.9, abs=0.08)


class TestGradcheckCommand:
    @pytest.mark.parametrize("encoding", ["subtractive", "threshold", "division"])
    def test_passes(self, encoding, capsys):
        assert main(["gradcheck", "--encoding", encoding]) == EXIT_OK
        out = capsys.readouterr().out
        assert "PASS" in out
        assert "max rel err" in out

    @pytest.mark.parametrize("hidden", ["sigmoid", "tanh"])
    @pytest.mark.parametrize("feedback", ["transpose", "random", "kp"])
    @pytest.mark.parametrize("encoding", ["subtractive", "threshold", "division"])
    def test_every_combination_passes(self, encoding, feedback, hidden, capsys):
        # division with tanh needs the larger hidden shift to keep its
        # predictions non-negative
        assert main(["gradcheck", "--encoding", encoding, "--feedback", feedback,
                     "--hidden-activation", hidden]) == EXIT_OK
        assert "PASS" in capsys.readouterr().out

    @pytest.mark.parametrize("feedback", ["random", "kp"])
    def test_rectified_zero_activity_passes(self, feedback, capsys):
        # seed 33 leaves a rectified hidden activity at exactly 0
        assert main(["gradcheck", "--encoding", "division", "--feedback", feedback,
                     "--hidden-activation", "tanh", "--seed", "33"]) == EXIT_OK
        assert "PASS" in capsys.readouterr().out

    @pytest.mark.parametrize("feedback", ["random", "kp"])
    def test_rounding_limited_layer_passes(self, feedback, capsys):
        # weights[1]'s gradients are all below 1e-5 at this seed, so the
        # difference's rounding reads above 1e-4 of them; the verdict line
        # names the bound that decided
        assert main(["gradcheck", "--encoding", "division", "--feedback", feedback,
                     "--hidden-activation", "tanh", "--seed", "189"]) == EXIT_OK
        verdict = capsys.readouterr().out.splitlines()[-1]
        assert verdict.startswith("PASS  closest to its bound: weights[1] max rel err 1.009e-04 "
                                  "<= resolution ")

    def test_header_names_the_checked_network(self, capsys):
        # the printed sizes are the constants run_gradcheck checks by default
        defaults = inspect.signature(run_gradcheck).parameters
        assert defaults["dims"].default is GRADCHECK_DIMS
        assert defaults["batch"].default is GRADCHECK_BATCH
        assert main(["gradcheck"]) == EXIT_OK
        header = capsys.readouterr().out.splitlines()[0]
        assert header.endswith(f" dims=[{','.join(map(str, GRADCHECK_DIMS))}] "
                               f"batch={GRADCHECK_BATCH}")

    def test_random_feedback_labeled_expected(self, capsys):
        assert main(["gradcheck", "--feedback", "random"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "approximate feedback (expected)" in out
        assert "PASS" in out

    def test_negative_seed_is_config_error(self, capsys):
        assert main(["gradcheck", "--seed", "-1"]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "config error" in err and "seed must be >= 0" in err

    def test_failure_exit_code(self, monkeypatch, capsys):
        from biopc import cli
        from biopc.training import GradcheckReport, LayerCheck

        def fake(*args, **kwargs):
            return GradcheckReport(
                checks=[LayerCheck("weights", 0, 0.5, gated=True, resolution=0.0)])

        monkeypatch.setattr(cli, "run_gradcheck", fake)
        assert main(["gradcheck"]) == EXIT_GRADCHECK
        assert "FAIL" in capsys.readouterr().out


class TestModuleEntry:
    """`python -m biopc` is the `biopc` command in a checkout: src/ on the
    path, no install."""

    @staticmethod
    def _env(**extra):
        src = str(Path(__file__).resolve().parent.parent / "src")
        path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
        return dict(os.environ, PYTHONPATH=path, **extra)

    def _run(self, *args, cwd):
        return subprocess.run([sys.executable, "-m", "biopc", *args], cwd=cwd, env=self._env(),
                              capture_output=True, text=True, timeout=120)

    def test_gradcheck_exits_0(self, tmp_path):
        proc = self._run("gradcheck", cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert "PASS" in proc.stdout

    def test_eval_on_a_missing_checkpoint_exits_2(self, tmp_path):
        proc = self._run("eval", "--checkpoint", str(tmp_path / "missing.pcck"),
                         "--data-dir", str(tmp_path), cwd=tmp_path)
        assert proc.returncode == 2
        assert proc.stderr.startswith("data error")

    def test_ctrl_c_exits_130_without_a_traceback(self, fake_data_dir, tmp_path):
        out = tmp_path / "runs" / "pc"
        proc = subprocess.Popen([sys.executable, "-m", "biopc",
                                 *_train_args(fake_data_dir, out, "--epochs", "1000")],
                                cwd=tmp_path, env=self._env(PYTHONUNBUFFERED="1"),
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        try:
            started = any(line.startswith("epoch   1 ") for line in proc.stdout)
            proc.send_signal(signal.SIGINT)
            _, err = proc.communicate(timeout=60)
        finally:
            proc.kill()
            proc.wait()
        assert started and proc.returncode == EXIT_INTERRUPT, err
        assert err == "interrupted\n"
        # train removes the directories it made for an unfinished run
        assert not (tmp_path / "runs").exists()
