"""CLI surface: flags, config precedence, exit codes, metrics/checkpoint
outputs. Runs against small synthetic IDX datasets on disk."""

import argparse
import dataclasses
import shutil

import numpy as np
import pytest

from biopc import dataio
from biopc.cli import (
    EXIT_CONFIG,
    EXIT_DATA,
    EXIT_ENCODING_DOMAIN,
    EXIT_GRADCHECK,
    EXIT_NON_FINITE,
    EXIT_OK,
    build_parser,
    main,
)
from biopc.config import TrainConfig
from biopc.training import METRICS_HEADER


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

    def test_unknown_flag_is_config_error(self, capsys):
        assert main(["train", "--does-not-exist", "1"]) == EXIT_CONFIG
        assert "config error" in capsys.readouterr().err

    def test_flags_are_the_config_fields(self):
        sub = next(a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        flags = {opt for action in sub.choices["train"]._actions
                 for opt in action.option_strings if opt.startswith("--")}
        fields = {"--" + f.name.replace("_", "-") for f in dataclasses.fields(TrainConfig)}
        assert flags == fields | {"--config", "--help"}

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
        dataio.write_idx_images(small / "t10k-images-idx3-ubyte",
                                rng.integers(0, 256, size=(6, 100), dtype=np.uint8),
                                rows=10, cols=10)
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
                checks=[LayerCheck("weights", 0, 0.5, gated=True)], threshold=1e-4)

        monkeypatch.setattr(cli, "run_gradcheck", fake)
        assert main(["gradcheck"]) == EXIT_GRADCHECK
        assert "FAIL" in capsys.readouterr().out
