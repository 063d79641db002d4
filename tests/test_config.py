"""Config defaults, file parsing, flag precedence and validation."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from biopc import encodings as enc
from biopc.baseline import MODELS
from biopc.config import ConfigError, TrainConfig, merge_config, parse_config_file
from biopc.experiments import make_config
from biopc.linalg import ActivationKind
from biopc.network import FEEDBACK_SCHEMES, init_network


class TestFinalize:
    def test_mnist_defaults(self):
        cfg = TrainConfig().finalize()
        assert cfg.beta == 0.1
        assert cfg.n_updates == 20
        assert cfg.epochs == 25
        assert cfg.batch_size == 64
        assert cfg.lr == 0.001
        assert cfg.e_min == -1.0
        assert cfg.e_max == 2.1

    def test_fashion_defaults(self):
        cfg = TrainConfig(dataset="fashion").finalize()
        assert cfg.beta == 0.025
        assert cfg.n_updates == 7

    def test_explicit_beta_survives(self):
        cfg = TrainConfig(dataset="fashion", beta=0.5, n_updates=3).finalize()
        assert cfg.beta == 0.5
        assert cfg.n_updates == 3

    def test_e_min_tracks_bias(self):
        cfg = TrainConfig(bias=0.25).finalize()
        assert cfg.e_min == -1.25

    def test_explicit_e_min_survives(self):
        cfg = TrainConfig(bias=0.25, e_min=-3.0).finalize()
        assert cfg.e_min == -3.0

    @pytest.mark.parametrize("field,value", [
        ("encoding", "division"), ("encoding", "threshold"), ("feedback", "kp"),
        ("feedback", "random"), ("positive_activities", True),
    ])
    def test_backprop_structure_is_fixed(self, field, value):
        overrides = {field: value}
        if value == "division":
            overrides["positive_activities"] = True
        with pytest.raises(ConfigError, match=f"bp models take {field}="):
            TrainConfig(model="bp", **overrides).finalize()
        assert TrainConfig(model="pc", **overrides).finalize().model == "pc"

    def test_division_requires_positivity(self):
        with pytest.raises(ConfigError, match="division.*positive-activities"):
            TrainConfig(encoding="division").finalize()
        cfg = TrainConfig(encoding="division", positive_activities=True).finalize()
        assert cfg.positive_activities

    @given(model=st.sampled_from(MODELS), encoding=st.sampled_from(enc.ENCODINGS),
           feedback=st.sampled_from(FEEDBACK_SCHEMES), act=st.sampled_from(ActivationKind),
           positive=st.booleans(),
           bias=st.sampled_from([-0.5, float("nan"), float("inf")]) | st.floats())
    def test_config_refuses_exactly_what_the_model_refuses(self, model, encoding, feedback,
                                                           act, positive, bias):
        # the config holds no structure rule of its own: it fails where the
        # model it describes cannot be built, and only there
        cfg = TrainConfig(model=model.name, encoding=encoding.name, feedback=feedback.name,
                          hidden_activation=act.value, positive_activities=positive, bias=bias)
        try:
            cfg.finalize()
            config_ok = True
        except ConfigError:
            config_ok = False
        try:
            init_network([4, 3], encoding=encoding(), feedback=feedback(), hidden_activation=act,
                         bias=bias, positive_activities=positive, model_class=model)
            model_ok = True
        except ValueError:
            model_ok = False
        assert config_ok == model_ok

    @pytest.mark.parametrize("field,value", [
        ("dataset", "cifar"),
        ("model", "cnn"),
        ("feedback", "mirror"),
        ("encoding", "other"),
        ("hidden_activation", "relu"),
        ("bias", -0.1),
        ("epochs", 0),
        ("batch_size", 0),
        ("lr", 0.0),
        ("beta", 1.5),
        ("n_updates", -1),
        ("gamma", 0.0),
        ("epsilon", 0.0),
        ("e_min", 0.5),
        ("e_max", -1.0),
        ("seed", -3),
        ("bias", float("nan")),
        ("bias", float("inf")),
        ("lr", float("inf")),
        ("lr", float("nan")),
        ("beta", float("nan")),
        ("gamma", float("nan")),
        ("epsilon", float("inf")),
        ("epsilon", float("nan")),
        ("e_min", float("nan")),
        ("e_min", float("-inf")),
        ("e_max", float("inf")),
        ("e_max", float("nan")),
    ])
    def test_rejects_bad_values(self, field, value):
        with pytest.raises(ConfigError):
            TrainConfig(**{field: value}).finalize()


class TestConfigFile:
    def test_parse_keys_values_comments(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(
            "# an experiment\n"
            "dataset = fashion\n"
            "batch-size = 32   # dashes work too\n"
            "positive_activities = true\n"
            "bias = 0.1\n"
            "\n"
            "n_updates = 5\n"
        )
        entries = parse_config_file(path)
        assert entries == {"dataset": "fashion", "batch_size": 32,
                           "positive_activities": True, "bias": 0.1, "n_updates": 5}

    def test_utf8_byte_order_mark_is_skipped(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_bytes(b"\xef\xbb\xbfepochs = 1\n")
        assert parse_config_file(path) == {"epochs": 1}

    def test_unknown_key(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("momentum = 0.9\n")
        with pytest.raises(ConfigError, match="momentum"):
            parse_config_file(path)

    def test_bad_value(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("epochs = soon\n")
        with pytest.raises(ConfigError, match="epochs"):
            parse_config_file(path)

    def test_missing_equals(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("epochs 3\n")
        with pytest.raises(ConfigError, match="key = value"):
            parse_config_file(path)

    @pytest.mark.parametrize("second", ["epochs = 3", "n-updates = 3"])
    def test_repeated_key(self, tmp_path, second):
        # the same field twice, in one spelling or in both
        field = second.split()[0].replace("-", "_")
        path = tmp_path / "run.cfg"
        path.write_text(f"{field} = 1\nseed = 2\n{second}\n")
        with pytest.raises(ConfigError, match=rf"run\.cfg:3: {field} is already set on line 1"):
            parse_config_file(path)


class TestPrecedence:
    def test_flag_beats_file_beats_default(self):
        file_entries = {"epochs": 7, "lr": 0.5, "dataset": "fashion"}
        flags = {"epochs": 3, "seed": 9, "lr": None}  # None means flag absent
        cfg = merge_config(file_entries, flags)
        assert cfg.epochs == 3        # flag over file
        assert cfg.lr == 0.5          # file over default
        assert cfg.dataset == "fashion"  # file over default
        assert cfg.seed == 9          # flag over default
        assert cfg.batch_size == 64   # untouched default

    def test_none_flags_do_not_mask_file(self):
        cfg = merge_config({"batch_size": 16}, {"batch_size": None})
        assert cfg.batch_size == 16

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigError):
            merge_config({"unknown_thing": 1}, None)

    def test_make_config_merges_as_the_cli_does(self):
        cfg = make_config("fashion", 4, dict(epochs=7, lr=0.5), epochs=3, lr=None)
        assert (cfg.dataset, cfg.seed, cfg.epochs, cfg.lr) == ("fashion", 4, 3, 0.5)
        with pytest.raises(ConfigError, match="unknown_thing"):
            make_config("mnist", 1, dict(unknown_thing=1))
