"""The study runner: every config finalized before any run, and each row's
mean equal to that of its runs trained one by one."""

import pytest

from biopc.config import ConfigError
from biopc.experiments import last3_mean_test_error, make_config, run_study
from biopc.training import train

ROWS = {"pc": {}, "backprop": {"model": "bp"}}
SEEDS = (1, 2)


def test_row_means_are_those_of_the_runs_one_by_one(fake_data_dir, tmp_path, capsys):
    fields = dict(epochs=1, data_dir=str(fake_data_dir))
    means = run_study(ROWS, "mnist", SEEDS, str(tmp_path), **fields)
    out = capsys.readouterr().out
    assert list(means) == list(ROWS)
    assert [line.split(":")[0] for line in out.splitlines() if line.startswith("== ")] == [
        "== pc", "== backprop"]
    for name, overrides in ROWS.items():
        errors = []
        for seed in SEEDS:
            assert f"[{name} seed={seed}] last-3-epoch mean test error" in out
            cfg = make_config("mnist", seed, overrides, out_dir=f"{tmp_path}/{name}_seed{seed}",
                              **fields).finalize()
            errors.append(last3_mean_test_error(train(cfg)))
        assert means[name] == sum(errors) / len(errors)


def test_bad_row_is_config_error_before_any_run(fake_data_dir, tmp_path):
    rows = {"pc": {}, "bad": {"bias": -1.0}}
    with pytest.raises(ConfigError, match="bias"):
        run_study(rows, "mnist", SEEDS, str(tmp_path / "out"), epochs=1,
                  data_dir=str(fake_data_dir))
    assert not (tmp_path / "out").exists()
