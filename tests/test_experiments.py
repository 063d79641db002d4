"""The study runner: every config finalized before any run, and each row's
mean equal to that of its runs trained one by one. The study gates, on
given row means."""

import math

import pytest

from biopc.config import ConfigError
from biopc.experiments import (POSITIVITY_BOUND, POSITIVITY_ROWS, TABLE_ROWS,
                               last3_mean_test_error, make_config, positivity_summary,
                               run_study, table_summary)
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


def test_repeated_seed_is_config_error_before_any_run(fake_data_dir, tmp_path):
    with pytest.raises(ConfigError, match="seed 2 is given more than once"):
        run_study(ROWS, "mnist", (1, 2, 3, 2), str(tmp_path / "out"), epochs=1,
                  data_dir=str(fake_data_dir))
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("dataset,column,default", [("mnist", 1, 0.006), ("fashion", 2, 0.012)])
@pytest.mark.parametrize("tolerance", [None, 0.0, 0.03])
def test_table_row_passes_at_its_gate_and_misses_just_above(dataset, column, default,
                                                            tolerance):
    width = default if tolerance is None else tolerance
    gates = {name: row[column] + width for name, row in TABLE_ROWS.items()}
    lines, passed = table_summary(gates, dataset, tolerance)
    assert passed
    assert [line.split() for line in lines[1:]] == [
        [name, f"{gate:.4f}", f"{TABLE_ROWS[name][column]:.3f}", "OK"]
        for name, gate in gates.items()]
    for name in gates:
        lines, passed = table_summary(dict(gates, **{name: math.nextafter(gates[name], 1.0)}),
                                      dataset, tolerance)
        assert not passed
        assert [line.split()[-1] for line in lines[1:]] == [
            "MISS" if row == name else "OK" for row in gates]


def _positivity_means(sigmoid_gap, tanh_drop, tanh_recovery):
    return {"sigmoid": 0.02, "sigmoid_pos": 0.02 + sigmoid_gap, "tanh": 0.02,
            "tanh_pos": 0.02 + tanh_drop, "tanh_pos_bias": 0.02 + tanh_recovery}


@pytest.mark.parametrize("check,passing,missing", [
    (0, dict(sigmoid_gap=-0.004), dict(sigmoid_gap=0.006)),
    (0, dict(sigmoid_gap=0.004), dict(sigmoid_gap=-0.006)),
    (1, dict(tanh_drop=0.006), dict(tanh_drop=0.004)),
    (2, dict(tanh_recovery=0.004), dict(tanh_recovery=-0.006)),
    (2, dict(tanh_recovery=-0.004), dict(tanh_recovery=0.006)),
])
def test_each_positivity_check_passes_on_one_side_of_its_bound(check, passing, missing):
    assert POSITIVITY_BOUND == 0.005
    good = dict(sigmoid_gap=0.0, tanh_drop=0.01, tanh_recovery=0.0)
    lines, passed = positivity_summary(_positivity_means(**good))
    assert passed
    assert [line.split()[0] for line in lines] == list(POSITIVITY_ROWS) + ["OK"] * 3
    for change, verdict in ((passing, "OK"), (missing, "MISS")):
        lines, passed = positivity_summary(_positivity_means(**dict(good, **change)))
        assert passed == (verdict == "OK")
        assert [line.split()[0] for line in lines[5:]] == [
            verdict if i == check else "OK" for i in range(3)]
