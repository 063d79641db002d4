"""`biopc study` end to end, each run in its own interpreter, on a small
synthetic IDX dataset: the per-row summary, and exit codes with a one-line
message rather than a traceback."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from biopc.cli import EXIT_CONFIG, EXIT_DATA, EXIT_GATE, EXIT_OK

ROOT = Path(__file__).resolve().parents[1]
STUDIES = ("table", "positivity")


def _run(study, *args):
    path = os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-m", "biopc", "study", study, *map(str, args)],
                          capture_output=True, text=True, timeout=300,
                          env=dict(os.environ, PYTHONPATH=path))


def _summary(stdout: str, heading: str) -> list:
    """The lines after `heading` up to the next blank line."""
    lines = stdout.split(heading, 1)[1].splitlines()[1:]
    return lines[:lines.index("")] if "" in lines else lines


@pytest.mark.parametrize("tolerance,code,verdict", [("1", EXIT_OK, "OK"),
                                                    ("-1", EXIT_GATE, "MISS")])
def test_table_summarizes_each_row(fake_data_dir, tmp_path, tolerance, code, verdict):
    run = _run("table", "--data-dir", fake_data_dir, "--out-dir", tmp_path,
               "--rows", "pc", "backprop", "--epochs", "1", "--seeds", "1",
               "--tolerance", tolerance)
    assert run.returncode == code, run.stderr
    rows = _summary(run.stdout, "mnist summary (1 seed(s), 1 epochs)")[1:]
    assert [line.split()[0] for line in rows] == ["pc", "backprop"]
    assert all(line.split()[-1] == verdict for line in rows)
    assert (tmp_path / "mnist" / "backprop_seed1" / "model.pcck").is_file()


def test_positivity_reports_every_row_and_check(fake_data_dir, tmp_path):
    run = _run("positivity", "--data-dir", fake_data_dir, "--out-dir", tmp_path,
               "--epochs", "1", "--seeds", "1")
    assert run.returncode in (EXIT_OK, EXIT_GATE), run.stderr
    lines = _summary(run.stdout, "positivity study summary")
    assert [line.split()[0] for line in lines[:5]] == [
        "sigmoid", "sigmoid_pos", "tanh", "tanh_pos", "tanh_pos_bias"]
    verdicts = [line.split()[0] for line in lines[5:]]
    assert len(verdicts) == 3 and set(verdicts) <= {"OK", "MISS"}
    assert (run.returncode == EXIT_OK) == (verdicts == ["OK"] * 3)


@pytest.mark.parametrize("study", STUDIES)
def test_missing_data_is_data_error(study, tmp_path):
    run = _run(study, "--data-dir", tmp_path / "nowhere", "--out-dir", tmp_path / "out",
               "--epochs", "1", "--seeds", "1")
    assert run.returncode == EXIT_DATA
    assert "data error" in run.stderr and "Traceback" not in run.stderr


@pytest.mark.parametrize("study,args,message", [
    (study, ("--epochs", "0"), "epochs must be >= 1") for study in STUDIES
] + [("table", ("--dataset", "cifar"), "invalid choice"),
     ("table", ("--tolerance", "nan"), "--tolerance must be finite"),
     ("table", ("--tolerance", "inf"), "--tolerance must be finite"),
     ("table", ("--seeds", "1", "1"), "seed 1 is given more than once"),
     ("positivity", ("--tolerance", "1"), "unrecognized arguments")])
def test_bad_setting_is_config_error_before_data_loads(study, args, message, tmp_path):
    # the data directory is missing too: loading it first would be exit 2
    run = _run(study, "--data-dir", tmp_path / "nowhere", "--out-dir", tmp_path / "out",
               "--seeds", "1", *args)
    assert run.returncode == EXIT_CONFIG
    assert "config error" in run.stderr and message in run.stderr
    assert "Traceback" not in run.stderr
    assert not (tmp_path / "out").exists()
