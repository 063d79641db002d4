"""Smoke test of the benchmark's traced tiny run: the package still exposes
every name the bench wraps, so every declared per-layer metric is printed.

It runs a copy of `perfbench/` and `src/` in a temporary directory, so the
bench's work and span files never land in the checkout. About 10-15 s.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_traced_tiny_run_reports_every_per_layer_metric(tmp_path):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    skip = shutil.ignore_patterns("_*", "__pycache__")
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=skip)
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy2(ROOT / "BENCHMARK.json", tmp_path)

    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "pc_table", "--seed", "1",
         "--seconds", "1", "--trace", "1", "--tiny"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    declared = {m["name"] for m in spec["per_layer"]}
    missing = declared - set(result["metrics"])
    assert not missing, f"per-layer metrics not printed: {sorted(missing)}\n{proc.stderr[-2000:]}"
