#!/usr/bin/env python3
"""Self-test of the benchmark: checks BENCHMARK.json and the result schema.

    python3 perfbench/selftest.py

1. BENCHMARK.json keeps the limits its consumers rely on: exact key sets,
   name and unit alphabets, counts, bounds, and a ``setup_s`` metric.
2. ``run.py --tiny`` on every workload, with ``--trace 0`` and ``1``, prints
   a last line with exactly ``correct``, ``attempted``, ``failed`` and
   ``metrics``; the metrics are exactly the end-to-end (untraced) or
   per-layer (traced) names, each ``{"value": finite number, "unit": the
   declared unit}``; the run is correct and no operation failed.
3. In a directory holding only BENCHMARK.json and perfbench/ (no package
   source), ``run.py`` exits non-zero without printing a result.

It is a smoke test of shape and correctness checks, not a speed gate.
Exits 0 when everything holds, 1 otherwise.
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCRATCH = HERE / "_selftest"

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")


def check_spec(spec: dict, raw_size: int) -> list:
    errors = []

    def need(cond, message):
        if not cond:
            errors.append(message)

    need(raw_size <= 64 * 1024, "BENCHMARK.json is larger than 64 KiB")
    need(set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                       "per_layer"}, f"top-level keys are {sorted(spec)}")
    command = spec.get("command", [])
    need(1 <= len(command) <= 32 and all(isinstance(c, str) and len(c) <= 200 for c in command),
         "command must be 1-32 strings of at most 200 characters")
    need(not any(c.startswith("/") or ".." in c.split("/") for c in command),
         "command must not name absolute paths or leave the repository")
    paths = spec.get("paths", [])
    need(1 <= len(paths) <= 16 and all(PATH.match(p) and ".." not in p.split("/") for p in paths),
         "paths must be 1-16 relative directories")
    seconds = spec.get("run_seconds")
    need(isinstance(seconds, int) and 1 <= seconds <= 60, "run_seconds must be an int in 1..60")

    workloads = spec.get("workloads", [])
    need(2 <= len(workloads) <= 8, "there must be 2-8 workloads")
    for w in workloads:
        need(set(w) == {"name", "why"}, f"workload keys {sorted(w)}")
        need(NAME.match(w.get("name", "")), f"bad workload name {w.get('name')!r}")
        why = w.get("why", "")
        need(0 < len(why) <= 200 and "\n" not in why, f"bad why for {w.get('name')}")

    e2e, layers = spec.get("end_to_end", []), spec.get("per_layer", [])
    need(1 <= len(e2e) <= 16, "there must be 1-16 end-to-end metrics")
    need(1 <= len(layers) <= 128, "there must be 1-128 per-layer metrics")
    for m in e2e:
        need(set(m) == {"name", "unit", "better", "bound"}, f"end-to-end keys {sorted(m)}")
        bound = m.get("bound")
        need(isinstance(bound, (int, float)) and 0 < bound <= 0.25,
             f"{m.get('name')}: bound must be in (0, 0.25]")
    for m in layers:
        need(set(m) == {"name", "unit", "better"}, f"per-layer keys {sorted(m)}")
    for m in e2e + layers:
        need(NAME.match(m.get("name", "")), f"bad metric name {m.get('name')!r}")
        need(UNIT.match(m.get("unit", "")), f"{m.get('name')}: bad unit {m.get('unit')!r}")
        need(m.get("better") in ("higher", "lower"), f"{m.get('name')}: better must be higher/lower")
    names = [x["name"] for x in workloads + e2e + layers if "name" in x]
    need(len(names) == len(set(names)), "names must be unique")
    setup = [m for m in e2e if m.get("name") == "setup_s"]
    need(len(setup) == 1 and setup[0]["unit"] == "s" and setup[0]["better"] == "lower",
         "setup_s must be an end-to-end metric in s, lower is better")
    if setup and e2e:
        need(setup[0]["bound"] == max(m["bound"] for m in e2e), "setup_s must have the largest bound")
    return errors


def last_result(stdout: str):
    lines = stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def check_result(result, declared: dict, label: str) -> list:
    errors = []
    if not isinstance(result, dict) or set(result) != {"correct", "attempted", "failed", "metrics"}:
        return [f"{label}: last line is not a result object: {result!r}"[:300]]
    if result["correct"] is not True:
        errors.append(f"{label}: correct is {result['correct']!r}")
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or isinstance(result[key], bool):
            errors.append(f"{label}: {key} is not an integer")
    if isinstance(result["attempted"], int) and result["attempted"] < 1:
        errors.append(f"{label}: nothing attempted")
    if result["failed"] != 0:
        errors.append(f"{label}: {result['failed']} operations failed")
    metrics = result["metrics"]
    if set(metrics) != set(declared):
        errors.append(f"{label}: missing {sorted(set(declared) - set(metrics))}, "
                      f"undeclared {sorted(set(metrics) - set(declared))}")
    for name, entry in metrics.items():
        value = entry.get("value") if isinstance(entry, dict) else None
        if (not isinstance(entry, dict) or set(entry) != {"value", "unit"}
                or isinstance(value, bool) or not isinstance(value, (int, float))
                or not math.isfinite(value)):
            errors.append(f"{label}: {name} is not {{value: finite number, unit}}: {entry!r}")
        elif name in declared and entry["unit"] != declared[name]:
            errors.append(f"{label}: {name} unit {entry['unit']!r}, declared {declared[name]!r}")
    return errors


def run(cwd: Path, args: list):
    cmd = [sys.executable, str(cwd / "perfbench" / "run.py")] + args
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def main() -> int:
    raw = (ROOT / "BENCHMARK.json").read_text()
    spec = json.loads(raw)
    errors = check_spec(spec, len(raw.encode()))
    declared = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}

    for w in spec["workloads"]:
        for trace in (0, 1):
            label = f"{w['name']} trace={trace}"
            proc = run(ROOT, ["--workload", w["name"], "--seed", "1", "--seconds", "1",
                              "--trace", str(trace), "--tiny"])
            if proc.returncode != 0:
                errors.append(f"{label}: exit {proc.returncode}\n{proc.stderr[-1500:]}")
                continue
            errors += check_result(last_result(proc.stdout), declared[trace], label)
            print(f"{label}: ok", file=sys.stderr)

    shutil.rmtree(SCRATCH, ignore_errors=True)
    try:
        SCRATCH.mkdir()
        shutil.copy2(ROOT / "BENCHMARK.json", SCRATCH)
        shutil.copytree(HERE, SCRATCH / "perfbench",
                        ignore=shutil.ignore_patterns("_*", "__pycache__"))
        name = spec["workloads"][0]["name"]
        proc = run(SCRATCH, ["--workload", name, "--seed", "1", "--seconds", "1", "--trace", "0"])
        if proc.returncode == 0 or proc.stdout.strip():
            errors.append("without the package source, run.py must fail without printing a "
                          f"result (exit {proc.returncode}, stdout {proc.stdout[-300:]!r})")
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)

    for e in errors:
        print(f"FAIL {e}")
    print("selftest: " + ("ok" if not errors else f"{len(errors)} failure(s)"))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
