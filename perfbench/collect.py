#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/collect.py --seeds 1-10 [--trace-seed 1]
        [--out perfbench/results/BENCH_N.json]

For every workload in BENCHMARK.json and every seed it runs ``run.py`` with
``run_seconds`` from BENCHMARK.json (seeds outermost, so slow spells of the
machine spread over all workloads), then prints, per end-to-end metric and
workload, the median, the quartiles (``statistics.quantiles(values, n=4)``)
and the spread ``(q3 - q1) / median`` next to the metric's bound, and the
largest spread over bound of all of them.

It also prints each workload's speed-factor spread: a run's speed factor is
the geometric mean, over the timed metrics, of its value relative to the
workload's median (oriented so that above 1 is faster). Machine load that
slows every operation of a run moves this factor; a metric whose spread is
much wider than it has noise of its own.

``--trace-seed`` adds one traced run per workload for the per-layer figures.
``--out`` stores all of it, with the environment record and each
operation's median share of the run time, as a results file.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list:
    if "-" in text:
        lo, hi = text.split("-", 1)
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: int, trace: int):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{' '.join(cmd[1:])} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(lines[-2]), json.loads(lines[-1])


def summarise(values: list) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
            "n": len(values)}


def speed_factors(results: list, spec: dict) -> list:
    timed = [m for m in spec["end_to_end"] if m["unit"] in ("s", "1/s")]
    medians = {m["name"]: statistics.median(r["metrics"][m["name"]]["value"] for r in results)
               for m in timed}
    factors = []
    for r in results:
        logs = []
        for m in timed:
            ratio = r["metrics"][m["name"]]["value"] / medians[m["name"]]
            logs.append(math.log(ratio if m["better"] == "higher" else 1.0 / ratio))
        factors.append(math.exp(statistics.fmean(logs)))
    return factors


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace-seed", type=int, default=None)
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)
    seeds = parse_seeds(args.seeds)
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    env, runs, traced = None, {w: [] for w in names}, {}
    for seed in seeds:
        for workload in names:
            notes, result = run_once(workload, seed, seconds, 0)
            if not result["correct"]:
                raise SystemExit(f"{workload} seed {seed}: incorrect result {result}")
            env = notes["env"]
            runs[workload].append({"seed": seed, **result, "operations": notes["operations"]})
            print(f"{workload} seed={seed} attempted={result['attempted']}", file=sys.stderr)
    if args.trace_seed is not None:
        for workload in names:
            _, traced[workload] = run_once(workload, args.trace_seed, seconds, 1)

    summary, shares, worst = {}, {}, 0.0
    print(f"{'workload':10s} {'metric':24s} {'median':>12s} {'spread':>8s} {'bound':>6s}")
    for workload, results in runs.items():
        summary[workload] = {}
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in results]
            s = summarise(values) if len(values) >= 2 else {"median": values[0]}
            summary[workload][name] = s
            spread = s.get("spread", float("nan"))
            worst = max(worst, spread / bound)
            flag = "" if spread < bound / 3 else "  <-- above bound/3"
            flag = "  <-- ABOVE BOUND" if spread > bound else flag
            print(f"{workload:10s} {name:24s} {s['median']:12.4f} {spread:8.4f} {bound:6.2f}{flag}")
        if len(results) >= 2:
            summary[workload]["speed_factor"] = summarise(speed_factors(results, spec))
            print(f"{workload:10s} {'(speed factor)':24s} {'':12s} "
                  f"{summary[workload]['speed_factor']['spread']:8.4f}")
        operations = [r["operations"] for r in results]
        labels = sorted({label for ops in operations for label in ops})
        shares[workload] = {
            label: {key: statistics.median(ops.get(label, {}).get(key, 0) for ops in operations)
                    for key in ("share", "calls")}
            for label in labels}
        print(f"{workload:10s} median time share (calls): " + ", ".join(
            f"{label} {v['share']:.3f} ({v['calls']:g})" for label, v in shares[workload].items()))
    print(f"largest spread / bound: {worst:.3f}")

    if args.out:
        record = {"env": env, "run_seconds": seconds, "seeds": seeds, "summary": summary,
                  "time_shares": shares, "runs": runs, "traced": traced}
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
