"""Experiment definitions: the six-model comparison table and the
positive-activity study, with their gates and aggregation conventions.

Each run is one `TrainConfig` (`make_config`, merged as the CLI merges
flags). `run_study` runs a study: it finalizes every run's config before
any data loads, trains the runs in one loop, and returns each row's mean.
`table_summary` and `positivity_summary` turn those means into a study's
summary lines and its verdict; `biopc study` prints them.

Reported numbers are the mean test error over the last three epochs of
each run, averaged across seeds. Division-encoding rows force the positivity
constraint (their error is only defined on non-negative rates) and carry a
small bias; the tanh recovery row uses bias 1.0, which keeps tanh-shifted
predictions non-negative everywhere.
"""

from __future__ import annotations

from .config import ConfigError, TrainConfig, merge_config
from .training import TrainResult, train

TABLE_SEEDS = (1, 2, 3)

# name -> (config overrides, expected mnist error, expected fashion error)
TABLE_ROWS = {
    "backprop": (dict(model="bp"), 0.019, 0.107),
    "pc": (dict(), 0.020, 0.109),
    "kp_pc": (dict(feedback="kp"), 0.019, 0.116),
    "rand_pc": (dict(feedback="random"), 0.021, 0.112),
    "pc_div": (dict(encoding="division", positive_activities=True, bias=0.1),
               0.021, 0.116),
    "rand_pc_div": (dict(feedback="random", encoding="division",
                         positive_activities=True, bias=0.1),
                    0.022, 0.116),
}
# dataset -> default gate width: a table row passes at its reference plus this
TABLE_TOLERANCE = {"mnist": 0.006, "fashion": 0.012}

# name -> config overrides for the positivity study (MNIST, subtractive)
POSITIVITY_ROWS = {
    "sigmoid": dict(hidden_activation="sigmoid"),
    "sigmoid_pos": dict(hidden_activation="sigmoid", positive_activities=True),
    "tanh": dict(hidden_activation="tanh"),
    "tanh_pos": dict(hidden_activation="tanh", positive_activities=True),
    "tanh_pos_bias": dict(hidden_activation="tanh", positive_activities=True, bias=1.0),
}
# the bound of each of the three positivity comparisons
POSITIVITY_BOUND = 0.005


def make_config(dataset: str, seed: int, overrides: dict, **fields) -> TrainConfig:
    """The config of one run: `TrainConfig`'s defaults, then `overrides` (a
    row's), then the `fields` that are not None, merged by `merge_config`."""
    return merge_config({"dataset": dataset, "seed": seed, **overrides}, fields)


def last3_mean_test_error(result: TrainResult) -> float:
    errors = [m.error for m in result.metrics if m.split == "test"]
    return sum(errors[-3:]) / len(errors[-3:])


def run_study(rows: dict, dataset: str, seeds, out_root: str, **fields) -> dict:
    """Train each row of `rows` (name -> config overrides) once per seed and
    return each row's mean over seeds of the last-3 mean test error, in row
    order. Every run's config (`make_config` with `fields`, writing to
    `{out_root}/{name}_seed{seed}`) is finalized first, so a bad setting is a
    ConfigError before any data loads; then each run loads its data, trains
    and writes its outputs. A seed given twice is a ConfigError too."""
    seeds = list(seeds)
    for i, seed in enumerate(seeds):
        if seed in seeds[:i]:
            raise ConfigError(f"seed {seed} is given more than once")
    runs = [(name, make_config(dataset, seed, overrides, out_dir=f"{out_root}/{name}_seed{seed}",
                               **fields).finalize())
            for name, overrides in rows.items() for seed in seeds]
    errors = {name: [] for name in rows}
    for name, cfg in runs:
        errors[name].append(last3_mean_test_error(train(cfg, log=print)))
        print(f"[{name} seed={cfg.seed}] last-3-epoch mean test error {errors[name][-1]:.4f}")
    means = {name: sum(errs) / len(errs) for name, errs in errors.items()}
    for name, mean in means.items():
        print(f"== {name}: mean last-3 test error {mean:.4f}")
    return means


def table_summary(means: dict, dataset: str, tolerance=None) -> tuple:
    """The table's summary lines and verdict: one line per row of `means`
    (name -> mean error) with its reference error, passing when the mean is
    at most that reference plus `tolerance` (default
    `TABLE_TOLERANCE[dataset]`)."""
    if tolerance is None:
        tolerance = TABLE_TOLERANCE[dataset]
    lines = [f"{'model':<14} {'error':>8} {'reference':>10} {'gate':>6}"]
    passed = True
    for name, mean in means.items():
        reference = TABLE_ROWS[name][1 if dataset == "mnist" else 2]
        ok = mean <= reference + tolerance
        passed = passed and ok
        lines.append(f"{name:<14} {mean:>8.4f} {reference:>10.3f} {'OK' if ok else 'MISS':>6}")
    return lines, passed


def positivity_summary(means: dict) -> tuple:
    """The positivity study's summary lines and verdict, from the mean of
    every row of `POSITIVITY_ROWS`: the constraint is free for sigmoid,
    costs tanh at least `POSITIVITY_BOUND`, and the bias buys that loss
    back to within it."""
    bound = POSITIVITY_BOUND
    sigmoid_gap = abs(means["sigmoid_pos"] - means["sigmoid"])
    tanh_drop = means["tanh_pos"] - means["tanh"]
    tanh_recovery = abs(means["tanh_pos_bias"] - means["tanh"])
    checks = [
        (f"sigmoid unaffected (|gap| <= {bound})", sigmoid_gap <= bound,
         f"gap {sigmoid_gap:.4f}"),
        (f"tanh degraded without bias (drop >= {bound})", tanh_drop >= bound,
         f"drop {tanh_drop:.4f}"),
        (f"tanh recovered with bias (|gap| <= {bound})", tanh_recovery <= bound,
         f"gap {tanh_recovery:.4f}"),
    ]
    lines = [f"  {name:<14} {value:.4f}" for name, value in means.items()]
    lines += [f"  {'OK  ' if ok else 'MISS'} {label}: {detail}" for label, ok, detail in checks]
    return lines, all(ok for _, ok, _ in checks)
