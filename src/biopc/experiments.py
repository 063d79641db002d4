"""Experiment definitions: the six-model comparison table and the
positive-activity study, with their aggregation conventions.

Each run is one `TrainConfig` (`make_config`, merged as the CLI merges
flags). A script finalizes every run's config (`seed_configs`) before any
data loads; `run_experiment` then trains a row's runs and returns their mean.

Reported numbers are the mean test error over the last three epochs of
each run, averaged across seeds. Division-encoding rows force the positivity
constraint (their error is only defined on non-negative rates) and carry a
small bias; the tanh recovery row uses bias 1.0, which keeps tanh-shifted
predictions non-negative everywhere.
"""

from __future__ import annotations

from .config import TrainConfig, merge_config
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

# name -> config overrides for the positivity study (MNIST, subtractive)
POSITIVITY_ROWS = {
    "sigmoid": dict(hidden_activation="sigmoid"),
    "sigmoid_pos": dict(hidden_activation="sigmoid", positive_activities=True),
    "tanh": dict(hidden_activation="tanh"),
    "tanh_pos": dict(hidden_activation="tanh", positive_activities=True),
    "tanh_pos_bias": dict(hidden_activation="tanh", positive_activities=True, bias=1.0),
}


def make_config(dataset: str, seed: int, overrides: dict, **fields) -> TrainConfig:
    """The config of one run: `TrainConfig`'s defaults, then `overrides` (a
    row's), then the `fields` that are not None, merged by `merge_config`."""
    return merge_config({"dataset": dataset, "seed": seed, **overrides}, fields)


def seed_configs(name: str, dataset: str, overrides: dict, seeds, out_root: str,
                 **fields) -> list:
    """The finalized config of row `name` for each seed, writing its outputs
    to `{out_root}/{name}_seed{seed}`; raises ConfigError on a bad setting."""
    return [make_config(dataset, seed, overrides, out_dir=f"{out_root}/{name}_seed{seed}",
                        **fields).finalize()
            for seed in seeds]


def last3_mean_test_error(result: TrainResult) -> float:
    errors = [m.error for m in result.metrics if m.split == "test"]
    return sum(errors[-3:]) / len(errors[-3:])


def run_experiment(name: str, configs, log=print) -> float:
    """Train row `name` once per config, each run loading its data and writing
    its outputs; returns the mean over runs of the last-3 mean test error."""
    errors = []
    for cfg in configs:
        errors.append(last3_mean_test_error(train(cfg, log=log)))
        log(f"[{name} seed={cfg.seed}] last-3-epoch mean test error {errors[-1]:.4f}")
    return sum(errors) / len(errors)
