#!/usr/bin/env python3
"""Positive-activity study on MNIST.

Five configurations: sigmoid and tanh hidden layers, each with and without
the positivity constraint, plus tanh with positivity and a bias that keeps
effective predictions non-negative. Reports the mean last-3-epoch test error
per configuration and the three comparisons the acceptance gate checks:
the constraint is free for sigmoid, costs tanh at least half a point, and
the bias buys that loss back.

Every run's config is checked before any data loads. Exit codes are those
of `biopc` (see `biopc.cli`); a comparison that does not hold is exit 6.

Example:
    python scripts/run_positivity.py --data-dir data --out-dir runs/positivity
"""

import sys

from biopc import cli
from biopc.experiments import POSITIVITY_ROWS, TABLE_SEEDS, run_study


def main(argv=None) -> int:
    parser = cli.Parser(description=__doc__.splitlines()[0])
    parser.add_argument("--data-dir", required=True)
    parser.add_argument("--out-dir", default="runs/positivity")
    cli.add_config_flags(parser, ("epochs",))
    parser.add_argument("--seeds", type=int, nargs="+", default=list(TABLE_SEEDS))
    args = parser.parse_args(argv)

    means = run_study(POSITIVITY_ROWS, "mnist", args.seeds, args.out_dir,
                      epochs=args.epochs, data_dir=args.data_dir)

    sigmoid_gap = abs(means["sigmoid_pos"] - means["sigmoid"])
    tanh_drop = means["tanh_pos"] - means["tanh"]
    tanh_recovery = abs(means["tanh_pos_bias"] - means["tanh"])

    print("\npositivity study summary")
    for name, value in means.items():
        print(f"  {name:<14} {value:.4f}")
    checks = [
        ("sigmoid unaffected (|gap| <= 0.005)", sigmoid_gap <= 0.005,
         f"gap {sigmoid_gap:.4f}"),
        ("tanh degraded without bias (drop >= 0.005)", tanh_drop >= 0.005,
         f"drop {tanh_drop:.4f}"),
        ("tanh recovered with bias (|gap| <= 0.005)", tanh_recovery <= 0.005,
         f"gap {tanh_recovery:.4f}"),
    ]
    for label, ok, detail in checks:
        print(f"  {'OK  ' if ok else 'MISS'} {label}: {detail}")
    return cli.EXIT_OK if all(ok for _, ok, _ in checks) else cli.EXIT_GATE


if __name__ == "__main__":
    sys.exit(cli.run_command(main))
