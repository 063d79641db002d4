#!/usr/bin/env python3
"""Reproduce the six-model comparison table on MNIST or Fashion-MNIST.

Trains each configuration (backprop baseline, standard PC, Kolen-Pollack PC,
random-feedback PC, and the two division-encoding variants) across seeds and
reports the mean test error of the last three epochs, next to the reference
values the acceptance gate checks against.

Example:
    python scripts/run_table.py --data-dir data --dataset mnist --out-dir runs/table
    python scripts/run_table.py --data-dir data --dataset mnist --rows pc kp_pc --seeds 1

Runs are independent; to parallelize, launch one process per row with --rows.
Every run's config is checked before any data loads. Exit codes are those
of `biopc` (see `biopc.cli`); a row above its gate is exit 6.
"""

import sys

from biopc import cli
from biopc.experiments import TABLE_ROWS, TABLE_SEEDS, run_study


def main(argv=None) -> int:
    parser = cli.Parser(description=__doc__.splitlines()[0])
    parser.add_argument("--data-dir", required=True)
    cli.add_config_flags(parser, ("dataset", "epochs"))
    parser.add_argument("--out-dir", default="runs/table")
    parser.add_argument("--seeds", type=int, nargs="+", default=list(TABLE_SEEDS))
    parser.add_argument("--rows", nargs="+", choices=list(TABLE_ROWS),
                        default=list(TABLE_ROWS))
    parser.add_argument("--tolerance", type=float, default=None,
                        help="gate width (default: 0.006 mnist, 0.012 fashion)")
    args = parser.parse_args(argv)

    tolerance = args.tolerance
    if tolerance is None:
        tolerance = 0.006 if args.dataset == "mnist" else 0.012
    means = run_study({name: TABLE_ROWS[name][0] for name in args.rows}, args.dataset,
                      args.seeds, f"{args.out_dir}/{args.dataset}", epochs=args.epochs,
                      data_dir=args.data_dir)

    print(f"\n{args.dataset} summary ({len(args.seeds)} seed(s), {args.epochs} epochs)")
    print(f"{'model':<14} {'error':>8} {'reference':>10} {'gate':>6}")
    passed = True
    for name, mean in means.items():
        reference = TABLE_ROWS[name][1 if args.dataset == "mnist" else 2]
        ok = mean <= reference + tolerance
        passed = passed and ok
        print(f"{name:<14} {mean:>8.4f} {reference:>10.3f} {'OK' if ok else 'MISS':>6}")
    return cli.EXIT_OK if passed else cli.EXIT_GATE


if __name__ == "__main__":
    sys.exit(cli.run_command(main))
