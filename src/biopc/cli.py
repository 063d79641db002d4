"""Command-line front end: train, eval, gradcheck and study.

Each flag that sets a run setting is made from its `TrainConfig` field by
`add_config_flags`. `train` prints the finalized config as a run line of
`name=value` fields. `study table` and `study positivity` run the paper's
two studies (`experiments`) and check their gates.

Exit codes, from `run_command`: 0 success, 1 configuration error (bad
usage included), 2 data error, 3 gradient check failure, 4
encoding-domain error (an error neuron's input left the range its
encoding can represent, for example a threshold error below e-min; the
message names the epoch, the batch and the level), 5 non-finite training
objective (a batch's objective was NaN or infinite; training stops at
that batch, which the message names, and writes no outputs), 6 missed
acceptance gate (`study` only), 130 interrupted (Ctrl-C; a `train` run
stopped early writes no outputs).
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import sys
import time

from . import dataio
from . import encodings as enc
from .checkpoint import CheckpointError, load_checkpoint
from .config import (_CHOICES, _FIELD_TYPES, ConfigError, TrainConfig, _coerce, merge_config,
                     parse_config_file)
from .experiments import (POSITIVITY_ROWS, TABLE_ROWS, TABLE_SEEDS, positivity_summary,
                          run_study, table_summary)
from .linalg import ActivationKind, ShapeMismatchError
from .network import FEEDBACK_SCHEMES
from .training import (GRADCHECK_BATCH, GRADCHECK_DIMS, GRADCHECK_THRESHOLD, NonFiniteError,
                       evaluate, run_gradcheck, train)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_DATA = 2
EXIT_GRADCHECK = 3
EXIT_ENCODING_DOMAIN = 4
EXIT_NON_FINITE = 5
EXIT_GATE = 6
EXIT_INTERRUPT = 130


class Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on bad usage, the data-error code; this
    parser raises ConfigError instead, so bad usage is exit 1."""

    def error(self, message):
        raise ConfigError(message)


_HELP = {
    "beta": "inference rate",
    "n_updates": "activity updates per minibatch",
    "gamma": "Kolen-Pollack decay",
    "epsilon": "division-encoding constant",
    "e_min": "threshold-encoding floor",
    "e_max": "threshold-encoding span",
}


def _flag_type(field: str):
    def parse(text: str):
        try:
            return _coerce(field, text)
        except ConfigError as err:
            raise argparse.ArgumentTypeError(str(err)) from None
    return parse


def add_config_flags(parser: argparse.ArgumentParser, names, *, unset: bool = False) -> None:
    """One flag per named `TrainConfig` field, in field order, with the
    field's parser and choices. Its default is the field's, or None with
    `unset`, so that a flag left out yields to the config file."""
    for field in dataclasses.fields(TrainConfig):
        if field.name in names:
            parser.add_argument("--" + field.name.replace("_", "-"), dest=field.name,
                                default=None if unset else field.default,
                                type=_flag_type(field.name), choices=_CHOICES.get(field.name),
                                help=_HELP.get(field.name))


def _config_from_args(args) -> TrainConfig:
    file_entries = parse_config_file(args.config) if args.config else None
    return merge_config(file_entries, {name: getattr(args, name) for name in _FIELD_TYPES})


def _describe_config(cfg: TrainConfig) -> str:
    """The run line: every field as `name=value`."""
    return "  ".join(f"{name}={getattr(cfg, name)}" for name in _FIELD_TYPES)


def _cmd_train(args) -> int:
    cfg = _config_from_args(args).finalize()
    print(_describe_config(cfg))
    t0 = time.perf_counter()
    result = train(cfg, log=print)
    final = result.metrics[-1]
    print(f"done in {time.perf_counter() - t0:.1f}s  "
          f"final test error {final.error:.4f}")
    print(f"metrics: {result.metrics_path}")
    print(f"checkpoint: {result.checkpoint_path}")
    return EXIT_OK


def _cmd_eval(args) -> int:
    model, _ = load_checkpoint(args.checkpoint)
    split = dataio.load_split(args.data_dir, args.dataset, args.split)
    error, objective = evaluate(model, split)
    print(f"split={args.split} samples={split.n_samples} "
          f"error={error!r} objective={objective!r}")
    return EXIT_OK


def _cmd_gradcheck(args) -> int:
    # The seed is a TrainConfig field: the config checks its bound, as for train.
    TrainConfig(seed=args.seed).finalize()
    encoding = enc.build(enc.ENCODINGS, args.encoding)
    feedback = enc.build(FEEDBACK_SCHEMES, args.feedback)
    report = run_gradcheck(encoding, feedback,
                           hidden_activation=ActivationKind(args.hidden_activation),
                           seed=args.seed)
    print(f"gradcheck  encoding={args.encoding} feedback={args.feedback} "
          f"hidden={args.hidden_activation} dims=[{','.join(map(str, GRADCHECK_DIMS))}] "
          f"batch={GRADCHECK_BATCH}")
    for check in report.checks:
        print("  " + check.describe())
    # the gated check worst against its bound decides, and names that bound
    worst = max((c for c in report.checks if c.gated), key=lambda c: c.max_rel_err / c.bound)
    bound = (f"resolution {worst.resolution:.3e}" if worst.resolution > GRADCHECK_THRESHOLD
             else f"{GRADCHECK_THRESHOLD:g}")
    verdict = "PASS  closest to" if report.passed else "FAIL  furthest over"
    print(f"{verdict} its bound: {worst.quantity}[{worst.layer}] max rel err "
          f"{worst.max_rel_err:.3e} {'<=' if report.passed else '>'} {bound}")
    return EXIT_OK if report.passed else EXIT_GRADCHECK


def _cmd_study(args) -> int:
    table = args.study == "table"
    if table and args.tolerance is not None and not math.isfinite(args.tolerance):
        raise ConfigError(f"--tolerance must be finite, got {args.tolerance}")
    rows = {name: TABLE_ROWS[name][0] for name in args.rows} if table else POSITIVITY_ROWS
    out_root = f"{args.out_dir}/{args.dataset}" if table else args.out_dir
    means = run_study(rows, args.dataset, args.seeds, out_root, epochs=args.epochs,
                      data_dir=args.data_dir)
    if table:
        print(f"\n{args.dataset} summary ({len(args.seeds)} seed(s), {args.epochs} epochs)")
        lines, passed = table_summary(means, args.dataset, args.tolerance)
    else:
        print("\npositivity study summary")
        lines, passed = positivity_summary(means)
    print("\n".join(lines))
    return EXIT_OK if passed else EXIT_GATE


def build_parser() -> argparse.ArgumentParser:
    parser = Parser(prog="biopc",
                    description="Train and probe predictive-coding networks "
                                "under biological constraints.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="train a model and write metrics + checkpoint")
    p_train.add_argument("--config", default=None, help="config file of 'key = value' lines")
    add_config_flags(p_train, _FIELD_TYPES, unset=True)
    p_train.set_defaults(func=_cmd_train)

    p_eval = sub.add_parser("eval", help="evaluate a checkpoint on a dataset split")
    p_eval.add_argument("--checkpoint", required=True)
    add_config_flags(p_eval, ("dataset", "data_dir"))
    p_eval.add_argument("--split", choices=tuple(dataio._SPLIT_FILES), default="test")
    p_eval.set_defaults(func=_cmd_eval)

    p_grad = sub.add_parser("gradcheck",
                            help="compare update rules against finite differences")
    add_config_flags(p_grad, ("encoding", "feedback", "hidden_activation", "seed"))
    p_grad.set_defaults(func=_cmd_gradcheck)

    p_study = sub.add_parser("study", help="run one of the paper's studies and check its gates")
    studies = p_study.add_subparsers(dest="study", required=True)
    for name, fields, help_text in (
            ("table", ("dataset", "epochs"), "the six-model comparison table"),
            ("positivity", ("epochs",), "the positive-activity study on MNIST")):
        p = studies.add_parser(name, help=help_text)
        p.add_argument("--data-dir", required=True)
        add_config_flags(p, fields)
        p.add_argument("--out-dir", default=f"runs/{name}")
        p.add_argument("--seeds", type=int, nargs="+", default=list(TABLE_SEEDS))
    studies.choices["positivity"].set_defaults(dataset="mnist")
    p_table = studies.choices["table"]
    p_table.add_argument("--rows", nargs="+", choices=list(TABLE_ROWS), default=list(TABLE_ROWS))
    p_table.add_argument("--tolerance", type=float, default=None,
                         help="gate width (default: 0.006 mnist, 0.012 fashion)")
    p_study.set_defaults(func=_cmd_study)
    return parser


def run_command(main, argv=None) -> int:
    """`main(argv)`, which returns an exit code; a typed error it raises, or
    Ctrl-C, becomes its exit code and a one-line message on stderr, not a
    traceback."""
    try:
        return main(argv)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except (dataio.IdxError, CheckpointError, ShapeMismatchError, OSError) as err:
        print(f"data error: {err}", file=sys.stderr)
        return EXIT_DATA
    except enc.EncodingDomainError as err:
        print(f"encoding domain error: {err}", file=sys.stderr)
        return EXIT_ENCODING_DOMAIN
    except NonFiniteError as err:
        print(f"non-finite objective: {err}", file=sys.stderr)
        return EXIT_NON_FINITE
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return EXIT_INTERRUPT


def _run(argv) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


def main(argv=None) -> int:
    return run_command(_run, argv)

