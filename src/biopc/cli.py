"""Command-line front end: train, eval and gradcheck.

Exit codes: 0 success, 1 configuration error, 2 data error, 3 gradient
check failure, 4 encoding-domain error (an error neuron's input left the
range its encoding can represent, for example a threshold error below
e-min; the message names the epoch, the batch and the level).
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
import time

from . import dataio
from . import encodings as enc
from .checkpoint import CheckpointError, load_checkpoint
from .config import _CHOICES, ConfigError, TrainConfig, _coerce, merge_config, parse_config_file
from .linalg import ActivationKind, ShapeMismatchError
from .network import FEEDBACK_SCHEMES
from .training import evaluate, run_gradcheck, train

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_DATA = 2
EXIT_GRADCHECK = 3
EXIT_ENCODING_DOMAIN = 4


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad usage; route that through the
    # config-error path instead so exit codes stay meaningful.
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


def _add_train_flags(p: argparse.ArgumentParser) -> None:
    """One flag per `TrainConfig` field, plus `--config`."""
    p.add_argument("--config", default=None, help="config file of 'key = value' lines")
    for field in dataclasses.fields(TrainConfig):
        p.add_argument("--" + field.name.replace("_", "-"), dest=field.name, default=None,
                       type=_flag_type(field.name), choices=_CHOICES.get(field.name),
                       help=_HELP.get(field.name))


def _config_from_args(args) -> TrainConfig:
    file_entries = parse_config_file(args.config) if args.config else None
    flag_entries = {f.name: getattr(args, f.name) for f in dataclasses.fields(TrainConfig)}
    return merge_config(file_entries, flag_entries)


def _describe_config(cfg: TrainConfig) -> str:
    bits = [f"dataset={cfg.dataset}", f"model={cfg.model}"]
    if cfg.model == "pc":
        bits += [f"feedback={cfg.feedback}", f"encoding={cfg.encoding}",
                 f"beta={cfg.beta}", f"n_updates={cfg.n_updates}"]
    bits += [f"hidden={cfg.hidden_activation}",
             f"positive_activities={cfg.positive_activities}", f"bias={cfg.bias}",
             f"epochs={cfg.epochs}", f"batch_size={cfg.batch_size}",
             f"lr={cfg.lr}", f"seed={cfg.seed}"]
    return "  ".join(bits)


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
    encoding = enc.build(enc.ENCODINGS, "name", args.encoding)
    feedback = enc.build(FEEDBACK_SCHEMES, "name", args.feedback)
    report = run_gradcheck(encoding, feedback,
                           hidden_activation=ActivationKind(args.hidden_activation),
                           seed=args.seed)
    print(f"gradcheck  encoding={args.encoding} feedback={args.feedback} "
          f"hidden={args.hidden_activation} dims=[5,4,3] batch=2")
    for check in report.checks:
        print("  " + check.describe())
    if report.passed:
        print(f"PASS  max gated rel err {report.max_gated_error():.3e} <= {report.threshold:g}")
        return EXIT_OK
    print(f"FAIL  max gated rel err {report.max_gated_error():.3e} > {report.threshold:g}")
    return EXIT_GRADCHECK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="biopc",
                     description="Train and probe predictive-coding networks "
                                 "under biological constraints.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="train a model and write metrics + checkpoint")
    _add_train_flags(p_train)
    p_train.set_defaults(func=_cmd_train)

    p_eval = sub.add_parser("eval", help="evaluate a checkpoint on a dataset split")
    p_eval.add_argument("--checkpoint", required=True)
    p_eval.add_argument("--dataset", choices=_CHOICES["dataset"], default="mnist")
    p_eval.add_argument("--data-dir", dest="data_dir", default="data")
    p_eval.add_argument("--split", choices=["train", "test"], default="test")
    p_eval.set_defaults(func=_cmd_eval)

    p_grad = sub.add_parser("gradcheck",
                            help="compare update rules against finite differences")
    for field in ("encoding", "feedback", "hidden_activation"):
        p_grad.add_argument("--" + field.replace("_", "-"), dest=field,
                            choices=_CHOICES[field], default=getattr(TrainConfig, field))
    p_grad.add_argument("--seed", type=int, default=0)
    p_grad.set_defaults(func=_cmd_gradcheck)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except (dataio.IdxError, CheckpointError, ShapeMismatchError, FileNotFoundError) as err:
        print(f"data error: {err}", file=sys.stderr)
        return EXIT_DATA
    except enc.EncodingDomainError as err:
        print(f"encoding domain error: {err}", file=sys.stderr)
        return EXIT_ENCODING_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
