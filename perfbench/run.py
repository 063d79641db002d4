#!/usr/bin/env python3
"""biopc benchmark: table-row training throughput, eval throughput and a
traced per-layer run.

    python3 perfbench/run.py --workload pc_table --seed 1 --seconds 55 --trace 0

Workloads (see METRICS.md for what each metric should move):

* ``pc_table``  -- ``biopc.train()`` on every table row, mostly the five
  PC rows of ``experiments.TABLE_ROWS`` plus ``pc_threshold``:
  relaxation-bound.
* ``bp_table``  -- mostly ``biopc.train()`` on the ``backprop`` row: no
  relaxation, Adam and the baseline MLP dominate.

Every workload reports every metric. A run repeats rounds until
``--seconds`` have passed (see ``Workload.schedule``): the focus operations
take most of the time, and the other rows and ``biopc eval`` calls, one per
round, give every metric several calls. Each metric is the median over its
calls. Load comes from this one process, in a closed loop: the next
operation starts when the previous one returns.

With ``--trace 0`` the end-to-end metrics are printed. With ``--trace 1``
each operation runs twice, untraced and then traced (the order alternates
per round), with timing wrappers from ``spans.py`` installed around the
package's public names; the per-layer metrics come from the traced calls,
the tracing overhead from comparing the two, and the two checkpoints must
be byte-identical. The spans are written to
``perfbench/_spans/<workload>-seed<seed>.jsonl``.

The last line of standard output is the JSON result
``{"correct", "attempted", "failed", "metrics"}``; the line before it
records the environment and each operation's share of the measured time.
Everything is written under ``perfbench/_work``, which is removed on exit.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import math
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

from spans import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"

PC_ROWS = ("pc", "kp_pc", "rand_pc", "pc_div", "rand_pc_div", "pc_threshold")
ROWS = PC_ROWS + ("backprop",)
EVAL_KINDS = ("pc", "pc_div", "backprop")
EXTRA_ROWS = {"pc_threshold": dict(encoding="threshold")}

# A 25-epoch MNIST run: the projection base for run25_proj_s.
PROJ_EPOCHS = 25
PROJ_SAMPLES = 60000


@dataclass(frozen=True)
class Sizes:
    n_train: int      # training samples per train() call and epoch
    n_test: int       # 1/6 of n_train, as MNIST's 10k test vs 60k train
    n_eval: int       # samples in the IDX split `biopc eval` reads
    n_prep: int       # samples the eval checkpoints are trained on in setup
    epochs: int       # >= 2: the objective can be seen to fall, and the epochs
                      # after the first give the per-epoch time run25_proj_s scales
    setup_reps: int


# 256 = 4 full batches of 64 per epoch; a PC call takes about 0.35 s on
# 2 cores, short enough for many calls per row in a 55 s run.
FULL = Sizes(n_train=256, n_test=42, n_eval=8192, n_prep=128, epochs=2, setup_reps=5)
TINY = Sizes(n_train=64, n_test=10, n_eval=4096, n_prep=64, epochs=2, setup_reps=1)


@dataclass(frozen=True)
class Op:
    kind: str  # "train" or "eval"
    name: str  # table row, or checkpoint kind for eval

    @property
    def label(self) -> str:
        return f"{self.kind}:{self.name}"


TRAIN_OPS = {row: Op("train", row) for row in ROWS}
EVAL_OPS = tuple(Op("eval", k) for k in EVAL_KINDS)
ALL_OPS = tuple(TRAIN_OPS.values()) + EVAL_OPS


@dataclass(frozen=True)
class Workload:
    focus: tuple      # training operations run in every round
    proj_rows: tuple  # rows run25_proj_s averages over

    def schedule(self):
        """Endless sequence of (round number, operation). A round is the
        focus operations, then one other slot: each row that is not a focus
        operation in turn, then one eval call. Eval calls cycle through the
        checkpoint kinds; eval_sps pools them, so one slot serves all."""
        slots = [op for op in TRAIN_OPS.values() if op not in self.focus] + [None]
        evals = itertools.cycle(EVAL_OPS)
        for i in itertools.count():
            for op in self.focus + (slots[i % len(slots)] or next(evals),):
                yield i, op


# A PC call takes about 2.5x a backprop call. pc_table also runs backprop
# once a round (about 5% of its time), so that metric gets as many calls as
# the PC rows. bp_table runs it three times a round, over half its time,
# which leaves each PC row and the eval slot about eight calls in a 55 s
# run; with fewer calls, slow spells of the machine show in the medians.
WORKLOADS = {
    "pc_table": Workload(tuple(TRAIN_OPS[r] for r in ROWS), PC_ROWS),
    "bp_table": Workload((TRAIN_OPS["backprop"],) * 3, ("backprop",)),
}
SPANS = HERE / "_spans"


class CheckFailed(Exception):
    """An operation ran but its output was wrong."""


def cap_blas_threads() -> int:
    """Limit BLAS to at most the CPUs this process may run on; must run
    before numpy is imported."""
    nproc = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        current = os.environ.get(var, "")
        wanted = int(current) if current.isdigit() and int(current) >= 1 else nproc
        os.environ[var] = str(min(wanted, nproc))
    return int(os.environ["OPENBLAS_NUM_THREADS"])


def import_biopc():
    """Import biopc from this checkout's src/ and nowhere else."""
    if not (SRC / "biopc" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no biopc package under {SRC.name}/ next to perfbench/")
    sys.path.insert(0, str(SRC))
    import biopc
    if Path(biopc.__file__).resolve().parent != SRC / "biopc":
        raise SystemExit(f"perfbench: biopc was imported from {biopc.__file__}, not from src/")
    return biopc


def import_seconds() -> float:
    """Wall time of a fresh interpreter that imports biopc (and with it
    numpy) from src/: the start-up a user pays before any work."""
    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); import biopc"
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], check=True, stdin=subprocess.DEVNULL)
    return time.perf_counter() - t0


def environment(blas_threads: int) -> dict:
    import numpy as np
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    cpu = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_threads": blas_threads,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "cpu": cpu,
    }


def median_call_seconds(fn, min_block_s: float = 0.02, blocks: int = 7) -> float:
    """Median seconds per call over `blocks` blocks of repeated calls."""
    reps = 1
    while True:
        t0 = time.perf_counter()
        for _ in range(reps):
            fn()
        if time.perf_counter() - t0 >= min_block_s:
            break
        reps *= 2
    times = []
    for _ in range(blocks):
        t0 = time.perf_counter()
        for _ in range(reps):
            fn()
        times.append((time.perf_counter() - t0) / reps)
    return statistics.median(times)


class Bench:
    def __init__(self, biopc, sizes: Sizes, seed: int, work: Path):
        import numpy as np
        from biopc import checkpoint, cli, dataio, experiments, training
        self.np = np
        self.biopc = biopc
        self.checkpoint = checkpoint
        self.cli = cli
        self.dataio = dataio
        self.experiments = experiments
        self.training = training
        self.sizes = sizes
        self.seed = seed
        self.work = work
        self.expected_eval = {}

    def overrides(self, row: str) -> dict:
        if row in EXTRA_ROWS:
            return EXTRA_ROWS[row]
        return self.experiments.TABLE_ROWS[row][0]

    def config(self, row: str, epochs: int, out_dir: Path):
        return self.experiments.make_config("mnist", self.seed, self.overrides(row),
                                            epochs=epochs, out_dir=str(out_dir))

    # -- setup ----------------------------------------------------------------

    def setup(self) -> float:
        """Generate the splits, write the eval IDX files, train and save the
        eval checkpoints. Returns seconds spent in synthetic_split for the
        eval split."""
        np, dataio, s = self.np, self.dataio, self.sizes
        self.train_split = dataio.synthetic_split(s.n_train, self.seed * 10 + 1, "train",
                                                  task_seed=self.seed)
        self.test_split = dataio.synthetic_split(s.n_test, self.seed * 10 + 2, "test",
                                                 task_seed=self.seed)
        t0 = time.perf_counter()
        eval_split = dataio.synthetic_split(s.n_eval, self.seed * 10 + 3, "test",
                                            task_seed=self.seed)
        synthetic_s = time.perf_counter() - t0

        self.data_dir = self.work / "data"
        mnist = self.data_dir / "mnist"
        mnist.mkdir(parents=True, exist_ok=True)
        dataio.write_idx_images(mnist / "t10k-images-idx3-ubyte",
                                np.rint(eval_split.images.T * 255.0).astype(np.uint8))
        dataio.write_idx_labels(mnist / "t10k-labels-idx1-ubyte", eval_split.labels)
        del eval_split

        prep = dataio.DatasetSplit(self.train_split.images[:, :s.n_prep],
                                   self.train_split.labels[:s.n_prep], "train")
        self.checkpoints = {}
        for kind in EVAL_KINDS:
            cfg = self.config(kind, 1, self.work / "ckpt" / kind)
            self.checkpoints[kind] = self.biopc.train(cfg, prep, self.test_split).checkpoint_path
        return synthetic_s

    def prepare_checks(self) -> None:
        """In-process evaluate() on each eval checkpoint, the reference the
        printed `biopc eval` figures must equal."""
        split = self.dataio.load_split(self.data_dir, "mnist", "test")
        for kind, path in self.checkpoints.items():
            model, _ = self.checkpoint.load_checkpoint(path)
            self.expected_eval[kind] = self.training.evaluate(model, split)

    # -- operations -------------------------------------------------------------

    def run(self, op: Op, tag: str, tracer=None):
        """Run one operation; returns (seconds, samples, projected seconds of a
        25-epoch MNIST run or None, SHA-256 of its output: the checkpoint
        file, or the printed eval line). Checks run after the timed call,
        with any wrappers removed."""
        if tracer is not None:
            tracer.install(op.label)
        try:
            if op.kind == "train":
                cfg = self.config(op.name, self.sizes.epochs, self.work / "runs" / op.name / tag)
                epoch_ends = []
                log = lambda line: epoch_ends.append(time.perf_counter())
                t0 = time.perf_counter()
                result = self.biopc.train(cfg, self.train_split, self.test_split, log=log)
                seconds = time.perf_counter() - t0
            else:
                argv = ["eval", "--checkpoint", str(self.checkpoints[op.name]),
                        "--data-dir", str(self.data_dir), "--dataset", "mnist",
                        "--split", "test"]
                out = io.StringIO()
                t0 = time.perf_counter()
                with contextlib.redirect_stdout(out):
                    code = self.cli.main(argv)
                seconds = time.perf_counter() - t0
        finally:
            if tracer is not None:
                tracer.uninstall()
        if op.kind == "train":
            self.check_train(op.name, result)
            digest = hashlib.sha256(result.checkpoint_path.read_bytes()).hexdigest()
            return (seconds, self.sizes.n_train * self.sizes.epochs,
                    self.projection(seconds, epoch_ends), digest)
        self.check_eval(op.name, code, out.getvalue())
        return (seconds, self.sizes.n_eval, None,
                hashlib.sha256(out.getvalue().encode()).hexdigest())

    def projection(self, seconds: float, epoch_ends: list):
        """Seconds of a PROJ_EPOCHS-epoch run on PROJ_SAMPLES samples.

        `train()` calls `log` once at the end of each epoch, after that
        epoch's train and test evaluation. An epoch after the first is
        timed between two such calls; it covers the batches and both
        evaluations, which all scale with the number of samples (the test
        split is 1/6 of the train split, as in MNIST). The rest of the call
        (model and Adam set-up, the first epoch's extra cost, the metrics
        CSV and the checkpoint write) is paid once per run and is added
        once, unscaled. None if `log` was not called once per epoch."""
        if len(epoch_ends) != self.sizes.epochs:
            return None
        per_epoch = (epoch_ends[-1] - epoch_ends[0]) / (len(epoch_ends) - 1)
        once = seconds - len(epoch_ends) * per_epoch
        return once + PROJ_EPOCHS * per_epoch * PROJ_SAMPLES / self.sizes.n_train

    def check_train(self, row: str, result) -> None:
        np = self.np
        values = [v for m in result.metrics for v in (m.error, m.objective)]
        if not all(math.isfinite(v) for v in values):
            raise CheckFailed(f"{row}: non-finite error or objective in the metrics rows")
        train_obj = [m.objective for m in result.metrics if m.split == "train"]
        if not train_obj[-1] < train_obj[0]:
            raise CheckFailed(f"{row}: train objective did not fall: {train_obj}")
        reloaded, _ = self.checkpoint.load_checkpoint(result.checkpoint_path)
        x = self.test_split.images
        if not np.array_equal(reloaded.predict(x), result.model.predict(x)):
            raise CheckFailed(f"{row}: reloaded checkpoint predicts differently")

    def check_eval(self, kind: str, code: int, printed: str) -> None:
        if code != 0:
            raise CheckFailed(f"eval {kind}: exit code {code}")
        found = re.search(r"error=(\S+) objective=(\S+)", printed)
        if found is None:
            raise CheckFailed(f"eval {kind}: unexpected output {printed!r}")
        got = (float(found.group(1)), float(found.group(2)))
        if got != self.expected_eval[kind]:
            raise CheckFailed(f"eval {kind}: printed {got}, evaluate() gives "
                              f"{self.expected_eval[kind]}")

    # -- kernels timed directly ---------------------------------------------------

    def kernel_metrics(self) -> dict:
        np, out = self.np, {}
        rng = np.random.default_rng(self.seed)
        linalg = self.biopc.linalg
        matmul = getattr(linalg, "matmul", None)
        if matmul is not None:
            for m, k, n in ((300, 784, 64), (300, 300, 64), (300, 784, 4096)):
                a, b = rng.random((m, k)), rng.random((k, n))
                t = median_call_seconds(lambda: matmul(a, b))
                out[f"linalg.matmul_gflops.{m}x{k}x{n}"] = (2.0 * m * k * n / t / 1e9, "GFLOP/s")
        activate = getattr(linalg, "activate", None)
        kinds = getattr(linalg, "ActivationKind", None)
        if activate is not None and kinds is not None:
            for m, n in ((300, 64), (300, 4096)):
                x = rng.standard_normal((m, n))
                t = median_call_seconds(lambda: activate(kinds.SIGMOID, x))
                out[f"linalg.activate_ms.sigmoid.{m}x{n}"] = (t * 1e3, "ms")

        images, labels = self.train_split.images, self.train_split.labels
        plan = self.dataio.BatchPlan(64, self.seed)
        batches = list(plan.batches(1, self.train_split.n_samples))
        one_hot = self.dataio.one_hot

        def all_batches():
            for idx in batches:
                images[:, idx]
                one_hot(labels[idx])
        out["dataio.batch_ms"] = (median_call_seconds(all_batches) / len(batches) * 1e3, "ms")
        return out


# -- tracing ---------------------------------------------------------------------


def _shape(x) -> str:
    shape = getattr(x, "shape", ())
    return "x".join(str(d) for d in shape)


class BiopcTracer(Tracer):
    """Tracer with the wrapper table for biopc's layers, plus a probe that
    records ||delta a|| over the hidden levels at the first and last
    activity step of each relaxation (ratios kept per traced row)."""

    def __init__(self, np):
        super().__init__()
        self.np = np
        self.residual_ratios = {}
        self._relax = None

    def around_relax(self, call, *args, **kwargs):
        n_steps = args[2] if len(args) > 2 else kwargs.get("n_steps", 0)
        self._relax = {"n": n_steps, "i": 0, "first": None, "last": None}
        try:
            return call(*args, **kwargs)
        finally:
            r, self._relax = self._relax, None
            if r["first"] and r["last"] is not None:
                self.residual_ratios.setdefault(self.row, []).append(r["last"] / r["first"])

    def around_step(self, call, *args, **kwargs):
        r = self._relax
        if r is None:
            return call(*args, **kwargs)
        i = r["i"]
        r["i"] += 1
        if i not in (0, r["n"] - 1):
            return call(*args, **kwargs)
        state = args[1] if len(args) > 1 else kwargs["state"]
        before = [a.copy() for a in state.a[1:-1]]
        result = call(*args, **kwargs)
        delta = math.sqrt(sum(float(self.np.sum((a - b) ** 2))
                              for a, b in zip(state.a[1:-1], before)))
        if i == 0:
            r["first"] = delta
        if i == r["n"] - 1:
            r["last"] = delta
        return result

    def install(self, row: str) -> None:
        self.row = row
        cols = lambda self, x, *a, **k: {"cols": getattr(x, "shape", (0, 0))[1]}
        split_n = lambda model, split, *a, **k: {"n": getattr(split, "n_samples", 0)}
        for target, name, attrs, around in (
            ("biopc.network:PCNetwork.init_forward", "network.init_forward", None, None),
            ("biopc.network:PCNetwork.relax", "network.relax", None, self.around_relax),
            ("biopc.network:PCNetwork.compute_errors", "network.compute_errors", None, None),
            ("biopc.network:PCNetwork.activity_step", "network.activity_step", None,
             self.around_step),
            ("biopc.network:PCNetwork.weight_update_direction",
             "network.weight_update_direction", None, None),
            ("biopc.network:PCNetwork.objective", "network.objective", None, None),
            ("biopc.network:PCNetwork.predict", "network.predict", cols, None),
            ("biopc.training:kp_step", "network.kp_step",
             lambda w, *a, **k: {"shape": _shape(w)}, None),
            ("biopc.training:adam_step", "optim.adam_step",
             lambda state, *a, **k: {"shape": _shape(getattr(state, "m", None))}, None),
            ("biopc.baseline:MLP.loss", "baseline.loss", None, None),
            ("biopc.baseline:MLP.backward", "baseline.backward", None, None),
            ("biopc.baseline:MLP.predict", "baseline.predict", cols, None),
            ("biopc.training:classification_error", "training.classification_error",
             split_n, None),
            ("biopc.training:output_objective", "training.output_objective", split_n, None),
            ("biopc.training:save_checkpoint", "checkpoint.save", None, None),
            ("biopc.cli:load_checkpoint", "checkpoint.load", None, None),
            ("biopc.dataio:load_split", "dataio.load_split", None, None),
        ):
            self.wrap(target, name, attrs, around)

    def uninstall(self) -> None:
        self.unwrap_all()
        self.row = None


# share metric -> the spans it adds up. None of these spans nests inside
# another, so the shares can be summed.
SHARES = {
    "share.network.relax_pct": ("network.relax",),
    "share.optim.adam_step_pct": ("optim.adam_step",),
    "share.baseline.loss_backward_pct": ("baseline.loss", "baseline.backward"),
    "share.training.evaluate_pct": ("training.classification_error",
                                    "training.output_objective"),
    "share.checkpoint.save_load_pct": ("checkpoint.save", "checkpoint.load"),
}


def layer_metrics(tracer: BiopcTracer, traced_seconds: float) -> dict:
    """Per-layer metrics from the traced spans. Per-call figures are
    inclusive medians; the training.* figures are self times (the model's
    predict excluded); share.* figures are inclusive time over
    `traced_seconds`, the wall time of all traced operations. A name that
    was never traced yields no metric."""
    out = {}

    def median_ms(name, row=None, keep=lambda s: True):
        spans = [s for s in tracer.select(name, row) if keep(s)]
        return statistics.median(s.seconds for s in spans) * 1e3 if spans else None

    def put(metric, value, unit):
        if value is not None:
            out[metric] = (value, unit)

    for row in PC_ROWS:
        label = TRAIN_OPS[row].label
        for fn in ("compute_errors", "activity_step", "init_forward",
                   "weight_update_direction", "objective"):
            put(f"network.{fn}_ms.{row}", median_ms(f"network.{fn}", label), "ms")
        ratios = tracer.residual_ratios.get(label)
        put(f"network.relax_residual_ratio.{row}",
            statistics.median(ratios) if ratios else None, "ratio")
    for shape in ("300x784", "300x300", "10x300"):
        put(f"network.kp_step_ms.{shape}",
            median_ms("network.kp_step", keep=lambda s: s.attrs.get("shape") == shape), "ms")
        put(f"optim.adam_step_ms.{shape}",
            median_ms("optim.adam_step", keep=lambda s: s.attrs.get("shape") == shape), "ms")
    put("network.predict_ms",
        median_ms("network.predict", keep=lambda s: s.attrs.get("cols") == 4096), "ms")
    put("baseline.loss_ms", median_ms("baseline.loss"), "ms")
    put("baseline.backward_ms", median_ms("baseline.backward"), "ms")
    for fn in ("classification_error", "output_objective"):
        spans = tracer.select(f"training.{fn}")
        samples = sum(s.attrs.get("n", 0) for s in spans)
        if samples:
            put(f"training.{fn}_ms_per_ksample",
                sum(s.self_seconds for s in spans) * 1e3 / (samples / 1000), "ms/ksample")
    for metric, names in SHARES.items():
        spans = [s for name in names for s in tracer.select(name)]
        put(metric, 100.0 * sum(s.seconds for s in spans) / traced_seconds
            if spans and traced_seconds else None, "%")
    load_ms = median_ms("dataio.load_split")
    put("dataio.load_split_s", load_ms / 1e3 if load_ms is not None else None, "s")
    for kind in EVAL_KINDS:
        put(f"checkpoint.save_ms.{kind}", median_ms("checkpoint.save", TRAIN_OPS[kind].label), "ms")
        put(f"checkpoint.load_ms.{kind}", median_ms("checkpoint.load", f"eval:{kind}"), "ms")

    from biopc.config import DATASET_DEFAULTS, NETWORK_DIMS
    d, b = NETWORK_DIMS, 64
    L = len(d) - 1
    sweep = sum(2 * d[l + 1] * d[l] * b for l in range(L))
    relax_step = (sum(2 * d[l] * d[l + 1] * b for l in range(1, L))     # feedback products
                  + sum(2 * d[l] * d[l - 1] * b for l in range(2, L + 1)))  # refreshed predictions
    # PC: forward sweep, n relaxation steps, weight directions (sweep-sized).
    # BP: forward in loss, forward and gradients in backward, propagation.
    pc = 2 * sweep + DATASET_DEFAULTS["mnist"]["n_updates"] * relax_step
    bp = 3 * sweep + sum(2 * d[l - 1] * d[l] * b for l in range(2, L + 1))
    for row in ROWS:
        put(f"linalg.gemm_mflop_per_batch.{row}", (bp if row == "backprop" else pc) / 1e6,
            "MFLOP-computed")
    return out


# -- schedule ----------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="small inputs, one set-up (smoke test)")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    sizes = TINY if args.tiny else FULL

    blas_threads = cap_blas_threads()
    biopc = import_biopc()
    import numpy as np

    shutil.rmtree(WORK, ignore_errors=True)
    try:
        return measure(args, sizes, biopc, np, blas_threads)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)


def measure(args, sizes, biopc, np, blas_threads) -> int:
    bench = Bench(biopc, sizes, args.seed, WORK)
    workload = WORKLOADS[args.workload]
    # Each set-up repetition: a fresh interpreter's import, then the data
    # and checkpoint set-up in this process. setup_s is their median.
    setup_times, synthetic_times = [], []
    for _ in range(sizes.setup_reps):
        t0 = time.perf_counter()
        import_seconds()
        synthetic_times.append(bench.setup())
        setup_times.append(time.perf_counter() - t0)
    bench.prepare_checks()

    tracer = BiopcTracer(np) if args.trace else None

    attempted = failed = 0
    timings = {}         # (op label, traced) -> [(seconds, samples, projected seconds)]
    start = time.perf_counter()
    ran = set()  # the run goes on until every operation has run once
    for i, op in workload.schedule():
        if len(ran) == len(ALL_OPS) and time.perf_counter() - start >= args.seconds:
            break
        ran.add(op)
        # Traced runs alternate which side of the pair goes first.
        sides = (False,) if tracer is None else ((False, True), (True, False))[i % 2]
        outputs = {}
        for traced in sides:
            attempted += 1
            try:
                *timing, outputs[traced] = bench.run(
                    op, "traced" if traced else "plain", tracer if traced else None)
                timings.setdefault((op.label, traced), []).append(timing)
            except Exception as err:  # an operation failure is counted, not fatal
                failed += 1
                print(f"perfbench: {op.label} failed: {err!r}", file=sys.stderr)
                traceback.print_exc(file=sys.stderr)
        if len(outputs) == 2 and outputs[False] != outputs[True]:
            failed += 1
            print(f"perfbench: {op.label}: traced output differs from untraced",
                  file=sys.stderr)

    def sps(label, traced=False):
        runs = timings.get((label, traced))
        return statistics.median(n / s for s, n, _ in runs) if runs else None

    def total_seconds(traced):
        return sum(s for (_, t), runs in timings.items() if t == traced for s, _, _ in runs)

    metrics = {}
    if tracer is None:
        for row in ROWS:
            metrics[f"train_sps.{row}"] = (sps(TRAIN_OPS[row].label), "1/s")
        eval_runs = [n / s for op in EVAL_OPS for s, n, _ in timings.get((op.label, False), [])]
        metrics["eval_sps"] = (statistics.median(eval_runs) if eval_runs else None, "1/s")
        proj = [[p for _, _, p in timings.get((TRAIN_OPS[r].label, False), [])]
                for r in workload.proj_rows]
        metrics["run25_proj_s"] = (statistics.mean(statistics.median(p) for p in proj)
                                   if all(p and None not in p for p in proj) else None, "s")
        metrics["setup_s"] = (statistics.median(setup_times), "s")
        metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    else:
        metrics.update(layer_metrics(tracer, total_seconds(True)))
        metrics.update(bench.kernel_metrics())
        metrics["dataio.synthetic_split_s"] = (statistics.median(synthetic_times), "s")
        for kind, path in bench.checkpoints.items():
            metrics[f"checkpoint.bytes.{kind}"] = (path.stat().st_size, "bytes")
        plain = traced = 0.0
        for row in ROWS:
            label = TRAIN_OPS[row].label
            a, b = sps(label), sps(label, True)
            metrics[f"trace.train_sps_delta.{row}"] = (b - a if a and b else None, "1/s")
            plain += sum(s for s, _, _ in timings.get((label, False), []))
            traced += sum(s for s, _, _ in timings.get((label, True), []))
        metrics["trace.overhead_pct"] = (100.0 * (traced / plain - 1.0) if plain else None, "%")
        for target in tracer.missing:
            print(f"perfbench: {target} not found; its metrics are absent", file=sys.stderr)
        SPANS.mkdir(exist_ok=True)
        tracer.write(SPANS / f"{args.workload}-seed{args.seed}.jsonl")

    # Each operation's share of the untraced operation time, and its calls.
    measured = total_seconds(False)
    shares = {label: {"share": sum(s for s, _, _ in runs) / measured, "calls": len(runs)}
              for (label, t), runs in sorted(timings.items()) if not t}
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in sorted(metrics.items()) if value is not None},
    }
    print(json.dumps({"env": environment(blas_threads), "operations": shares}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
