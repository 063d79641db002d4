#!/usr/bin/env python3
"""Write same-seed digests of one biopc source tree, to compare two trees.

Imports biopc from SRC_DIR and writes OUT_JSON holding, for each row
configuration (the six table rows, `pc_threshold`, `tanh_pos_bias`, a
Kolen-Pollack + threshold + tanh row, backprop with tanh and a hidden
shift of 0.1, division with tanh hidden levels and a shift of 1.0, `pc`,
`pc_div`, `kp_pc` and `backprop` again in batches of 48, and `pc` again as
`pc_idx`), trained for 2 epochs on 640 synthetic MNIST-shaped samples:

* the SHA-256 of the `.pcck` checkpoint bytes,
* the SHA-256 of the metrics CSV without its `seconds` column,
* the reprs of `evaluate` (error, objective) on a 9001-sample split,
* the same reprs on what `load_split` returns for IDX files holding that
  split's pixels, rounded to bytes, and a 9-sample split's, each written
  plain and gzipped: this covers the IDX loader and a first product over
  the image layout it returns,
* the class name of the model that `load_checkpoint` makes from the
  `.pcck` file, and `evaluate` of that reloaded model on the 9001-sample
  split, and per reloaded Adam state the SHA-256 of its `m` and `v` bytes
  and the reprs of its `step_count` and `lr`: this covers the checkpoint
  loader,
* the SHA-256 of the `predict` output bytes on the first 1, 511, 512,
  513, 1023, 1024, 1535 and 4500 samples of that split, each as a C- and
  a Fortran-ordered matrix: these widths sit on both sides of the edges
  of `predict`'s column blocks,
* the reprs of the finalized `TrainConfig` fields (`dataclasses.asdict`),
  with the temporary work directory in its paths written as `WORK`: this
  covers how `experiments.make_config` and `finalize` build a run;

plus the `max_rel_err` reprs and the verdict of `run_gradcheck` (or the
encoding-domain error it raised) for every encoding x feedback x
hidden-activation combination that `biopc gradcheck` accepts, and the
SHA-256 of every IDX file the script wrote with `write_idx_images` and
`write_idx_labels` (a gzipped file's decompressed bytes, since the gzip
header carries a time stamp): this covers the IDX writer byte for byte.
A refactor that moves no output bit gives the same file as its parent
commit.

The `pc_idx` row is trained by `train(cfg)` alone, which loads its train
and test splits from IDX files holding the synthetic splits' pixels,
rounded to bytes (the train file plain, the test file gzipped): this covers
training and per-epoch evaluation on the splits `load_split` returns, with
batches gathered from them. The other rows are given the synthetic splits.

In batches of 64, 640 samples make 10 full batches. The `*_b48` rows split
them into 13 batches of 48 and a last one of 16, so code whose arrays
depend on the batch width also meets a narrower batch mid-run. The
`backprop_tanh_bias` row has shifted hidden levels, whose effective
prediction is not their activation array. The `div_tanh_bias` row takes
the shift `run_gradcheck` gives division with tanh, which keeps its
predictions non-negative; its relaxation runs the tanh derivative and the
division top-down term in one network.

Example, against the parent commit:
    git worktree add ../parent HEAD~1
    python scripts/sameseed.py ../parent/src parent.json
    python scripts/sameseed.py src change.json
    cmp parent.json change.json && echo same
    git worktree remove ../parent

`--rows pc,kp_pc` trains only the rows named; the gradcheck and IDX
sections are written whole. `tests/test_sameseed.py` runs such a subset.

Matrix products can round differently at another BLAS thread count, so
compare files written at the same one: set OPENBLAS_NUM_THREADS (or the
variable of the BLAS in use) for both runs. The file's top-level "key"
record (`key_record`) names what the bits depend on: the numpy version,
numpy's BLAS name, version and configuration string (from
`np.show_config(mode="dicts")`; a DYNAMIC_ARCH OpenBLAS picks its kernels
by CPU), the CPU model and the effective BLAS thread count (the first of
OPENBLAS_NUM_THREADS, OMP_NUM_THREADS and MKL_NUM_THREADS that is set,
else the usable CPUs, capped at those), so two files written under other
such conditions differ in a field that names the cause. `key_name` turns
the record into the name of the stored digests that
`tests/test_sameseed.py` compares a run with
(`tests/golden/sameseed-<key_name>.json`).
"""

import argparse
import dataclasses
import gzip
import hashlib
import json
import os
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np

EPOCHS = 2
TRAIN_SAMPLES = 640
TEST_SAMPLES = 256
EVAL_SAMPLES = 9001
# Samples of the second IDX eval split, narrower than one prediction block.
IDX_SHORT = 9
SEED = 1
# 640 = 13 x 48 + 16: the last batch of an epoch is narrower.
SHORT_BATCH = 48
# The row that `train(cfg)` trains from IDX files.
IDX_ROW = "pc_idx"
# Batch widths at and around the edges of predict's 512-column blocks.
PREDICT_WIDTHS = (1, 511, 512, 513, 1023, 1024, 1535, 4500)
# The environment variables that set a BLAS's thread count.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _rows(experiments) -> dict:
    rows = {name: overrides for name, (overrides, _, _) in experiments.TABLE_ROWS.items()}
    rows["pc_threshold"] = dict(encoding="threshold")
    rows["tanh_pos_bias"] = experiments.POSITIVITY_ROWS["tanh_pos_bias"]
    rows["kp_threshold_tanh"] = dict(feedback="kp", encoding="threshold",
                                     hidden_activation="tanh")
    rows["backprop_tanh_bias"] = dict(rows["backprop"], hidden_activation="tanh", bias=0.1)
    rows["div_tanh_bias"] = dict(rows["pc_div"], hidden_activation="tanh", bias=1.0)
    for name in ("pc", "pc_div", "kp_pc", "backprop"):
        rows[f"{name}_b48"] = dict(rows[name], batch_size=SHORT_BATCH)
    rows[IDX_ROW] = rows["pc"]
    return rows


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _blas_threads() -> int:
    """The BLAS thread count in effect: the first thread variable set to a
    positive count, capped at the usable CPUs, else the usable CPUs."""
    usable = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
              else os.cpu_count())
    for var in BLAS_THREAD_VARS:
        value = os.environ.get(var, "").strip()
        if value.isdigit() and int(value) > 0:
            return min(int(value), usable)
    return usable


def key_record() -> dict:
    """What this process's output bits depend on besides the source tree."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "blas": blas["name"], "blas_version": blas["version"],
            "blas_configuration": blas.get("openblas configuration"), "cpu": _cpu_model(),
            "blas_threads": _blas_threads()}


def key_name(record: dict) -> str:
    """A file-name-safe digest of a key record."""
    return _sha256(json.dumps(record, sort_keys=True).encode())[:16]


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _pixels(split) -> np.ndarray:
    """A float split's images rounded to bytes, one row per sample."""
    return np.rint(split.images.T * 255.0).astype(np.uint8)


def _write_idx_splits(dataio, data_dir: Path, splits) -> dict:
    """Write each split's pixels, rounded to bytes, as a plain and a gzipped
    IDX test split; returns {key: data dir} for `load_split`."""
    dirs = {}
    for split in splits:
        pixels = _pixels(split)
        for suffix in ("", ".gz"):
            key = f"idx{split.n_samples}{suffix}"
            mnist = data_dir / key / "mnist"
            mnist.mkdir(parents=True)
            dataio.write_idx_images(mnist / f"t10k-images-idx3-ubyte{suffix}", pixels)
            dataio.write_idx_labels(mnist / f"t10k-labels-idx1-ubyte{suffix}", split.labels)
            dirs[key] = data_dir / key
    return dirs


def _write_idx_train_test(dataio, data_dir: Path, train_split, test_split) -> Path:
    """Write a plain IDX train split and a gzipped test split for `train(cfg)`."""
    mnist = data_dir / "mnist"
    mnist.mkdir(parents=True)
    for split, stem, suffix in ((train_split, "train", ""), (test_split, "t10k", ".gz")):
        dataio.write_idx_images(mnist / f"{stem}-images-idx3-ubyte{suffix}", _pixels(split))
        dataio.write_idx_labels(mnist / f"{stem}-labels-idx1-ubyte{suffix}", split.labels)
    return data_dir


def _idx_digests(data_dir: Path) -> dict:
    """SHA-256 of each file under `data_dir`, keyed by relative path; for
    a .gz file, of its decompressed bytes."""
    return {str(path.relative_to(data_dir)):
            _sha256(gzip.decompress(path.read_bytes()) if path.suffix == ".gz"
                    else path.read_bytes())
            for path in sorted(data_dir.rglob("*")) if path.is_file()}


def _config_record(cfg, work_dir: Path) -> dict:
    """Reprs of the finalized config's fields, the work directory in its
    paths written as WORK so that two runs' records compare."""
    return {field: repr(value.replace(str(work_dir), "WORK") if isinstance(value, str) else value)
            for field, value in dataclasses.asdict(cfg.finalize()).items()}


def _adam_record(state) -> dict:
    """SHA-256 of an Adam state's m and v bytes and reprs of its scalars."""
    return {"m_sha256": _sha256(state.m.tobytes()), "v_sha256": _sha256(state.v.tobytes()),
            **{name: repr(getattr(state, name)) for name in ("step_count", "lr")}}


def _predict_digests(model, images: np.ndarray) -> dict:
    """SHA-256 of `predict`'s output bytes on the first columns of
    `images`, per width and memory order."""
    return {f"{width}{order}": _sha256(model.predict(np.asarray(images[:, :width],
                                                                order=order)).tobytes())
            for width in PREDICT_WIDTHS for order in "CF"}


def digests(work_dir: Path, only=None) -> dict:
    """The digests of every row, or of the rows named in `only`."""
    from biopc import dataio, experiments
    from biopc import encodings as enc
    from biopc.checkpoint import load_checkpoint
    from biopc.linalg import ActivationKind
    from biopc.network import FEEDBACK_SCHEMES
    from biopc.training import evaluate, run_gradcheck, train

    train_split = dataio.synthetic_split(TRAIN_SAMPLES, seed=1)
    test_split = dataio.synthetic_split(TEST_SAMPLES, seed=2, name="test")
    eval_split = dataio.synthetic_split(EVAL_SAMPLES, seed=3, name="test")
    idx_dirs = _write_idx_splits(dataio, work_dir / "data",
                                 (eval_split, dataio.synthetic_split(IDX_SHORT, seed=4)))
    train_dir = _write_idx_train_test(dataio, work_dir / "data" / "train_test",
                                      train_split, test_split)
    out = {"key": key_record(), "rows": {}, "gradcheck": {},
           "idx_sha256": _idx_digests(work_dir / "data")}
    rows = _rows(experiments)
    unknown = set(only or ()) - set(rows)
    if unknown:
        raise SystemExit(f"unknown rows {sorted(unknown)}; the rows are {list(rows)}")
    for name in only or rows:
        overrides = rows[name]
        from_idx = name == IDX_ROW
        cfg = experiments.make_config("mnist", SEED, overrides, epochs=EPOCHS,
                                      out_dir=str(work_dir / name),
                                      data_dir=str(train_dir) if from_idx else None)
        result = train(cfg) if from_idx else train(cfg, train_split, test_split)
        metrics = "".join(line.rsplit(",", 1)[0] + "\n"
                          for line in result.metrics_path.read_text().splitlines())
        reloaded, adams = load_checkpoint(result.checkpoint_path)
        out["rows"][name] = {
            "config": _config_record(cfg, work_dir),
            "pcck_sha256": _sha256(result.checkpoint_path.read_bytes()),
            "metrics_sha256": _sha256(metrics.encode()),
            "evaluate": [repr(v) for v in evaluate(result.model, eval_split)],
            "reloaded_class": type(reloaded).__name__,
            "reloaded_evaluate": [repr(v) for v in evaluate(reloaded, eval_split)],
            "reloaded_adam": [_adam_record(state) for state in adams],
            "predict_sha256": _predict_digests(result.model, eval_split.images),
            "evaluate_idx": {
                key: [repr(v) for v in evaluate(result.model,
                                                dataio.load_split(d, "mnist", "test"))]
                for key, d in idx_dirs.items()},
        }
    for encoding in enc.ENCODINGS:
        for feedback in FEEDBACK_SCHEMES:
            for act in ActivationKind:
                key = f"{encoding.name}/{feedback.name}/{act.value}"
                try:
                    report = run_gradcheck(encoding(), feedback(), hidden_activation=act)
                except enc.EncodingDomainError as err:
                    out["gradcheck"][key] = {"error": str(err)}
                    continue
                out["gradcheck"][key] = {
                    "max_rel_err": [repr(c.max_rel_err) for c in report.checks],
                    "passed": report.passed,
                }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("src_dir", help="directory holding the biopc package")
    parser.add_argument("out_json", help="where to write the digests")
    parser.add_argument("--rows", type=lambda text: text.split(","),
                        help="comma-separated row names to train (default: every row); "
                             "the other sections are written whole")
    args = parser.parse_args(argv)

    src = Path(args.src_dir).resolve()
    sys.path.insert(0, str(src))
    import biopc
    if Path(biopc.__file__).resolve().parent.parent != src:
        raise SystemExit(f"biopc was imported from {biopc.__file__}, not from {src}")
    with tempfile.TemporaryDirectory() as tmp:
        result = digests(Path(tmp), args.rows)
    Path(args.out_json).write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
