import os
import shutil
from pathlib import Path

import numpy as np
import pytest

from biopc import dataio
from biopc.linalg import ActivationKind, activate


def activate_deriv(kind: ActivationKind, x) -> np.ndarray:
    """Reference f'(x) at the pre-activation, from f itself; the models take
    f' from the stored activation instead."""
    f = activate(kind, x)
    if kind is ActivationKind.SIGMOID:
        return f * (1.0 - f)
    return 1.0 - f * f


def write_fake_idx_dataset(root, dataset="mnist", n_train=512, n_test=128, task_seed=0):
    """Quantize synthetic splits into real IDX files under root/<dataset>/."""
    d = Path(root) / dataset
    d.mkdir(parents=True, exist_ok=True)
    train = dataio.synthetic_split(n_train, seed=1, task_seed=task_seed)
    test = dataio.synthetic_split(n_test, seed=2, task_seed=task_seed)
    for split, (img_name, lab_name) in zip(
        (train, test),
        (("train-images-idx3-ubyte", "train-labels-idx1-ubyte"),
         ("t10k-images-idx3-ubyte.gz", "t10k-labels-idx1-ubyte.gz")),
    ):
        pixels = np.rint(split.images.T * 255.0).astype(np.uint8)
        dataio.write_idx_images(d / img_name, pixels)
        dataio.write_idx_labels(d / lab_name, split.labels)
    return Path(root)


def pytest_addoption(parser):
    parser.addoption(
        "--data-dir",
        default=os.environ.get("BIOPC_DATA_DIR"),
        help="directory holding MNIST/Fashion-MNIST IDX files; enables the "
             "dataset-marked tests",
    )
    parser.addoption(
        "--run-slow",
        action="store_true",
        default=False,
        help="also run the slow dataset experiments (Fashion-MNIST)",
    )


def pytest_collection_modifyitems(config, items):
    if config.getoption("--run-slow"):
        return
    skip_slow = pytest.mark.skip(reason="slow experiment; pass --run-slow to include")
    for item in items:
        if "slow" in item.keywords:
            item.add_marker(skip_slow)


@pytest.fixture(scope="session", autouse=True)
def no_runs_dir_created():
    """Fails the run if the suite made `runs/`, TrainConfig's default
    out_dir, in the working directory: every run a test trains writes, so
    each must be given an out_dir under a tmp dir. What was made is removed,
    so the next run fails too until the test is mended."""
    runs = Path("runs")
    existed = runs.exists()
    yield
    if not existed and runs.exists():
        made = sorted(str(p) for p in runs.rglob("*"))
        shutil.rmtree(runs)
        pytest.fail(f"the suite created {runs.resolve()} (holding {made}); give every "
                    "training run an out_dir under a tmp dir")


def _has_dataset(data_dir, dataset):
    try:
        for name in ("train-images-idx3-ubyte", "train-labels-idx1-ubyte",
                     "t10k-images-idx3-ubyte", "t10k-labels-idx1-ubyte"):
            dataio.resolve_idx_path(data_dir, dataset, name)
    except dataio.IdxError:
        return False
    return True


@pytest.fixture(scope="session")
def data_dir(request):
    path = request.config.getoption("--data-dir")
    if not path or not Path(path).is_dir():
        pytest.skip("no --data-dir/BIOPC_DATA_DIR with IDX datasets")
    return Path(path)


@pytest.fixture(scope="session")
def mnist_dir(data_dir):
    if not _has_dataset(data_dir, "mnist"):
        pytest.skip(f"MNIST IDX files not found under {data_dir}")
    return data_dir


@pytest.fixture(scope="session")
def fashion_dir(data_dir):
    if not _has_dataset(data_dir, "fashion"):
        pytest.skip(f"Fashion-MNIST IDX files not found under {data_dir}")
    return data_dir


@pytest.fixture(scope="session")
def mnist_splits(mnist_dir):
    return (dataio.load_split(mnist_dir, "mnist", "train"),
            dataio.load_split(mnist_dir, "mnist", "test"))


@pytest.fixture(scope="session")
def fake_data_dir(tmp_path_factory):
    """Session-scoped MNIST-shaped synthetic dataset on disk, IDX format."""
    return write_fake_idx_dataset(tmp_path_factory.mktemp("fakedata"))
