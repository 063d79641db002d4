"""IDX containers, one-hot targets, batch plans and the synthetic dataset."""

import struct
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from biopc import dataio


def _write_images(tmp_path, pixels, name="imgs-idx3-ubyte"):
    path = tmp_path / name
    dataio.write_idx_images(path, pixels)
    return path


class TestImages:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        pixels = rng.integers(0, 256, size=(17, 784), dtype=np.uint8)
        path = _write_images(tmp_path, pixels)
        loaded = dataio.load_idx_images(path)
        assert loaded.shape == (784, 17)
        np.testing.assert_array_equal(loaded, pixels.T.astype(np.float64) / 255.0)

    def test_gzip_round_trip(self, tmp_path):
        rng = np.random.default_rng(1)
        pixels = rng.integers(0, 256, size=(5, 784), dtype=np.uint8)
        path = _write_images(tmp_path, pixels, name="imgs-idx3-ubyte.gz")
        assert path.read_bytes()[:2] == b"\x1f\x8b"
        loaded = dataio.load_idx_images(path)
        np.testing.assert_array_equal(loaded, pixels.T.astype(np.float64) / 255.0)

    @pytest.mark.parametrize("name", ["imgs-idx3-ubyte", "imgs-idx3-ubyte.gz"])
    def test_fortran_ordered_same_bytes_as_reference(self, tmp_path, name):
        # The reference is the former three-pass load: a transposed uint8
        # copy, its float64 conversion, then the division.
        pixels = np.random.default_rng(2).integers(0, 256, size=(300, 784), dtype=np.uint8)
        loaded = dataio.load_idx_images(_write_images(tmp_path, pixels, name=name))
        reference = np.ascontiguousarray(pixels.T).astype(np.float64) / 255.0
        assert loaded.flags.f_contiguous and loaded.dtype == np.float64
        assert loaded.tobytes(order="C") == reference.tobytes()
        idx = np.random.default_rng(3).permutation(300)[:64]
        batch = loaded[:, idx]
        assert batch.tobytes() == reference[:, idx].tobytes()

    @pytest.mark.parametrize("bad", [300, -1, 0.7, np.nan, np.inf, -np.inf, 256.0],
                             ids=["above_255", "negative", "fraction", "nan", "inf",
                                  "minus_inf", "float_256"])
    def test_writer_refuses_values_no_byte_holds(self, tmp_path, bad):
        pixels = np.zeros((2, 784), dtype=np.asarray(bad).dtype)
        pixels[1, 5] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(dataio.IdxError,
                               match=rf"imgs: {pixels.dtype} values must be whole numbers"):
                _write_images(tmp_path, pixels, name="imgs")
        assert not (tmp_path / "imgs").exists()

    @pytest.mark.parametrize("shape", [(784,), (2, 28, 28), (2, 783)], ids=["1d", "3d", "width"])
    def test_writer_refuses_pixels_not_n_by_rows_cols(self, tmp_path, shape):
        with pytest.raises(dataio.IdxError,
                           match=r"imgs: pixels have shape \(.*\), expected N x 784$"):
            _write_images(tmp_path, np.zeros(shape, dtype=np.uint8), name="imgs")

    @pytest.mark.parametrize("dtype", [np.int64, np.float64, np.float32, np.uint16])
    def test_whole_byte_values_of_any_dtype_write_the_uint8_bytes(self, tmp_path, dtype):
        pixels = np.random.default_rng(5).integers(0, 256, size=(3, 784), dtype=np.uint8)
        reference = _write_images(tmp_path, pixels, name="ref").read_bytes()
        assert _write_images(tmp_path, pixels.astype(dtype), name="imgs").read_bytes() == reference

    @pytest.mark.parametrize("damage", [
        lambda gz: gz[:-100],  # truncated: EOFError
        lambda gz: gz[:-8] + bytes([gz[-8] ^ 1]) + gz[-7:],  # CRC mismatch: BadGzipFile
        lambda gz: gz[:10] + b"\x07" + gz[11:],  # invalid deflate block: zlib.error
    ], ids=["truncated", "crc", "block"])
    def test_damaged_gzip_is_idx_error(self, tmp_path, damage):
        pixels = np.random.default_rng(1).integers(0, 256, size=(5, 784), dtype=np.uint8)
        path = _write_images(tmp_path, pixels, name="imgs-idx3-ubyte.gz")
        path.write_bytes(damage(path.read_bytes()))
        with pytest.raises(dataio.IdxError, match="imgs-idx3-ubyte.gz"):
            dataio.load_idx_images(path)

    def test_byte_scaling_endpoints(self, tmp_path):
        pixels = np.array([[0] * 783 + [255]], dtype=np.uint8)
        loaded = dataio.load_idx_images(_write_images(tmp_path, pixels))
        assert loaded[-1, 0] == 1.0
        assert loaded[0, 0] == 0.0

    def test_corrupt_magic(self, tmp_path):
        path = tmp_path / "bad"
        path.write_bytes(struct.pack(">IIII", 0x00000999, 1, 28, 28) + b"\x00" * 784)
        with pytest.raises(dataio.IdxError, match="magic"):
            dataio.load_idx_images(path)

    def test_truncated_payload_names_offset(self, tmp_path):
        path = tmp_path / "short"
        path.write_bytes(struct.pack(">IIII", dataio.IMAGES_MAGIC, 2, 28, 28) + b"\x00" * 100)
        with pytest.raises(dataio.IdxError, match="offset"):
            dataio.load_idx_images(path)

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "tiny"
        path.write_bytes(b"\x00\x00")
        with pytest.raises(dataio.IdxError, match="truncated"):
            dataio.load_idx_images(path)

    def test_forged_sizes_do_not_overflow(self, tmp_path):
        # n * rows * cols = (2**32 - 1)**3 > 2**64: the expected length is
        # computed exactly, so the file is merely too short
        path = tmp_path / "forged"
        path.write_bytes(struct.pack(">IIII", dataio.IMAGES_MAGIC, *[2**32 - 1] * 3) + b"\x00")
        with pytest.raises(dataio.IdxError, match=f"expected {16 + (2**32 - 1) ** 3} .*offset 16"):
            dataio.load_idx_images(path)


class TestLabels:
    def test_round_trip(self, tmp_path):
        labels = np.array([0, 7, 3, 9, 9, 1])
        path = tmp_path / "labels-idx1-ubyte"
        dataio.write_idx_labels(path, labels)
        np.testing.assert_array_equal(dataio.load_idx_labels(path), labels)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad"
        path.write_bytes(struct.pack(">II", dataio.IMAGES_MAGIC, 1) + b"\x07")
        with pytest.raises(dataio.IdxError, match="magic"):
            dataio.load_idx_labels(path)

    @pytest.mark.parametrize("blob,message", [
        (struct.pack(">I", dataio.LABELS_MAGIC) + b"\x00\x00", r"6 bytes at offset 0 \(need 8\)"),
        (struct.pack(">II", 0x00000802, 1) + b"\x07", "bad magic 0x00000802 at offset 0"),
        (struct.pack(">II", dataio.LABELS_MAGIC, 3) + b"\x07", r"9 bytes, expected 11 .*offset 8"),
    ], ids=["short_header", "bad_magic", "payload_length"])
    def test_malformed_file_names_an_offset(self, tmp_path, blob, message):
        path = tmp_path / "lab"
        path.write_bytes(blob)
        with pytest.raises(dataio.IdxError, match="lab: .*" + message):
            dataio.load_idx_labels(path)

    @pytest.mark.parametrize("labels,message", [
        (np.zeros((3, 1)), "labels must be 1-D, got ndim=2"),
        (np.zeros((2, 2)), "labels must be 1-D, got ndim=2"),
        (np.array([1, 256]), "int64 values must be whole numbers in 0..255"),
        (np.array([1.7]), "float64 values must be whole numbers in 0..255"),
    ], ids=["column", "matrix", "out_of_range", "fraction"])
    def test_writer_refuses_what_no_label_file_holds(self, tmp_path, labels, message):
        # a label file's header holds one size, and its payload one byte per label
        with pytest.raises(dataio.IdxError, match="lab: " + message):
            dataio.write_idx_labels(tmp_path / "lab", labels)
        assert not (tmp_path / "lab").exists()

    def test_out_of_range_label(self, tmp_path):
        path = tmp_path / "lab"
        path.write_bytes(struct.pack(">II", dataio.LABELS_MAGIC, 3) + bytes([1, 12, 3]))
        with pytest.raises(dataio.IdxError, match="out of range"):
            dataio.load_idx_labels(path)

    def test_count_mismatch_detected_at_pairing(self, tmp_path):
        rng = np.random.default_rng(2)
        (tmp_path / "mnist").mkdir()
        dataio.write_idx_images(tmp_path / "mnist" / "train-images-idx3-ubyte",
                                rng.integers(0, 256, size=(4, 784), dtype=np.uint8))
        dataio.write_idx_labels(tmp_path / "mnist" / "train-labels-idx1-ubyte",
                                np.array([1, 2, 3]))
        with pytest.raises(dataio.IdxError, match="columns"):
            dataio.load_split(tmp_path, "mnist", "train")

    def test_unknown_split_names_the_splits(self, tmp_path):
        with pytest.raises(dataio.IdxError, match="^unknown split 'val', expected train or test$"):
            dataio.load_split(tmp_path, "mnist", "val")

    def test_missing_files_name_candidates(self, tmp_path):
        with pytest.raises(dataio.IdxError, match="tried"):
            dataio.load_split(tmp_path, "mnist", "train")


class TestSplitColumns:
    def _split(self, tmp_path, n=300, name="train-images-idx3-ubyte"):
        pixels = np.random.default_rng(4).integers(0, 256, size=(n, 784), dtype=np.uint8)
        mnist = tmp_path / "mnist"
        mnist.mkdir()
        dataio.write_idx_images(mnist / name, pixels)
        dataio.write_idx_labels(mnist / "train-labels-idx1-ubyte", pixels[:, 0] % 10)
        return dataio.load_split(tmp_path, "mnist", "train"), mnist / name

    @pytest.mark.parametrize("name", ["train-images-idx3-ubyte", "train-images-idx3-ubyte.gz"])
    def test_loaded_split_keeps_the_file_bytes(self, tmp_path, name):
        split, path = self._split(tmp_path, name=name)
        assert split.images.dtype == np.uint8 and split.images.shape == (784, 300)
        assert split.images.flags.f_contiguous and not split.images.flags.writeable
        assert split.images.tobytes(order="F") == dataio._read_payload(path)[16:]

    def test_same_bits_as_the_float_loader(self, tmp_path):
        split, path = self._split(tmp_path)
        reference = dataio.load_idx_images(path)
        idx = np.random.default_rng(3).permutation(300)[:64]
        for sel in (idx, slice(17, 300), slice(None)):
            got = split.columns(sel)
            assert got.dtype == np.float64 and got.flags.f_contiguous
            assert got.tobytes(order="A") == reference[:, sel].tobytes(order="A")
        for lo, hi in [(0, 128), (128, 300), (5, 9)]:
            chunk = split.columns(slice(lo, hi))
            assert chunk.flags.f_contiguous
            assert chunk.tobytes(order="F") == reference[:, lo:hi].tobytes(order="F")

    def test_float_images_pass_through(self):
        split = dataio.synthetic_split(40, seed=1)
        view = split.columns(slice(5, 20))
        assert view.base is split.images and np.shares_memory(view, split.images)
        idx = np.array([3, 1, 30])
        assert split.columns(idx).tobytes() == split.images[:, idx].tobytes()

    def test_integer_images_other_than_bytes_are_rejected(self):
        with pytest.raises(dataio.IdxError, match="int64"):
            dataio.DatasetSplit(np.zeros((784, 2), dtype=np.int64), np.zeros(2, np.int64), "ints")

    @pytest.mark.parametrize("labels", [np.array([2.7, 1.0]), np.array([True, False])],
                             ids=["floats", "bools"])
    def test_labels_other_than_integers_are_rejected(self, labels):
        with pytest.raises(dataio.IdxError, match=f"^floats: labels are {labels.dtype}, "):
            dataio.DatasetSplit(np.zeros((784, 2)), labels, "floats")


class TestOneHot:
    def test_label_zero(self):
        col = dataio.one_hot(np.array([0]))
        np.testing.assert_array_equal(col[:, 0], [1.0] + [0.0] * 9)

    def test_columns_sum_to_one(self):
        labels = np.random.default_rng(3).integers(0, 10, size=50)
        np.testing.assert_array_equal(dataio.one_hot(labels).sum(axis=0), np.ones(50))

    def test_argmax_recovers_labels(self):
        labels = np.random.default_rng(4).integers(0, 10, size=50)
        np.testing.assert_array_equal(np.argmax(dataio.one_hot(labels), axis=0), labels)

    @pytest.mark.parametrize("labels", [np.array([2.7, 1.0]), [True, False], [2.0]],
                             ids=["floats", "bool-list", "float-list"])
    def test_labels_other_than_integers_are_rejected(self, labels):
        # they used to be truncated: 2.7 became class 2, True class 1
        with pytest.raises(dataio.IdxError, match="expected integers"):
            dataio.one_hot(labels)

    def test_out_of_range(self):
        with pytest.raises(dataio.IdxError):
            dataio.one_hot(np.array([10]))
        with pytest.raises(dataio.IdxError):
            dataio.one_hot(np.array([-1]))


class TestBatchPlan:
    def test_same_seed_same_epoch_same_permutation(self):
        plan = dataio.BatchPlan(batch_size=8, seed=5)
        np.testing.assert_array_equal(plan.permutation(3, 100), plan.permutation(3, 100))

    def test_epochs_differ(self):
        plan = dataio.BatchPlan(batch_size=8, seed=5)
        assert not np.array_equal(plan.permutation(1, 100), plan.permutation(2, 100))

    @given(n=st.integers(1, 200), batch=st.integers(1, 32),
           seed=st.integers(0, 10), epoch=st.integers(0, 5))
    @settings(max_examples=40, deadline=None)
    def test_every_sample_exactly_once(self, n, batch, seed, epoch):
        plan = dataio.BatchPlan(batch_size=batch, seed=seed)
        seen = np.concatenate(list(plan.batches(epoch, n)))
        assert sorted(seen.tolist()) == list(range(n))

    def test_final_short_batch_kept(self):
        plan = dataio.BatchPlan(batch_size=8, seed=0)
        sizes = [len(b) for b in plan.batches(0, 20)]
        assert sizes == [8, 8, 4]

    def test_validation(self):
        with pytest.raises(ValueError):
            dataio.BatchPlan(batch_size=0, seed=0)
        with pytest.raises(ValueError):
            dataio.BatchPlan(batch_size=4, seed=-1)


@pytest.mark.dataset
class TestRealDataset:
    def test_official_counts(self, mnist_dir):
        train = dataio.load_split(mnist_dir, "mnist", "train")
        test = dataio.load_split(mnist_dir, "mnist", "test")
        assert train.images.shape == (784, 60000)
        assert train.labels.shape == (60000,)
        assert test.images.shape == (784, 10000)
        assert test.labels.shape == (10000,)

    def test_value_ranges(self, mnist_dir):
        train = dataio.load_split(mnist_dir, "mnist", "train")
        for lo in range(0, train.n_samples, 10000):
            images = train.columns(slice(lo, lo + 10000))
            assert images.min() >= 0.0 and images.max() <= 1.0
        assert train.labels.min() >= 0 and train.labels.max() <= 9


class TestSyntheticSplit:
    def test_deterministic(self):
        a = dataio.synthetic_split(64, seed=7)
        b = dataio.synthetic_split(64, seed=7)
        np.testing.assert_array_equal(a.images, b.images)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_shapes_and_ranges(self):
        split = dataio.synthetic_split(40, seed=1)
        assert split.images.shape == (784, 40)
        assert split.labels.shape == (40,)
        assert split.images.min() >= 0.0 and split.images.max() <= 1.0
        assert split.labels.min() >= 0 and split.labels.max() <= 9

    @pytest.mark.parametrize("n,task_seed,chunk_rows", [
        (1, 0, 16), (42, 0, 16), (256, 3, 16), (1000, 0, 16), (8192, 0, 16),
        (5, 1, 15),  # 784 = 52 * 15 + 4: the last chunk is shorter
    ])
    def test_same_bits_as_one_whole_draw(self, monkeypatch, n, task_seed, chunk_rows):
        # the formula drawn in one piece, as the split was first defined
        monkeypatch.setattr(dataio, "SYNTHETIC_ROWS", chunk_rows)
        protos = np.random.default_rng([task_seed, 0xDA7A]).uniform(0.0, 1.0, size=(784, 10))
        rng = np.random.default_rng([5, 0x5A11])
        labels = rng.integers(0, 10, size=n)
        noise = rng.uniform(0.0, 1.0, size=(784, n))
        want = np.clip(0.75 * protos[:, labels] + 0.25 * noise, 0.0, 1.0)
        split = dataio.synthetic_split(n, seed=5, task_seed=task_seed)
        assert split.images.tobytes() == want.tobytes() and split.images.shape == want.shape
        # columns (samples) contiguous, as the whole-array form gives them
        # from 42 samples on
        assert split.images.flags.f_contiguous
        np.testing.assert_array_equal(split.labels, labels)
