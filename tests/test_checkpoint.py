"""Checkpoint container: bit-exact round trips across model variants."""

import struct

import numpy as np
import pytest

from biopc import encodings as enc
from biopc.baseline import MLP, init_mlp
from biopc.checkpoint import MAGIC, CheckpointError, load_checkpoint, save_checkpoint
from biopc.linalg import ActivationKind
from biopc.network import KolenPollack, PCNetwork, RandomFixed, Transpose, init_network
from biopc.optim import AdamState, adam_step

VARIANTS = [
    dict(encoding=enc.Subtractive(), feedback=Transpose()),
    dict(encoding=enc.SubtractiveThreshold(e_min=-1.2, e_max=2.4), feedback=RandomFixed()),
    dict(encoding=enc.Division(epsilon=5e-4), feedback=KolenPollack(gamma=0.02),
         positive_activities=True),
]


@pytest.mark.parametrize("variant", VARIANTS)
def test_network_round_trip_bit_exact(tmp_path, variant):
    net = init_network([6, 5, 4], bias=0.1, seed=42,
                       hidden_activation=ActivationKind.TANH,
                       positive_activities=variant.pop("positive_activities", False)
                       or isinstance(variant["encoding"], enc.Division),
                       **variant)
    path = tmp_path / "net.pcck"
    save_checkpoint(path, net)
    loaded, opt = load_checkpoint(path)
    assert opt is None
    assert loaded.dims == net.dims
    assert loaded.encoding == net.encoding
    assert loaded.feedback == net.feedback
    assert loaded.bias == net.bias
    assert loaded.positive_activities == net.positive_activities
    assert loaded.hidden_activation is net.hidden_activation
    assert loaded.activation_at(loaded.n_levels) is ActivationKind.SIGMOID
    for wa, wb in zip(net.weights, loaded.weights):
        np.testing.assert_array_equal(wa, wb)
    if net.feedback_weights is not None:
        for ba, bb in zip(net.feedback_weights, loaded.feedback_weights):
            np.testing.assert_array_equal(ba, bb)

    # a second save of the reloaded model reproduces the same bytes
    path2 = tmp_path / "net2.pcck"
    save_checkpoint(path2, loaded)
    assert path.read_bytes() == path2.read_bytes()


def test_mlp_round_trip(tmp_path):
    mlp = init_mlp([5, 4, 3], bias=0.2, seed=3)
    path = tmp_path / "mlp.pcck"
    save_checkpoint(path, mlp)
    loaded, _ = load_checkpoint(path)
    assert type(loaded).__name__ == "MLP"
    assert loaded.bias == mlp.bias
    for wa, wb in zip(mlp.weights, loaded.weights):
        np.testing.assert_array_equal(wa, wb)


def test_optimizer_state_round_trip(tmp_path):
    net = init_network([5, 4, 3], seed=9)
    adams = [AdamState.for_shape(w.shape, lr=0.002) for w in net.weights]
    rng = np.random.default_rng(1)
    for _ in range(3):
        for state, w in zip(adams, net.weights):
            adam_step(state, rng.normal(size=w.shape))
    path = tmp_path / "with_opt.pcck"
    save_checkpoint(path, net, adams)
    _, loaded = load_checkpoint(path)
    assert len(loaded) == len(adams)
    for sa, sb in zip(adams, loaded):
        assert sb.step_count == sa.step_count
        assert (sb.lr, sb.beta1, sb.beta2, sb.eps) == (sa.lr, sa.beta1, sa.beta2, sa.eps)
        np.testing.assert_array_equal(sa.m, sb.m)
        np.testing.assert_array_equal(sa.v, sb.v)
    # resumed optimizers produce identical increments
    g = rng.normal(size=net.weights[0].shape)
    np.testing.assert_array_equal(adam_step(adams[0], g), adam_step(loaded[0], g))


def test_magic_and_truncation_errors(tmp_path):
    path = tmp_path / "bad.pcck"
    path.write_bytes(b"NOPE" + b"\x00" * 64)
    with pytest.raises(CheckpointError, match="magic"):
        load_checkpoint(path)

    net = init_network([4, 3], seed=0)
    good = tmp_path / "good.pcck"
    save_checkpoint(good, net)
    blob = good.read_bytes()
    assert blob[:4] == MAGIC
    trunc = tmp_path / "trunc.pcck"
    trunc.write_bytes(blob[:-9])
    with pytest.raises(CheckpointError, match="truncated"):
        load_checkpoint(trunc)
    trailing = tmp_path / "trail.pcck"
    trailing.write_bytes(blob + b"\x00")
    with pytest.raises(CheckpointError, match="trailing"):
        load_checkpoint(trailing)


def test_reloaded_model_predicts_bit_identically(tmp_path):
    net = init_network([8, 6, 4], encoding=enc.Division(), positive_activities=True,
                       bias=0.1, feedback=RandomFixed(), seed=77)
    path = tmp_path / "net.pcck"
    save_checkpoint(path, net)
    loaded, _ = load_checkpoint(path)
    x = np.random.default_rng(5).uniform(0, 1, size=(8, 10))
    np.testing.assert_array_equal(net.predict(x), loaded.predict(x))


@pytest.mark.parametrize("tag", [2, 3])
def test_removed_activation_tags_rejected(tmp_path, tag):
    path = tmp_path / "net.pcck"
    save_checkpoint(path, init_network([4, 3], seed=0))
    blob = bytearray(path.read_bytes())
    hidden_at = 4 + 4 + 1 + 4 + 2 * 4  # magic, version, kind, level count, dims
    blob[hidden_at] = tag
    path.write_bytes(bytes(blob))
    with pytest.raises(CheckpointError, match="activation tag"):
        load_checkpoint(path)


@pytest.mark.parametrize("tag", [1, 2, 255])
def test_output_tag_other_than_sigmoid_rejected(tmp_path, tag):
    # every model's output level is a sigmoid; tag 1 (tanh) used to load
    path = tmp_path / "net.pcck"
    save_checkpoint(path, init_network([4, 3], seed=0))
    blob = bytearray(path.read_bytes())
    output_at = 4 + 4 + 1 + 4 + 2 * 4 + 1  # after the hidden activation tag
    assert blob[output_at] == 0
    blob[output_at] = tag
    path.write_bytes(bytes(blob))
    with pytest.raises(CheckpointError, match=f"output activation tag {tag}"):
        load_checkpoint(path)


def _with_param(blob: bytes, slot: int, value: float, n_dims: int) -> bytes:
    # the f64 slots after the three tag bytes: bias, e_min, e_max, epsilon, gamma
    at = 4 + 4 + 1 + 4 + 4 * n_dims + 2 + 3 + 8 * slot
    return blob[:at] + struct.pack("<d", value) + blob[at + 8:]


@pytest.mark.parametrize("net,slot,value", [
    (dict(feedback=KolenPollack()), 4, 5.0),
    (dict(encoding=enc.Division(), positive_activities=True), 3, -1.0),
    (dict(), 0, -0.5),
])
def test_invalid_parameters_are_checkpoint_errors(tmp_path, net, slot, value):
    path = tmp_path / "net.pcck"
    save_checkpoint(path, init_network([5, 4, 3], seed=0, **net))
    path.write_bytes(_with_param(path.read_bytes(), slot, value, 3))
    with pytest.raises(CheckpointError, match=str(path)):
        load_checkpoint(path)


KIND_AT = 4 + 4  # magic, version


@pytest.mark.parametrize("net", [
    dict(dims=[3, 2, 2], feedback=KolenPollack()),
    dict(dims=[5, 4, 3], encoding=enc.Division(), positive_activities=True, bias=0.1),
], ids=["kp", "division"])
def test_pc_record_with_mlp_kind_is_checkpoint_error(tmp_path, net):
    # an MLP would drop the feedback matrices, encoding and positivity
    path = tmp_path / "net.pcck"
    save_checkpoint(path, init_network(seed=4, **net))
    blob = bytearray(path.read_bytes())
    assert blob[KIND_AT] == PCNetwork.tag
    blob[KIND_AT] = MLP.tag
    path.write_bytes(bytes(blob))
    with pytest.raises(CheckpointError, match=str(path)):
        load_checkpoint(path)


def test_mlp_record_is_the_subtractive_transpose_network(tmp_path):
    # one writer: an MLP's bytes differ from an equal network's only in kind
    mlp, net = init_mlp([4, 3, 2], bias=0.2, seed=6), init_network([4, 3, 2], bias=0.2, seed=6)
    save_checkpoint(tmp_path / "mlp.pcck", mlp)
    save_checkpoint(tmp_path / "net.pcck", net)
    a, b = (bytearray((tmp_path / n).read_bytes()) for n in ("mlp.pcck", "net.pcck"))
    assert (a[KIND_AT], b[KIND_AT]) == (MLP.tag, PCNetwork.tag)
    b[KIND_AT] = MLP.tag
    assert a == b


def _small_models():
    kp = init_network([3, 2, 2], feedback=KolenPollack(), seed=4)
    mlp = init_mlp([3, 2, 2], seed=4)
    return [(model, [AdamState.for_shape(w.shape) for w in model.weights])
            for model in (kp, mlp)]


@pytest.mark.parametrize("which", [0, 1], ids=["kp", "mlp"])
def test_corrupt_files_raise_only_checkpoint_error(tmp_path, which):
    # every single-bit flip and every truncation of a valid file either
    # loads or raises CheckpointError
    model, adams = _small_models()[which]
    good = tmp_path / "good.pcck"
    save_checkpoint(good, model, adams)
    blob = good.read_bytes()
    variants = [blob[:n] for n in range(len(blob))]
    for i in range(len(blob)):
        for bit in range(8):
            flipped = bytearray(blob)
            flipped[i] ^= 1 << bit
            variants.append(bytes(flipped))
    bad = tmp_path / "bad.pcck"
    loaded_as = set()
    for data in variants:
        bad.write_bytes(data)
        try:
            loaded_as.add(type(load_checkpoint(bad)[0]))
        except CheckpointError:
            pass
    if which == 0:
        # no flip turns the Kolen-Pollack network into an MLP
        assert loaded_as == {PCNetwork}
