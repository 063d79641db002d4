"""Checkpoint container: bit-exact round trips across model variants."""

import builtins
import dataclasses
import math
import os
import re
import struct
import tracemalloc

import numpy as np
import pytest

from conftest import save_with_fresh_adam

from biopc import checkpoint
from biopc import encodings as enc
from biopc.baseline import MLP, MODELS
from biopc.checkpoint import (_ADAM, _CODES, _COUNT, _FLAG, _HEADER, _PARAM_SLOTS, _PARAMS, _SHAPE,
                              _TAGS, MAGIC, CheckpointError, _dims, load_checkpoint,
                              save_checkpoint)
from biopc.cli import EXIT_DATA, main
from biopc.config import TrainConfig
from biopc.linalg import ActivationKind
from biopc.network import (FEEDBACK_SCHEMES, KolenPollack, PCNetwork, RandomFixed, Transpose,
                           init_network)
from biopc.optim import AdamState, adam_step

VARIANTS = [
    dict(encoding=enc.Subtractive(), feedback=Transpose()),
    dict(encoding=enc.SubtractiveThreshold(e_min=-1.2, e_max=2.4), feedback=RandomFixed()),
    dict(encoding=enc.Division(epsilon=5e-4), feedback=KolenPollack(gamma=0.02),
         positive_activities=True),
]


def test_parameter_slots_are_the_scheme_fields():
    # the slots are part of the file format, so they are written out; a new
    # scheme parameter missing from them would not be saved
    fields = (f.name for cls in (*enc.ENCODINGS, *FEEDBACK_SCHEMES)
              for f in dataclasses.fields(cls))
    assert _PARAM_SLOTS == tuple(dict.fromkeys(fields))


@pytest.mark.parametrize("variant", VARIANTS)
def test_network_round_trip_bit_exact(tmp_path, variant):
    net = init_network([6, 5, 4], bias=0.1, seed=42,
                       hidden_activation=ActivationKind.TANH,
                       positive_activities=variant.pop("positive_activities", False)
                       or isinstance(variant["encoding"], enc.Division),
                       **variant)
    path = tmp_path / "net.pcck"
    adams = save_with_fresh_adam(path, net)
    loaded, opt = load_checkpoint(path)
    _assert_same_states(opt, adams)
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
    save_checkpoint(path2, loaded, opt)
    assert path.read_bytes() == path2.read_bytes()


def test_mlp_round_trip(tmp_path):
    mlp = init_network([5, 4, 3], bias=0.2, seed=3, model_class=MLP)
    path = tmp_path / "mlp.pcck"
    adams = save_with_fresh_adam(path, mlp)
    loaded, opt = load_checkpoint(path)
    _assert_same_states(opt, adams)
    assert type(loaded).__name__ == "MLP"
    assert loaded.bias == mlp.bias
    for wa, wb in zip(mlp.weights, loaded.weights):
        np.testing.assert_array_equal(wa, wb)


def _assert_same_states(loaded, saved):
    assert len(loaded) == len(saved)
    for sa, sb in zip(saved, loaded):
        assert sb.step_count == sa.step_count
        assert sb.lr == sa.lr
        np.testing.assert_array_equal(sa.m, sb.m)
        np.testing.assert_array_equal(sa.v, sb.v)


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
    _assert_same_states(loaded, adams)
    # resumed optimizers produce identical increments
    g = rng.normal(size=net.weights[0].shape)
    np.testing.assert_array_equal(adam_step(adams[0], g), adam_step(loaded[0], g))


def test_optimizer_state_loads_without_copies(tmp_path):
    # m and v stay views of the file's bytes until a step needs them, so a
    # load allocates, beyond the file, little more than the weights
    net = init_network([784, 300, 10], seed=9)
    adams = [AdamState.for_shape(w.shape) for w in net.weights]
    for state, w in zip(adams, net.weights):
        adam_step(state, np.ones(w.shape))
    path = tmp_path / "with_opt.pcck"
    save_checkpoint(path, net, adams)
    tracemalloc.start()
    try:
        _, loaded = load_checkpoint(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    m_v_bytes = sum(s.m.nbytes + s.v.nbytes for s in adams)
    assert peak - path.stat().st_size < m_v_bytes
    state = loaded[0]
    assert not state.m.flags.writeable and not state.v.flags.writeable
    save_checkpoint(tmp_path / "again.pcck", net, loaded)
    assert (tmp_path / "again.pcck").read_bytes() == path.read_bytes()
    g = np.full(state.m.shape, 0.5)
    increment = adam_step(state, g).copy()
    assert state.m.flags.writeable and state.v.flags.writeable
    np.testing.assert_array_equal(increment, adam_step(adams[0], g))
    np.testing.assert_array_equal(state.m, adams[0].m)
    np.testing.assert_array_equal(state.v, adams[0].v)


def test_optimizer_state_shaped_unlike_its_weight_is_rejected(tmp_path):
    # opt[0] v's shape record rewritten from 2x3 to 3x2: the same byte count,
    # so the file parses, but its first adam_step could not broadcast
    net = init_network([3, 2, 4], seed=5)
    path = tmp_path / "net.pcck"
    save_with_fresh_adam(path, net)
    blob = bytearray(path.read_bytes())
    opt_1 = struct.calcsize("<Q4d") + 2 * (8 + 8 * 4 * 2)  # step record, m and v of W[1]
    at = len(blob) - opt_1 - (8 + 8 * 2 * 3)
    assert struct.unpack_from("<II", blob, at) == (2, 3)
    struct.pack_into("<II", blob, at, 3, 2)
    path.write_bytes(blob)
    with pytest.raises(CheckpointError, match=r"net\.pcck: opt\[0\] v is 3x2, W\[0\] is 2x3$"):
        load_checkpoint(path)


def test_optimizer_state_count_must_match_weights(tmp_path):
    # the writer refuses one state for two weights, so the file is a valid
    # one with its optimizer count rewritten to 1 and opt[1] cut off
    net = init_network([3, 2, 4], seed=5)
    path = tmp_path / "net.pcck"
    save_with_fresh_adam(path, net)
    blob = bytearray(path.read_bytes())
    opt_1 = struct.calcsize("<Q4d") + 2 * (8 + 8 * 4 * 2)  # step record, m and v of W[1]
    at = len(blob) - opt_1 - (struct.calcsize("<Q4d") + 2 * (8 + 8 * 2 * 3)) - 4
    assert struct.unpack_from("<I", blob, at) == (2,)
    struct.pack_into("<I", blob, at, 1)
    path.write_bytes(blob[:-opt_1])
    with pytest.raises(CheckpointError,
                       match=r"net\.pcck: optimizer block holds 1 states for 2 weight matrices$"):
        load_checkpoint(path)


@pytest.mark.parametrize("states,message", [
    (lambda ws: [AdamState.for_shape(ws[0].shape)],
     r"optimizer block holds 1 states for 2 weight matrices$"),
    (lambda ws: [AdamState.for_shape(ws[0].shape), AdamState.for_shape((2, 4))],
     r"opt\[1\] m is 2x4, W\[1\] is 4x2$"),
], ids=["count", "shape"])
def test_writer_refuses_optimizer_states_its_loader_refuses(tmp_path, states, message):
    net = init_network([3, 2, 4], seed=5)
    path = tmp_path / "net.pcck"
    with pytest.raises(CheckpointError, match=r"net\.pcck: " + message):
        save_checkpoint(path, net, states(net.weights))
    assert not path.exists()


def _good_file_with_adam(tmp_path):
    """A 3-2-4 network saved with two Adam states: (path, net, states, bytes)."""
    net = init_network([3, 2, 4], seed=5)
    path = tmp_path / "net.pcck"
    states = save_with_fresh_adam(path, net)
    blob = path.read_bytes()
    assert len(blob) == 544
    return path, net, states, blob


def test_unpackable_record_leaves_the_old_file(tmp_path):
    # opt[1]'s step count is within Adam's bounds, but its u64 record
    # refuses it after 360 bytes
    path, net, states, blob = _good_file_with_adam(tmp_path)
    states[1].step_count = 2**64
    with pytest.raises(CheckpointError, match=r"net\.pcck: cannot write opt\[1\] header: "):
        save_checkpoint(path, net, states)
    assert path.read_bytes() == blob
    assert os.listdir(tmp_path) == ["net.pcck"]


@pytest.mark.parametrize("field,value,message", [
    ("lr", math.nan, r"lr must be > 0 and finite, got nan"),
    ("step_count", -1, r"step_count must be >= 0, got -1"),
], ids=["lr_nan", "step_count_negative"])
def test_state_changed_after_it_was_built_is_refused(tmp_path, monkeypatch, field, value,
                                                     message):
    # the loader would refuse the file; the writer refuses before opening it
    path, net, states, blob = _good_file_with_adam(tmp_path)
    setattr(states[0], field, value)
    monkeypatch.setattr(checkpoint, "open", None, raising=False)
    with pytest.raises(CheckpointError, match=r"net\.pcck: opt\[0\]: " + message + "$"):
        save_checkpoint(path, net, states)
    assert path.read_bytes() == blob
    assert os.listdir(tmp_path) == ["net.pcck"]


class _FailsAfterFirstWrite:
    def __init__(self, f):
        self.f = f
        self.writes = 0

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.f.close()

    def write(self, data):
        if self.writes:
            raise OSError(28, "No space left on device")
        self.writes += 1
        return self.f.write(data)


def test_failed_write_leaves_the_old_file(tmp_path, monkeypatch):
    path, net, states, blob = _good_file_with_adam(tmp_path)
    monkeypatch.setattr(checkpoint, "open", lambda *args, **kwargs:
                        _FailsAfterFirstWrite(builtins.open(*args, **kwargs)), raising=False)
    with pytest.raises(OSError, match="No space left"):
        save_checkpoint(path, net, states)
    assert path.read_bytes() == blob
    assert os.listdir(tmp_path) == ["net.pcck"]


def test_new_file_gets_plain_open_permissions(tmp_path):
    old = os.umask(0o022)
    try:
        save_with_fresh_adam(tmp_path / "net.pcck", init_network([3, 2], seed=0))
    finally:
        os.umask(old)
    assert (tmp_path / "net.pcck").stat().st_mode & 0o777 == 0o644


# Adam's betas and eps are constants: a file that holds others would save
# as other bytes.
_OTHER_BYTES = r"opt\[0\] header at offset \d+ would save as other bytes"


@pytest.mark.parametrize("field,value,message", [
    ("lr", math.nan, r"opt\[0\]: lr must be > 0 and finite, got nan"),
    ("beta1", 1.0, _OTHER_BYTES),
    ("beta2", 0.5, _OTHER_BYTES),
    ("eps", 0.0, _OTHER_BYTES),
], ids=["lr_nan", "beta1_one", "beta2_half", "eps_zero"])
def test_adam_state_out_of_bounds_is_checkpoint_error(tmp_path, field, value, message):
    path, _, _, blob = _good_file_with_adam(tmp_path)
    blob = bytearray(blob)
    opt_1 = struct.calcsize("<Q4d") + 2 * (8 + 8 * 4 * 2)  # step record, m and v of W[1]
    at = len(blob) - opt_1 - (struct.calcsize("<Q4d") + 2 * (8 + 8 * 2 * 3))
    header = dict(zip(("step_count", "lr", "beta1", "beta2", "eps"),
                      struct.unpack_from("<Q4d", blob, at)))
    assert header == dict(step_count=0, lr=1e-3, beta1=0.9, beta2=0.999, eps=1e-8)
    header[field] = value
    struct.pack_into("<Q4d", blob, at, *header.values())
    path.write_bytes(blob)
    with pytest.raises(CheckpointError, match=r"net\.pcck: " + message + "$"):
        load_checkpoint(path)


def test_magic_and_truncation_errors(tmp_path):
    path = tmp_path / "bad.pcck"
    path.write_bytes(b"NOPE" + b"\x00" * 64)
    with pytest.raises(CheckpointError, match="magic"):
        load_checkpoint(path)

    net = init_network([4, 3], seed=0)
    good = tmp_path / "good.pcck"
    save_with_fresh_adam(good, net)
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


@pytest.mark.parametrize("model", [
    init_network([4, 3], seed=0),
    init_network([3, 2, 2], feedback=KolenPollack(), seed=4),
    init_network([4, 3, 2], seed=1, model_class=MLP),
], ids=["net", "kp", "mlp"])
def test_model_only_file_of_the_old_layout_is_refused(tmp_path, fake_data_dir, model, capsys):
    # the layout once let the optimizer byte be 0 with nothing after it;
    # every checkpoint now carries its Adam state
    path = tmp_path / "net.pcck"
    save_with_fresh_adam(path, model)
    opt_block = _COUNT.size + sum(_ADAM.size + 2 * (_SHAPE.size + w.nbytes)
                                  for w in model.weights)
    flag_at = path.stat().st_size - opt_block - _FLAG.size
    blob = path.read_bytes()
    assert blob[flag_at] == 1
    path.write_bytes(blob[:flag_at] + b"\x00")
    with pytest.raises(CheckpointError, match=f"^{path}: truncated while reading optimizer "
                                              f"count at offset {flag_at + 1}$"):
        load_checkpoint(path)
    assert main(["eval", "--checkpoint", str(path), "--data-dir", str(fake_data_dir)]) == EXIT_DATA
    assert capsys.readouterr().err.startswith(f"data error: {path}: truncated ")


def test_reloaded_model_predicts_bit_identically(tmp_path):
    net = init_network([8, 6, 4], encoding=enc.Division(), positive_activities=True,
                       bias=0.1, feedback=RandomFixed(), seed=77)
    path = tmp_path / "net.pcck"
    save_with_fresh_adam(path, net)
    loaded, _ = load_checkpoint(path)
    x = np.random.default_rng(5).uniform(0, 1, size=(8, 10))
    np.testing.assert_array_equal(net.predict(x), loaded.predict(x))


KIND_AT = struct.calcsize(_HEADER.format[:-2])  # the header's magic and version


def _code_at(field: str) -> int:
    """The offset of a 3-level file's code byte for `field`."""
    if field == "model":
        return KIND_AT
    tags_at = _HEADER.size + _dims(3).size
    return tags_at + {"hidden_activation": 0, "encoding": 2, "feedback": 3}[field]


@pytest.mark.parametrize("field", ["model", "hidden_activation", "encoding", "feedback"])
def test_every_name_has_exactly_one_code(field):
    names = {"model": [m.name for m in MODELS],
             "hidden_activation": [k.value for k in ActivationKind],
             "encoding": [e.name for e in enc.ENCODINGS],
             "feedback": [s.name for s in FEEDBACK_SCHEMES]}[field]
    assert sorted(_CODES[field]) == sorted(names)
    assert len(set(_CODES[field])) == len(_CODES[field])


# The version-1 codes, as files written before these tables existed hold them.
@pytest.mark.parametrize("field,name,code", [
    ("model", "pc", 0), ("model", "bp", 1),
    ("hidden_activation", "sigmoid", 0), ("hidden_activation", "tanh", 1),
    ("encoding", "subtractive", 0), ("encoding", "threshold", 1), ("encoding", "division", 2),
    ("feedback", "transpose", 0), ("feedback", "random", 1), ("feedback", "kp", 2),
])
def test_each_name_saves_as_its_code(tmp_path, field, name, code):
    cfg = TrainConfig(**{field: name}, e_min=-1.0, positive_activities=name == "division")
    model = init_network([3, 2, 2], seed=3, model_class=cfg.model_class(), **cfg.structure())
    path = tmp_path / "model.pcck"
    save_with_fresh_adam(path, model)
    blob = path.read_bytes()
    assert blob[_code_at(field)] == code
    loaded, adams = load_checkpoint(path)
    save_checkpoint(tmp_path / "again.pcck", loaded, adams)
    assert (tmp_path / "again.pcck").read_bytes() == blob


@pytest.mark.parametrize("field,code", [("model", 2), ("model", 255), ("hidden_activation", 2),
                                        ("hidden_activation", 3), ("encoding", 3),
                                        ("encoding", 255), ("feedback", 3), ("feedback", 255)])
def test_unknown_code_bytes_rejected(tmp_path, field, code):
    # codes 2 and 3 were the activation tags of since-removed activations
    path = tmp_path / "net.pcck"
    save_with_fresh_adam(path, init_network([4, 3, 2], seed=0))
    blob = bytearray(path.read_bytes())
    blob[_code_at(field)] = code
    path.write_bytes(bytes(blob))
    with pytest.raises(CheckpointError,
                       match=f"^{re.escape(str(path))}: unknown {field} code {code}$"):
        load_checkpoint(path)


@pytest.mark.parametrize("tag", [1, 2, 255])
def test_output_tag_other_than_sigmoid_rejected(tmp_path, tag):
    # every model's output level is a sigmoid; tag 1 (tanh) used to load
    path = tmp_path / "net.pcck"
    save_with_fresh_adam(path, init_network([4, 3], seed=0))
    blob = bytearray(path.read_bytes())
    tags_at = _HEADER.size + _dims(2).size
    output_at = tags_at + 1  # after the hidden activation tag
    assert blob[output_at] == 0
    blob[output_at] = tag
    path.write_bytes(bytes(blob))
    with pytest.raises(CheckpointError, match=f"{path}: tags at offset {tags_at} would save as "):
        load_checkpoint(path)


def _params_at(n_dims: int) -> int:
    return _HEADER.size + _dims(n_dims).size + _TAGS.size


def _with_param(blob: bytes, slot: int, value: float, n_dims: int) -> bytes:
    # the f64 slots after the tags: bias, e_min, e_max, epsilon, gamma
    at = _params_at(n_dims)
    params = list(_PARAMS.unpack_from(blob, at))
    params[slot] = value
    return blob[:at] + _PARAMS.pack(*params) + blob[at + _PARAMS.size:]


@pytest.mark.parametrize("net,slot,value", [
    (dict(feedback=KolenPollack()), 4, 5.0),
    (dict(encoding=enc.Division(), positive_activities=True), 3, -1.0),
    (dict(), 0, -0.5),
])
def test_invalid_parameters_are_checkpoint_errors(tmp_path, net, slot, value):
    path = tmp_path / "net.pcck"
    save_with_fresh_adam(path, init_network([5, 4, 3], seed=0, **net))
    path.write_bytes(_with_param(path.read_bytes(), slot, value, 3))
    with pytest.raises(CheckpointError, match=str(path)):
        load_checkpoint(path)


@pytest.mark.parametrize("slot", [1, 2, 3, 4], ids=["e_min", "e_max", "epsilon", "gamma"])
def test_unused_parameter_slots_must_be_zero(tmp_path, slot):
    # an MLP reads none of them: a value there would load, then save as zero
    path = tmp_path / "mlp.pcck"
    save_with_fresh_adam(path, init_network([3, 2, 2], seed=0, model_class=MLP))
    value = {1: 5.0, 2: 7.0, 3: 0.25, 4: 0.5}[slot]
    path.write_bytes(_with_param(path.read_bytes(), slot, value, 3))
    refused = f"{path}: parameters at offset {_params_at(3)} would save as other bytes$"
    with pytest.raises(CheckpointError, match=refused):
        load_checkpoint(path)
    path.write_bytes(_with_param(path.read_bytes(), slot, -0.0, 3))
    with pytest.raises(CheckpointError, match=refused):
        load_checkpoint(path)


def test_used_parameter_slots_load(tmp_path):
    # a threshold network with Kolen-Pollack feedback reads all but epsilon
    net = init_network([3, 2, 2], encoding=enc.SubtractiveThreshold(e_min=-2.0, e_max=3.0),
                       feedback=KolenPollack(gamma=0.01), positive_activities=True, seed=0)
    path = tmp_path / "net.pcck"
    save_with_fresh_adam(path, net)
    loaded, _ = load_checkpoint(path)
    assert (loaded.encoding, loaded.feedback) == (net.encoding, net.feedback)
    path.write_bytes(_with_param(path.read_bytes(), 3, 1e-3, 3))
    with pytest.raises(CheckpointError, match=f"parameters at offset {_params_at(3)} would save "):
        load_checkpoint(path)


@pytest.mark.parametrize("net", [
    dict(dims=[3, 2, 2], feedback=KolenPollack()),
    dict(dims=[5, 4, 3], encoding=enc.Division(), positive_activities=True, bias=0.1),
], ids=["kp", "division"])
def test_pc_record_with_mlp_kind_is_checkpoint_error(tmp_path, net):
    # an MLP would drop the feedback matrices, encoding and positivity
    path = tmp_path / "net.pcck"
    save_with_fresh_adam(path, init_network(seed=4, **net))
    blob = bytearray(path.read_bytes())
    assert blob[KIND_AT] == _CODES["model"].index(PCNetwork.name)
    blob[KIND_AT] = _CODES["model"].index(MLP.name)
    path.write_bytes(bytes(blob))
    with pytest.raises(CheckpointError, match=str(path)):
        load_checkpoint(path)


def test_mlp_record_is_the_subtractive_transpose_network(tmp_path):
    # one writer: an MLP's bytes differ from an equal network's only in kind
    mlp = init_network([4, 3, 2], bias=0.2, seed=6, model_class=MLP)
    net = init_network([4, 3, 2], bias=0.2, seed=6)
    save_with_fresh_adam(tmp_path / "mlp.pcck", mlp)
    save_with_fresh_adam(tmp_path / "net.pcck", net)
    a, b = (bytearray((tmp_path / n).read_bytes()) for n in ("mlp.pcck", "net.pcck"))
    pc_code, mlp_code = (_CODES["model"].index(m.name) for m in (PCNetwork, MLP))
    assert (a[KIND_AT], b[KIND_AT]) == (mlp_code, pc_code)
    b[KIND_AT] = mlp_code
    assert a == b


def _small_models():
    kp = init_network([3, 2, 2], feedback=KolenPollack(), seed=4)
    mlp = init_network([3, 2, 2], seed=4, model_class=MLP)
    division = init_network([3, 2, 2], encoding=enc.Division(), positive_activities=True,
                            bias=0.1, seed=4)
    return [(model, [AdamState.for_shape(w.shape) for w in model.weights])
            for model in (kp, mlp, division)]


@pytest.mark.parametrize("which", [0, 1, 2], ids=["kp", "mlp", "division"])
def test_corrupt_files_raise_only_checkpoint_error(tmp_path, which):
    # every single-bit flip and every truncation of a valid file either
    # raises CheckpointError or loads and saves back to the same bytes
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
    bad, again = tmp_path / "bad.pcck", tmp_path / "again.pcck"
    loaded_as = set()
    for data in variants:
        bad.write_bytes(data)
        try:
            loaded, states = load_checkpoint(bad)
        except CheckpointError:
            continue
        loaded_as.add(type(loaded))
        save_checkpoint(again, loaded, states)
        assert again.read_bytes() == data
    if which == 0:
        # no flip turns the Kolen-Pollack network into an MLP
        assert loaded_as == {PCNetwork}
