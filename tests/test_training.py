"""Optimizer, schedule, training loop, early stopping, and checkpoint tests."""

import json
import struct
from dataclasses import asdict

import numpy as np
import pytest

from affekt import training
from affekt.checkpoint import load_checkpoint, save_checkpoint
from affekt.errors import EmptyEvaluationSet, InvalidFormat, NonFiniteLoss, ShapeMismatch
from affekt.nn import BlockSpec, CnnConfig, Workspace, forward, init_params
from affekt.training import (
    AdamState,
    TrainConfig,
    adam_init,
    adam_step,
    evaluate,
    lr_at,
    train,
)


def test_lr_schedule_exact():
    for t in (0, 1, 100, 399):
        assert lr_at(t) == pytest.approx(1e-3 * 0.99**t, abs=1e-18)
    assert lr_at(0) == 1e-3
    assert lr_at(2, lr0=0.5, decay=0.5) == pytest.approx(0.125)


def test_adam_first_step_matches_hand_update():
    params = {"w": np.array([2.0])}
    grads = {"w": np.array([0.5])}
    state = adam_init(params)
    new_params, new_state = adam_step(
        params, grads, state, lr=0.1, beta1=0.9, beta2=0.999, eps=1e-8
    )
    # m_hat=0.5, v_hat=0.25 after bias correction at t=1
    expected = 2.0 - 0.1 * 0.5 / (np.sqrt(0.25) + 1e-8)
    assert new_params["w"][0] == pytest.approx(expected, abs=1e-9)
    assert new_state.step == 1
    # first-step size is ~lr regardless of gradient magnitude
    big = {"w": np.array([1000.0])}
    stepped, _ = adam_step(params, big, adam_init(params), lr=0.1, beta1=0.9, beta2=0.999, eps=1e-8)
    assert params["w"][0] - stepped["w"][0] == pytest.approx(0.1, abs=1e-6)


def test_adam_two_steps_scalar_fixture():
    params = {"w": np.array([1.0])}
    state = adam_init(params)
    m = v = 0.0
    w = 1.0
    for t, g in enumerate([0.3, -0.2], start=1):
        grads = {"w": np.array([g])}
        params, state = adam_step(params, grads, state, lr=0.01, beta1=0.9, beta2=0.999, eps=1e-8)
        m = 0.9 * m + 0.1 * g
        v = 0.999 * v + 0.001 * g * g
        mh = m / (1 - 0.9**t)
        vh = v / (1 - 0.999**t)
        w -= 0.01 * mh / (np.sqrt(vh) + 1e-8)
        assert params["w"][0] == pytest.approx(w, abs=1e-12)


def test_adam_step_is_functional():
    params = {"w": np.array([1.0, 2.0])}
    grads = {"w": np.array([0.1, -0.1])}
    state = adam_init(params)
    params_before = {k: v.copy() for k, v in params.items()}
    m_before = {k: v.copy() for k, v in state.m.items()}
    adam_step(params, grads, state, lr=0.1, beta1=0.9, beta2=0.999, eps=1e-8)
    np.testing.assert_array_equal(params["w"], params_before["w"])
    np.testing.assert_array_equal(state.m["w"], m_before["w"])
    assert state.step == 0


def toy_task(seed=0, n_train=48, n_val=16, n_classes=2):
    """Linearly separable class means, one batch list per split."""
    rng = np.random.default_rng(seed)
    cfg = CnnConfig(
        input_channels=2,
        input_bins=4,
        blocks=(),
        n_classes=n_classes,
        seed=seed,
    )

    def make(n):
        xs, ys = [], []
        for i in range(n):
            label = i % n_classes
            x = rng.normal(0, 0.3, (2, 4))
            x[label % 2] += 2.0 * (1 if label else -1)
            xs.append(x)
            ys.append(np.eye(n_classes)[label])
        return [(np.stack(xs[i : i + 16]), np.stack(ys[i : i + 16])) for i in range(0, n, 16)]

    return cfg, make(n_train), make(n_val)


def test_train_loss_decreases_and_logs():
    cfg, train_batches, val_batches = toy_task()
    tcfg = TrainConfig(max_epochs=30, patience=30, seed=1)
    result = train(cfg, tcfg, train_batches, val_batches)
    log = result.epoch_log
    assert log[0].epoch == 1
    assert log[-1].train_loss < log[0].train_loss
    assert result.stopped_epoch <= 30
    assert result.best_epoch <= result.stopped_epoch
    assert log[0].lr == pytest.approx(1e-3)
    assert log[1].lr == pytest.approx(1e-3 * 0.99)


def test_early_stop_on_monotone_worsening_val():
    # all-train samples one class, all-val the other: val loss only worsens
    cfg = CnnConfig(input_channels=1, input_bins=2, blocks=(), n_classes=2, seed=0)
    x_train = np.tile(np.array([[[1.0, -1.0]]]), (8, 1, 1))
    y_train = np.tile(np.array([[1.0, 0.0]]), (8, 1))
    x_val = x_train.copy()
    y_val = np.tile(np.array([[0.0, 1.0]]), (8, 1))
    tcfg = TrainConfig(max_epochs=400, patience=20, seed=0)
    result = train(cfg, tcfg, [(x_train, y_train)], [(x_val, y_val)])
    assert result.stopped_epoch == 21  # patience + 1
    assert result.best_epoch == 1
    # restore-best is bit-exact
    rerun = train(cfg, TrainConfig(max_epochs=1, patience=20, seed=0), [(x_train, y_train)], [(x_val, y_val)])
    for name in result.params:
        np.testing.assert_array_equal(result.params[name], rerun.params[name])


def test_train_is_deterministic():
    cfg, train_batches, val_batches = toy_task(seed=3)
    tcfg = TrainConfig(max_epochs=5, patience=5, seed=9)
    a = train(cfg, tcfg, train_batches, val_batches)
    b = train(cfg, tcfg, train_batches, val_batches)
    for name in a.params:
        np.testing.assert_array_equal(a.params[name], b.params[name])
    assert [r.val_loss for r in a.epoch_log] == [r.val_loss for r in b.epoch_log]


def test_non_finite_loss_is_reported():
    cfg = CnnConfig(input_channels=1, input_bins=2, blocks=(), n_classes=2, seed=0)
    x = np.full((4, 1, 2), 1e308)
    y = np.tile(np.array([[1.0, 0.0]]), (4, 1))
    tcfg = TrainConfig(max_epochs=3, patience=3, seed=0)
    from affekt.errors import NonFiniteActivation, NonFiniteGradient

    with np.errstate(all="ignore"), pytest.raises(
        (NonFiniteLoss, NonFiniteActivation, NonFiniteGradient)
    ):
        train(cfg, tcfg, [(x, y)], [(x, y)])


def test_evaluate_accuracy_and_empty_guard():
    cfg, train_batches, val_batches = toy_task(seed=4)
    tcfg = TrainConfig(max_epochs=25, patience=25, lr0=0.05, seed=2)
    result = train(cfg, tcfg, train_batches, val_batches)
    loss, accuracy = evaluate(result.params, cfg, val_batches)
    assert accuracy >= 0.9
    assert loss < 0.7
    with pytest.raises(EmptyEvaluationSet):
        evaluate(result.params, cfg, [])


def test_uniform_predictor_is_at_chance():
    # zero dense weights give uniform probabilities: accuracy == first-class
    # rate under argmax tie-breaking; on a balanced 3-class set that is 1/3
    cfg = CnnConfig(input_channels=1, input_bins=3, blocks=(), n_classes=3, seed=0)
    params = init_params(cfg)
    params["dense.w"][:] = 0.0
    params["dense.b"][:] = 0.0
    rng = np.random.default_rng(5)
    n = 300
    x = rng.standard_normal((n, 1, 3))
    labels = np.repeat(np.arange(3), n // 3)
    y = np.eye(3)[labels]
    probs = forward(params, cfg, x)
    np.testing.assert_allclose(probs, 1.0 / 3.0, atol=1e-15)
    _, accuracy = evaluate(params, cfg, [(x, y)])
    sigma = np.sqrt((1 / 3) * (2 / 3) / n)
    assert abs(accuracy - 1 / 3) <= 3 * sigma + 1e-9


def test_checkpoint_roundtrip(tmp_path):
    cfg = CnnConfig(
        input_channels=4,
        input_bins=8,
        blocks=(BlockSpec(8, 2, False), BlockSpec(8, 1, True)),
        n_classes=3,
        seed=7,
    )
    params = init_params(cfg)
    # stored as f32: write f32-representable values for bit equality
    params = {k: v.astype(np.float32).astype(np.float64) for k, v in params.items()}
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, cfg, params, meta={"task": "binary"})
    cfg2, params2, meta = load_checkpoint(path)
    assert cfg2 == cfg
    assert meta["task"] == "binary"
    assert sorted(params2) == sorted(params)
    for name in params:
        np.testing.assert_array_equal(params2[name], params[name])
        assert params2[name].dtype == np.float64


def test_checkpoint_bad_magic_and_truncation(tmp_path):
    cfg = CnnConfig(input_channels=1, input_bins=2, blocks=(), n_classes=2, seed=0)
    params = init_params(cfg)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, cfg, params)
    raw = path.read_bytes()
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(b"ZZZZ" + raw[4:])
    with pytest.raises(InvalidFormat):
        load_checkpoint(bad)
    cut = tmp_path / "cut.ckpt"
    cut.write_bytes(raw[:-3])
    with pytest.raises(InvalidFormat):
        load_checkpoint(cut)


def _raw_checkpoint(cfg, params):
    """Checkpoint bytes for any params, laid out as the module docstring says, unchecked."""
    blob = json.dumps(asdict(cfg), sort_keys=True).encode()
    raw = b"EEGM" + struct.pack("<II", 1, len(blob)) + blob
    for name in sorted(params):
        tensor = np.asarray(params[name], dtype="<f4")
        encoded = name.encode()
        raw += struct.pack("<I", len(encoded)) + encoded
        raw += struct.pack(f"<I{tensor.ndim}I", tensor.ndim, *tensor.shape) + tensor.tobytes()
    return raw


def _with_header(raw, edit):
    """A checkpoint's bytes with its config header blob replaced by edit(blob)."""
    (blob_len,) = struct.unpack("<I", raw[8:12])
    blob = edit(raw[12:12 + blob_len])
    return raw[:8] + struct.pack("<I", len(blob)) + blob + raw[12 + blob_len:]


def _drop_header_key(blob):
    header = json.loads(blob)
    del header["n_classes"]
    return json.dumps(header).encode()


@pytest.mark.parametrize(
    "damage, named",
    [
        ("header key missing", "n_classes"),
        ("header not json", "config header"),
        ("tensor missing", "dense.w"),
        ("tensor misshaped", "conv0.w"),
    ],
)
def test_checkpoint_that_does_not_fit_its_model_is_invalid(tmp_path, damage, named):
    cfg = CnnConfig(input_channels=4, input_bins=8, blocks=(BlockSpec(3, 2, False),), n_classes=2)
    params = init_params(cfg)
    if damage == "tensor missing":
        del params["dense.w"]
    if damage == "tensor misshaped":
        params["conv0.w"] = params["conv0.w"].reshape(1, 3, 3, 3)
    path = tmp_path / "model.ckpt"
    path.write_bytes(_raw_checkpoint(cfg, params))
    if damage == "header key missing":
        path.write_bytes(_with_header(path.read_bytes(), _drop_header_key))
    if damage == "header not json":
        path.write_bytes(_with_header(path.read_bytes(), lambda blob: b"{" + blob))
    with pytest.raises(InvalidFormat, match=named) as info:
        load_checkpoint(path)
    assert str(path) in str(info.value)


@pytest.mark.parametrize(
    "damage, named",
    [("tensor missing", "dense.w"), ("tensor misshaped", "conv0.w"), ("tensor extra", "conv1.w")],
)
def test_save_refuses_params_that_do_not_fit_and_writes_nothing(tmp_path, damage, named):
    cfg = CnnConfig(input_channels=4, input_bins=8, blocks=(BlockSpec(3, 2, False),), n_classes=2)
    params = init_params(cfg)
    fitting = tmp_path / "fitting.ckpt"
    save_checkpoint(fitting, cfg, params)
    assert fitting.read_bytes() == _raw_checkpoint(cfg, params)
    if damage == "tensor missing":
        del params["dense.w"]
    if damage == "tensor misshaped":
        params["conv0.w"] = params["conv0.w"].reshape(1, 3, 3, 3)
    if damage == "tensor extra":
        params["conv1.w"] = np.zeros((3, 3, 3, 3))
    path = tmp_path / "model.ckpt"
    with pytest.raises(ShapeMismatch, match=named) as info:
        save_checkpoint(path, cfg, params)
    assert str(path) in str(info.value)
    assert not path.exists()


def test_train_reuses_one_workspace(monkeypatch):
    # every backward and validation forward of a run gets the run's workspace;
    # without it each call builds its buffers anew
    seen = []
    inner_backward, inner_forward = training.backward, training.forward

    def backward_spy(params, cfg, x, onehot, workspace=None):
        seen.append(workspace)
        return inner_backward(params, cfg, x, onehot, workspace)

    def forward_spy(params, cfg, x, workspace=None):
        seen.append(workspace)
        return inner_forward(params, cfg, x, workspace)

    monkeypatch.setattr(training, "backward", backward_spy)
    monkeypatch.setattr(training, "forward", forward_spy)
    cfg, train_batches, val_batches = toy_task(seed=6)
    train(cfg, TrainConfig(max_epochs=2, patience=2, seed=0), train_batches, val_batches)
    assert len(seen) == 2 * (len(train_batches) + len(val_batches))
    assert isinstance(seen[0], Workspace)
    assert all(ws is seen[0] for ws in seen)


def test_train_config_validation():
    from affekt.errors import ShapeMismatch

    with pytest.raises(ShapeMismatch):
        TrainConfig(lr_decay=0.0)
    with pytest.raises(ShapeMismatch):
        TrainConfig(patience=0)
    with pytest.raises(ShapeMismatch):
        TrainConfig(max_epochs=0)
    for field, value in [
        ("lr0", 0.0), ("lr0", float("nan")), ("beta1", 1.0), ("beta1", -0.1), ("beta2", 1.0), ("eps", 0.0)
    ]:
        with pytest.raises(ShapeMismatch, match=field):
            TrainConfig(**{field: value})


def test_adam_state_shapes_follow_params():
    params = {"a": np.zeros((2, 3)), "b": np.zeros(4)}
    state = adam_init(params)
    assert isinstance(state, AdamState)
    assert state.m["a"].shape == (2, 3)
    assert state.v["b"].shape == (4,)
    assert state.step == 0
