"""Network forward/backward correctness against loop and finite-difference oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affekt import nn
from affekt.config import MODEL_PRESETS
from affekt.errors import NonFiniteActivation, ShapeMismatch
from affekt.nn import (
    BlockSpec,
    CnnConfig,
    Workspace,
    backward,
    cross_entropy,
    forward,
    init_params,
    softmax,
)
from oracles import finite_difference_gradients, forward_loops


def small_config(blocks, n_classes=3, seed=0, channels=4, bins=8):
    return CnnConfig(
        input_channels=channels,
        input_bins=bins,
        blocks=tuple(BlockSpec(o, s, r) for o, s, r in blocks),
        n_classes=n_classes,
        seed=seed,
    )


@pytest.mark.parametrize(
    "blocks",
    [
        [(8, 2, False), (8, 1, True), (16, 2, False)],
        [(4, 1, False)],
        [],
    ],
)
def test_forward_matches_loop_oracle(blocks):
    cfg = small_config(blocks, channels=3, bins=9, seed=11)
    params = init_params(cfg)
    rng = np.random.default_rng(7)
    xs = rng.standard_normal((4, 3, 9))
    probs = forward(params, cfg, xs)
    for i in range(4):
        ref = forward_loops(params, blocks, xs[i])
        np.testing.assert_allclose(probs[i], ref, atol=1e-12)
    np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-12)


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("residual", [False, True])
def test_gradients_match_finite_differences(seed, residual):
    blocks = [(3, 2, False), (3, 1, True)] if residual else [(3, 2, False), (4, 1, False)]
    cfg = small_config(blocks, channels=2, bins=6, seed=seed)
    params = init_params(cfg)
    rng = np.random.default_rng(100 + seed)
    xs = rng.standard_normal((3, 2, 6))
    ys = np.eye(3)[rng.integers(0, 3, size=3)]
    _, grads = backward(params, cfg, xs, ys)

    def loss_fn(p):
        return cross_entropy(forward(p, cfg, xs), ys)

    numeric = finite_difference_gradients(loss_fn, params, h=1e-5)
    for name in params:
        scale = max(np.abs(numeric[name]).max(), 1e-8)
        rel = np.abs(grads[name] - numeric[name]).max() / scale
        assert rel < 1e-4, f"{name}: rel err {rel}"


def test_backward_loss_equals_forward_loss():
    cfg = small_config([(4, 2, False)], seed=3)
    params = init_params(cfg)
    rng = np.random.default_rng(5)
    xs = rng.standard_normal((6, 4, 8))
    ys = np.eye(3)[rng.integers(0, 3, size=6)]
    loss, _ = backward(params, cfg, xs, ys)
    assert loss == pytest.approx(cross_entropy(forward(params, cfg, xs), ys), abs=1e-15)


def test_zero_conv_residual_block_is_identity():
    cfg = small_config([(1, 1, True)], channels=3, bins=5, seed=0)
    params = init_params(cfg)
    params["conv0.w"][:] = 0.0
    params["conv0.b"][:] = 0.0
    rng = np.random.default_rng(9)
    xs = rng.standard_normal((2, 3, 5))
    # with a zero conv the block must pass its input through unchanged,
    # so logits reduce to dense(GAP(x))
    probs = forward(params, cfg, xs)
    pooled = xs[:, None, :, :].mean(axis=(2, 3))
    logits = pooled @ params["dense.w"] + params["dense.b"]
    np.testing.assert_allclose(probs, softmax(logits), atol=1e-15)


def test_softmax_rows_and_stability():
    logits = np.array([[1000.0, 1000.0, 1000.0], [0.0, -1e9, -1e9]])
    p = softmax(logits)
    np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-15)
    np.testing.assert_allclose(p[0], [1 / 3, 1 / 3, 1 / 3], atol=1e-15)
    assert p[1, 0] == pytest.approx(1.0)


def test_cross_entropy_floor_blocks_inf():
    probs = np.array([[1.0, 0.0]])
    onehot = np.array([[0.0, 1.0]])
    loss = cross_entropy(probs, onehot)
    assert np.isfinite(loss)
    assert loss == pytest.approx(-np.log(1e-12))


def test_cross_entropy_perfect_prediction():
    probs = np.array([[0.0, 1.0], [1.0, 0.0]])
    onehot = probs.copy()
    assert cross_entropy(probs, onehot) == pytest.approx(0.0, abs=1e-12)


def test_config_validation():
    with pytest.raises(ShapeMismatch):
        # residual block must preserve width
        small_config([(4, 2, False), (8, 1, True)])
    with pytest.raises(ShapeMismatch):
        BlockSpec(out_width=4, stride=3)
    with pytest.raises(ShapeMismatch):
        BlockSpec(out_width=4, stride=2, residual=True)
    with pytest.raises(ShapeMismatch):
        small_config([], n_classes=1)


def test_init_deterministic_and_bounded():
    cfg = small_config([(8, 2, False), (16, 2, False)], seed=42)
    a = init_params(cfg)
    b = init_params(cfg)
    assert sorted(a) == ["conv0.b", "conv0.w", "conv1.b", "conv1.w", "dense.b", "dense.w"]
    for name in a:
        np.testing.assert_array_equal(a[name], b[name])
    c = init_params(small_config([(8, 2, False), (16, 2, False)], seed=43))
    assert not np.array_equal(a["conv0.w"], c["conv0.w"])
    # kaiming-uniform bounds: sqrt(6/fan_in), biases start at zero
    assert np.abs(a["conv0.w"]).max() <= np.sqrt(6.0 / 9.0)
    assert np.abs(a["conv1.w"]).max() <= np.sqrt(6.0 / (8 * 9))
    assert np.all(a["conv0.b"] == 0.0)
    assert np.all(a["dense.b"] == 0.0)


def test_forward_rejects_wrong_shape():
    cfg = small_config([(4, 2, False)])
    params = init_params(cfg)
    with pytest.raises(ShapeMismatch):
        forward(params, cfg, np.zeros((2, 4, 9)))


@pytest.mark.parametrize("targets", [(6, 1), (5, 3), (6, 4)])
def test_backward_rejects_wrong_target_shape(targets, monkeypatch):
    # refused before any micro-batch runs: an (n, 1) one-hot would otherwise
    # broadcast into dlogits, and the mismatch would show only after all the work
    cfg = small_config([(4, 2, False)])
    params = init_params(cfg)
    monkeypatch.setattr(nn, "_backprop", None)
    with pytest.raises(ShapeMismatch, match="targets"):
        backward(params, cfg, np.zeros((6, 4, 8)), np.zeros(targets))


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
def test_non_finite_activation_guard():
    cfg = small_config([(4, 2, False)])
    params = init_params(cfg)
    x = np.full((1, 4, 8), np.inf)
    with pytest.raises(NonFiniteActivation):
        forward(params, cfg, x)


def test_stride_halves_spatial_extent():
    # one stride-2 block on an even extent: GAP sees a 4x4 map, not 8x8;
    # verified indirectly by parameter-count independence plus exactness
    # of the loop oracle above; here just check output shape contract
    cfg = small_config([(4, 2, False)], channels=8, bins=8)
    params = init_params(cfg)
    probs = forward(params, cfg, np.random.default_rng(0).standard_normal((5, 8, 8)))
    assert probs.shape == (5, 3)


# --- reference: the same network with batch-major (B, C, H, W) activations and
# einsum contractions, written apart from the package code ---


def _im2col_batch_major(x, stride):
    b, c, h, w = x.shape
    ho = (h + 2 - 3) // stride + 1
    wo = (w + 2 - 3) // stride + 1
    xp = np.zeros((b, c, h + 2, w + 2))
    xp[:, :, 1:h + 1, 1:w + 1] = x
    cols = np.empty((b, c, 3, 3, ho, wo))
    for u in range(3):
        for v in range(3):
            cols[:, :, u, v] = xp[:, :, u:u + stride * (ho - 1) + 1:stride,
                                  v:v + stride * (wo - 1) + 1:stride]
    return cols.reshape(b, c * 9, ho * wo), ho, wo


def _col2im_batch_major(dcols, x_shape, stride, ho, wo):
    b, c, h, w = x_shape
    dxp = np.zeros((b, c, h + 2, w + 2))
    d6 = dcols.reshape(b, c, 3, 3, ho, wo)
    for u in range(3):
        for v in range(3):
            dxp[:, :, u:u + stride * (ho - 1) + 1:stride,
                v:v + stride * (wo - 1) + 1:stride] += d6[:, :, u, v]
    return dxp[:, :, 1:h + 1, 1:w + 1]


def einsum_backward(params, blocks, x, onehot):
    """Loss and gradients from batch-major activations and einsum contractions."""
    a = np.asarray(x, dtype=float)[:, None, :, :]
    n = a.shape[0]
    cache = []
    for idx, (width, stride, residual) in enumerate(blocks):
        cols, ho, wo = _im2col_batch_major(a, stride)
        wmat = params[f"conv{idx}.w"].reshape(width, -1)
        pre = np.einsum("ok,bkp->bop", wmat, cols).reshape(n, width, ho, wo)
        pre += params[f"conv{idx}.b"][None, :, None, None]
        act = np.maximum(pre, 0.0)
        cache.append((a, cols, pre, ho, wo))
        a = act + a if residual else act
    pooled = a.mean(axis=(2, 3))
    probs = softmax(pooled @ params["dense.w"] + params["dense.b"])
    dlogits = (probs - onehot) / n
    grads = {"dense.w": pooled.T @ dlogits, "dense.b": dlogits.sum(axis=0)}
    dpooled = dlogits @ params["dense.w"].T
    da = np.broadcast_to(dpooled[:, :, None, None], a.shape) / (a.shape[2] * a.shape[3])
    for idx in range(len(blocks) - 1, -1, -1):
        width, stride, residual = blocks[idx]
        a_in, cols, pre, ho, wo = cache[idx]
        dpre = da * (pre > 0.0)
        dpre_mat = dpre.reshape(n, width, ho * wo)
        w = params[f"conv{idx}.w"]
        grads[f"conv{idx}.w"] = np.einsum("bop,bkp->ok", dpre_mat, cols).reshape(w.shape)
        grads[f"conv{idx}.b"] = dpre.sum(axis=(0, 2, 3))
        dcols = np.einsum("ok,bop->bkp", w.reshape(width, -1), dpre_mat)
        dx = _col2im_batch_major(dcols, a_in.shape, stride, ho, wo)
        if residual:
            dx += da
        da = dx
    return cross_entropy(probs, onehot), grads


@pytest.mark.parametrize("stride", [1, 2])
@pytest.mark.parametrize("extent", [(1, 1), (2, 3), (7, 10), (9, 5), (32, 128)])
def test_im2col_col2im_equal_padded_copy_references(extent, stride):
    # bit for bit, signed zeros included: in-image tap copies into a buffer
    # zeroed once, and one sparse scatter product in place of nine shifted +=
    c, b = 3, 2
    h, w = extent
    conv = nn._Conv(BlockSpec(4, stride), c, h, w, samples=b + 1, first=False)
    rng = np.random.default_rng(h * w + stride)
    for a in (rng.standard_normal((c, b, h, w)), rng.standard_normal((c, b, h, w))):
        a[:, :, ::2] = -0.0
        ref, ho, wo = _im2col_batch_major(a.transpose(1, 0, 2, 3), stride)
        ref = ref.reshape(b, c, 3, 3, ho, wo).transpose(1, 2, 3, 0, 4, 5)
        assert conv.im2col(a).tobytes() == ref.tobytes()
        dcols = rng.standard_normal((c, 3, 3, b, ho, wo))
        dcols[:, :, 1] = -0.0
        batch_major = dcols.transpose(3, 0, 1, 2, 4, 5).reshape(b, c * 9, ho * wo)
        ref_dx = _col2im_batch_major(batch_major, (b, c, h, w), stride, ho, wo).transpose(1, 0, 2, 3)
        got = conv.col2im(dcols.reshape(c * 9, -1), b)
        assert got.tobytes() == np.ascontiguousarray(ref_dx).tobytes()


@settings(max_examples=80, deadline=None)
@given(
    c=st.integers(1, 4),
    b=st.integers(1, 4),
    spare=st.integers(0, 3),
    h=st.integers(1, 12),
    w=st.integers(1, 40),
    stride=st.sampled_from([1, 2]),
    seed=st.integers(0, 2**32 - 1),
)
def test_im2col_col2im_equal_padded_copy_references_property(c, b, spare, h, w, stride, seed):
    # buffers made for b + spare samples serve a full micro-batch and then b
    # samples; signed zeros in the data and the gradient must keep their bits
    conv = nn._Conv(BlockSpec(4, stride), c, h, w, samples=b + spare, first=False)
    rng = np.random.default_rng(seed)
    for n in (b + spare, b):
        a = rng.standard_normal((c, n, h, w))
        a[rng.random(a.shape) < 0.3] = -0.0
        ref, ho, wo = _im2col_batch_major(a.transpose(1, 0, 2, 3), stride)
        ref = ref.reshape(n, c, 3, 3, ho, wo).transpose(1, 2, 3, 0, 4, 5)
        assert conv.im2col(a).tobytes() == ref.tobytes()
        dcols = rng.standard_normal((c, 3, 3, n, ho, wo))
        dcols[rng.random(dcols.shape) < 0.3] = -0.0
        batch_major = dcols.transpose(3, 0, 1, 2, 4, 5).reshape(n, c * 9, ho * wo)
        ref_dx = _col2im_batch_major(batch_major, (n, c, h, w), stride, ho, wo)
        got = conv.col2im(dcols.reshape(c * 9, -1), n)
        assert got.tobytes() == np.ascontiguousarray(ref_dx.transpose(1, 0, 2, 3)).tobytes()


@pytest.mark.parametrize("batch", [1, 5])
@pytest.mark.parametrize("preset", sorted(MODEL_PRESETS))
def test_odd_and_even_extents_match_references(preset, batch):
    # 7 x 10 -> 4 x 5 -> 2 x 3: on an odd extent the last stride-2 window's far tap
    # reads the zero pad, on an even one it reads the last row or column
    blocks = [(b["out_width"], b["stride"], b["residual"]) for b in MODEL_PRESETS[preset]]
    cfg = small_config(blocks, channels=7, bins=10, seed=batch)
    params = init_params(cfg)
    # nonzero biases, so the bias gradients and the zero-pad borders both matter
    for idx in range(len(blocks)):
        params[f"conv{idx}.b"] = np.random.default_rng(idx).uniform(-0.2, 0.2, blocks[idx][0])
    rng = np.random.default_rng(30 + batch)
    xs = rng.standard_normal((batch, 7, 10))
    ys = np.eye(3)[rng.integers(0, 3, size=batch)]

    probs = forward(params, cfg, xs)
    for i in range(batch):
        np.testing.assert_allclose(probs[i], forward_loops(params, blocks, xs[i]), atol=1e-12)

    loss, grads = backward(params, cfg, xs, ys)
    ref_loss, ref = einsum_backward(params, blocks, xs, ys)
    assert loss == pytest.approx(ref_loss, rel=1e-12)
    assert sorted(grads) == sorted(ref)
    for name in ref:
        assert grads[name].shape == ref[name].shape
        scale = max(np.abs(ref[name]).max(), 1e-8)
        assert np.abs(grads[name] - ref[name]).max() / scale <= 1e-12, name

    # block 0 computes no input gradient; its own parameters still get exact ones
    def loss_fn(_):
        return cross_entropy(forward(params, cfg, xs), ys)

    # the arrays are params' own, so loss_fn sees every perturbation
    first = {name: params[name] for name in ("conv0.w", "conv0.b")}
    numeric = finite_difference_gradients(loss_fn, first, h=1e-5)
    for name in first:
        rel = np.abs(grads[name] - numeric[name]).max() / np.abs(numeric[name]).max()
        assert rel < 1e-4, f"{name}: rel err {rel}"


def test_micro_batched_backward_matches_one_pass():
    # cnn-small on 128 x 128 holds 3 samples per micro-batch: 7 splits as 3 + 3 + 1
    blocks = [(b["out_width"], b["stride"], b["residual"]) for b in MODEL_PRESETS["cnn-small"]]
    cfg = small_config(blocks, channels=128, bins=128, seed=4)
    assert [(p.start, p.stop) for p in Workspace(cfg).micro_batches(7)] == [(0, 3), (3, 6), (6, 9)]
    params = init_params(cfg)
    for idx in range(len(blocks)):
        params[f"conv{idx}.b"] = np.random.default_rng(idx).uniform(-0.2, 0.2, blocks[idx][0])
    rng = np.random.default_rng(12)
    xs = rng.standard_normal((7, 128, 128))
    ys = np.eye(3)[rng.integers(0, 3, size=7)]

    loss, grads = backward(params, cfg, xs, ys)
    assert loss == cross_entropy(forward(params, cfg, xs), ys)
    ref_loss, ref = einsum_backward(params, blocks, xs, ys)
    assert loss == pytest.approx(ref_loss, rel=1e-12)
    assert sorted(grads) == sorted(ref)
    for name in ref:
        scale = max(np.abs(ref[name]).max(), 1e-8)
        assert np.abs(grads[name] - ref[name]).max() / scale <= 1e-12, name


WORKSPACE_STACKS = {
    **{name: [(b["out_width"], b["stride"], b["residual"]) for b in blocks]
       for name, blocks in MODEL_PRESETS.items() if name != "cnn-small-narrow"},
    "odd-stack": [(3, 2, False), (5, 1, False), (5, 1, True), (4, 2, False)],
}


def _biased_params(cfg, blocks):
    params = init_params(cfg)
    for idx in range(len(blocks)):
        params[f"conv{idx}.b"] = np.random.default_rng(idx).uniform(-0.2, 0.2, blocks[idx][0])
    return params


def _assert_same_bits(got, want):
    loss, grads = got
    assert loss == want[0]
    assert sorted(grads) == sorted(want[1])
    for name, g in grads.items():
        assert g.tobytes() == want[1][name].tobytes(), name


@pytest.mark.parametrize("extent", [(128, 128), (32, 128), (127, 129)])
@pytest.mark.parametrize("stack", sorted(WORKSPACE_STACKS))
def test_reused_workspace_matches_one_off_calls(stack, extent):
    # the calls train makes: backward on batches whose last micro-batch is short,
    # with validation forwards in between, all on one workspace
    blocks = WORKSPACE_STACKS[stack]
    cfg = small_config(blocks, channels=extent[0], bins=extent[1], seed=2)
    params = _biased_params(cfg, blocks)
    ws = Workspace(cfg)
    k = ws.micro_batch
    rng = np.random.default_rng(extent[0] + len(blocks))
    for n, kind in [(k + 1, "backward"), (2, "forward"), (max(2 * k - 1, 1), "backward"),
                    (1, "backward"), (k + 2, "forward"), (k + 1, "backward")]:
        x = rng.standard_normal((n, *extent))
        if kind == "forward":
            assert forward(params, cfg, x, ws).tobytes() == forward(params, cfg, x).tobytes()
        else:
            y = np.eye(3)[rng.integers(0, 3, size=n)]
            _assert_same_bits(backward(params, cfg, x, y, ws), backward(params, cfg, x, y))


@pytest.mark.parametrize("stack", sorted(WORKSPACE_STACKS))
def test_workspace_results_survive_later_calls(stack):
    # nothing returned may point into the workspace's buffers
    blocks = WORKSPACE_STACKS[stack]
    cfg = small_config(blocks, channels=32, bins=128, seed=5)
    params = _biased_params(cfg, blocks)
    ws = Workspace(cfg)
    rng = np.random.default_rng(8)
    x1, x2 = rng.standard_normal((2, ws.micro_batch + 1, 32, 128))
    y1, y2 = np.eye(3)[rng.integers(0, 3, size=(2, ws.micro_batch + 1))]
    probs = forward(params, cfg, x1, ws)
    loss, grads = backward(params, cfg, x1, y1, ws)
    kept = probs.copy(), loss, {name: g.copy() for name, g in grads.items()}
    forward(params, cfg, x2, ws)
    backward(params, cfg, x2, y2, ws)
    assert probs.tobytes() == kept[0].tobytes()
    _assert_same_bits((loss, grads), kept[1:])


def test_workspace_belongs_to_one_network():
    cfg = small_config([(4, 2, False)])
    other = small_config([(8, 2, False)])
    with pytest.raises(ShapeMismatch, match="workspace"):
        forward(init_params(cfg), cfg, np.zeros((1, 4, 8)), Workspace(other))


@pytest.mark.parametrize("preset", ["cnn-small", "cnn-small-residual"])
def test_float32_workspace_stays_close_to_float64(preset):
    # training's workspace on an e2e-shaped batch. The inputs are float32 values,
    # as feature files hold: rounding them as well would move a few ReLU inputs
    # across 0 and change the gradient by a kink, not by precision.
    blocks = [(b["out_width"], b["stride"], b["residual"]) for b in MODEL_PRESETS[preset]]
    cfg = small_config(blocks, channels=128, bins=128)
    params = init_params(cfg)
    rng = np.random.default_rng(0)
    xs = rng.standard_normal((20, 128, 128)).astype(np.float32).astype(np.float64)
    ys = np.eye(3)[rng.integers(0, 3, size=20)]
    loss, grads = backward(params, cfg, xs, ys, Workspace(cfg))
    loss32, grads32 = backward(params, cfg, xs, ys, Workspace(cfg, np.float32))
    assert abs(loss32 - loss) <= 1e-6 * abs(loss)
    assert sorted(grads32) == sorted(grads)
    for name, g in grads.items():
        assert np.abs(grads32[name] - g).max() <= 1e-5 * np.abs(g).max(), name


def test_workspace_dtype_applies_inside_it_only(monkeypatch):
    # a call without a workspace makes a float64 one; the probabilities, the loss
    # and the gradients are float64 under either dtype
    made = []

    class Recorded(Workspace):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(self)

    blocks = [(4, 2, False), (4, 1, True)]
    cfg = small_config(blocks)
    params = _biased_params(cfg, blocks)
    assert Workspace(cfg).dtype == np.float64
    assert Workspace(cfg, np.float32).dtype == np.float32
    monkeypatch.setattr(nn, "Workspace", Recorded)
    rng = np.random.default_rng(3)
    xs = rng.standard_normal((5, 4, 8))
    ys = np.eye(3)[rng.integers(0, 3, size=5)]
    for ws in (None, Workspace(cfg), Workspace(cfg, np.float32)):
        assert forward(params, cfg, xs, ws).dtype == np.float64
        loss, grads = backward(params, cfg, xs, ys, ws)
        assert isinstance(loss, float)
        assert {g.dtype for g in grads.values()} == {np.dtype(np.float64)}
    assert [ws.dtype for ws in made] == [np.float64, np.float64]


def test_col2im_scatter_is_shared_per_geometry_and_dtype_and_read_only(monkeypatch):
    # the matrix depends only on the block's geometry and dtype, so a second
    # workspace of one network reuses the first one's, and another dtype has its own
    real, used = nn._col2im_scatter, []

    def spy(*key):
        used.append(real(*key))
        return used[-1]

    monkeypatch.setattr(nn, "_col2im_scatter", spy)
    blocks = [(4, 2, False), (4, 1, True), (6, 2, False)]
    cfg = small_config(blocks, channels=16, bins=16)
    params = _biased_params(cfg, blocks)
    rng = np.random.default_rng(4)
    xs = rng.standard_normal((5, 16, 16)).astype(np.float32)
    ys = np.eye(3)[rng.integers(0, 3, size=5)]
    runs = []
    for dtype in (np.float32, np.float32, np.float64):
        used.clear()
        backward(params, cfg, xs, ys, Workspace(cfg, dtype))
        runs.append(list(used))
    first, second, wide = runs
    assert len(first) == len(blocks) - 1
    assert all(a is b for a, b in zip(first, second, strict=True))
    assert not any(a is b for a in first for b in wide)
    assert {s.dtype for s in first} == {np.dtype(np.float32)}
    for scatter in first + wide:
        for part in (scatter.data, scatter.indices, scatter.indptr):
            assert not part.flags.writeable
