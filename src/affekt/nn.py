"""From-scratch CNN on feature matrices: forward pass and exact gradients.

Architecture: the (channels x bins) matrix enters as a one-channel image and
passes through a stack of blocks, each 3x3 convolution (zero padding 1,
stride 1 or 2) -> bias -> ReLU -> optional residual addition of the block
input. A global average pool feeds a dense layer and softmax. Residual blocks
require stride 1 and matching widths, so a zero-initialized residual block is
exactly the identity.

Everything is float64 numpy. backward() returns analytic gradients of the
batch-mean cross-entropy; tests hold them to central finite differences.

Inside the network activations are channel-major, (C, B, H, W), so every
convolution contraction is one 2-D GEMM on the (C*9, B*Ho*Wo) im2col patch
matrix (Chellapilla, Puri & Simard, 2006): W @ cols forward, dpre @ cols.T for
the weight gradient, W.T @ dpre for the input gradient. The first block
computes no input gradient, since nothing reads it.

forward() and backward() run that code over consecutive micro-batches of the
batch and add up the parameter gradients; the loss is computed once from the
joined probabilities, and dlogits is divided by the whole batch's size. A
micro-batch holds as many samples as keep the largest im2col matrix within
_MICRO_BATCH_BYTES: three at a time on a 128 x 128 input, a 1.7 MiB patch
matrix, close to the 2 MiB per-core L2 of the Xeon the budget was measured on.

The buffers live in a Workspace, one set per conv block: the patch matrix,
the conv output (which the ReLU mask later turns into dpre), the residual
sum, the patch-matrix gradient and col2im's scatter index. training.train
makes one per run and stream_classify one per run; a call without one makes
its own. Reused buffers keep glibc's malloc from giving each micro-batch's
memory back to the system and faulting it in again, which cost a fresh CLI
train process ~12.5 M minor faults and ~20 s of system time. The bits are
those of a padded-copy im2col and a nine-tap += col2im: each tap copies its
in-image rectangle and the padding entries stay the zeros they were made
with, the GEMMs write through column slices of the same shapes, and col2im's
one bincount adds each pixel's taps in the same (u, v) order from 0.0. A
network whose whole batch fits is not split, and its results are bit for bit
those of one pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NonFiniteActivation, NonFiniteGradient, ShapeMismatch

PROB_FLOOR = 1e-12
# Largest im2col matrix one micro-batch may build. 2 MiB is the per-core L2
# of the 2-core Xeon it was tuned on, and a measured optimum there: nn.backward
# at batch 20 (cnn-small, 128 x 128, one BLAS thread, median CPU ms of 15
# calls) took 24.5 / 22.9 / 22.3 / 23.5 / 31.5 / 45.6 ms for micro-batches of
# 1 / 2 / 3 / 4 / 6 / 10 samples, and 42.5 ms unsplit; 3 samples fit 2 MiB.
_MICRO_BATCH_BYTES = 2 << 20


@dataclass(frozen=True)
class BlockSpec:
    out_width: int
    stride: int = 1
    residual: bool = False

    def __post_init__(self) -> None:
        if self.out_width < 1:
            raise ShapeMismatch(f"block width must be >= 1, got {self.out_width}")
        if self.stride not in (1, 2):
            raise ShapeMismatch(f"stride must be 1 or 2, got {self.stride}")
        if self.residual and self.stride != 1:
            raise ShapeMismatch("residual blocks require stride 1")


@dataclass(frozen=True)
class CnnConfig:
    input_channels: int
    input_bins: int
    blocks: tuple[BlockSpec, ...]
    n_classes: int
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(
            self,
            "blocks",
            tuple(b if isinstance(b, BlockSpec) else BlockSpec(**b) for b in self.blocks),
        )
        if self.input_channels < 1 or self.input_bins < 1:
            raise ShapeMismatch("input dimensions must be >= 1")
        if self.n_classes < 2:
            raise ShapeMismatch(f"need at least 2 classes, got {self.n_classes}")
        width = 1
        for idx, block in enumerate(self.blocks):
            if block.residual and block.out_width != width:
                raise ShapeMismatch(
                    f"block {idx}: residual requires in_width == out_width "
                    f"({width} != {block.out_width})"
                )
            width = block.out_width


def init_params(cfg: CnnConfig) -> dict[str, np.ndarray]:
    """Kaiming-uniform fan-in weights, zero biases, fixed draw order."""
    rng = np.random.default_rng(cfg.seed)
    params: dict[str, np.ndarray] = {}
    width = 1
    for idx, block in enumerate(cfg.blocks):
        fan_in = width * 9
        bound = math.sqrt(6.0 / fan_in)
        params[f"conv{idx}.w"] = rng.uniform(-bound, bound, size=(block.out_width, width, 3, 3))
        params[f"conv{idx}.b"] = np.zeros(block.out_width)
        width = block.out_width
    bound = math.sqrt(6.0 / width)
    params["dense.w"] = rng.uniform(-bound, bound, size=(width, cfg.n_classes))
    params["dense.b"] = np.zeros(cfg.n_classes)
    return params


def softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def cross_entropy(probs: np.ndarray, onehot: np.ndarray) -> float:
    """Batch mean of -sum(y * log p), probabilities floored at 1e-12."""
    if probs.shape != onehot.shape:
        raise ShapeMismatch(f"probs {probs.shape} vs targets {onehot.shape}")
    logp = np.log(np.maximum(probs, PROB_FLOOR))
    return float(-(onehot * logp).sum(axis=1).mean())


def _as_images(cfg: CnnConfig, x: np.ndarray) -> np.ndarray:
    """(batch, channels, bins) input -> a one-channel (1, B, H, W) image stack."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 3 or x.shape[1] != cfg.input_channels or x.shape[2] != cfg.input_bins:
        raise ShapeMismatch(
            f"expected (batch, {cfg.input_channels}, {cfg.input_bins}), got {x.shape}"
        )
    return x[None]


def _tap_slices(n: int, n_out: int, stride: int) -> list[tuple[slice, slice]]:
    """For each tap offset u, the outputs o whose input stride*o + u - 1 lies
    in [0, n), and those inputs."""
    taps = []
    for u in range(3):
        lo, hi = (1 if u == 0 else 0), min(n_out, (n - u) // stride + 1)
        taps.append((slice(lo, hi), slice(stride * lo + u - 1, stride * (hi - 1) + u, stride)))
    return taps


class _Conv:
    """One conv block's buffers, for micro-batches of up to `samples` samples.

    A micro-batch of b samples uses the first b of each buffer: the GEMMs
    write through column slices, so a shorter last micro-batch needs no
    buffers of its own.
    """

    def __init__(self, block: BlockSpec, c: int, h: int, w: int, samples: int, first: bool):
        s = block.stride
        self.in_shape = (c, h, w)
        self.ho, self.wo = (h - 1) // s + 1, (w - 1) // s + 1
        # (patch-matrix index, input index) of each tap's in-image rectangle;
        # outside it a tap reads the zero padding
        self.taps = [
            ((slice(None), u, v, slice(None), out_rows, out_cols),
             (slice(None), slice(None), in_rows, in_cols))
            for u, (out_rows, in_rows) in enumerate(_tap_slices(h, self.ho, s))
            for v, (out_cols, in_cols) in enumerate(_tap_slices(w, self.wo, s))
        ]
        n_cols = samples * self.ho * self.wo
        # zeroed once: im2col writes only the in-image rectangles, so the
        # padding taps stay 0
        self.cols = np.zeros((c, 3, 3, samples, self.ho, self.wo))
        self.out = np.empty((block.out_width, n_cols))
        self.skip = (np.empty((block.out_width, samples, self.ho, self.wo))
                     if block.residual else None)
        self.dcols = None if first else np.empty((c * 9, n_cols))
        self.col2im_index: dict[int, np.ndarray] = {}

    def im2col(self, a: np.ndarray) -> np.ndarray:
        """(C, b, H, W) -> the (C*9, b*Ho*Wo) patch matrix of a 3x3, pad-1 conv."""
        c, b = a.shape[:2]
        cols = self.cols[:, :, :, :b]
        for dst, src in self.taps:
            cols[dst] = a[src]
        return cols.reshape(c * 9, -1)

    def col2im(self, dcols: np.ndarray, b: int) -> np.ndarray:
        """Sum the patch-matrix gradient back onto a (C, b, H, W) input.

        One bincount over dcols in its own order: each pixel adds its taps in
        (u, v) order starting from 0.0, as a loop of nine shifted += would.
        Entries that fall on the padding go to one spare slot past the end.
        """
        c, h, w = self.in_shape
        pixels = c * b * h * w
        index = self.col2im_index.get(b)
        if index is None:
            index = np.full((c, 3, 3, b, self.ho, self.wo), pixels, dtype=np.intp)
            image = np.arange(pixels).reshape(c, b, h, w)
            for dst, src in self.taps:
                index[dst] = image[src]
            index = self.col2im_index[b] = index.ravel()
        dx = np.bincount(index, weights=dcols.ravel(), minlength=pixels + 1)
        # with no weights at all (an empty micro-batch) bincount counts in integers
        return dx[:pixels].reshape(c, b, h, w).astype(np.float64, copy=False)


class Workspace:
    """Buffers that forward() and backward() reuse across calls on one network.

    The workspace owns the micro-batch rule: a micro-batch holds as many
    samples as keep the largest im2col matrix within _MICRO_BATCH_BYTES. Its
    buffers are made on first use, for the largest micro-batch seen so far,
    and stay for the workspace's life. Arrays that forward() and backward()
    return never point into them. One call at a time: two threads must not
    share a workspace.
    """

    def __init__(self, cfg: CnnConfig) -> None:
        self.cfg = cfg
        h, w, width, largest = cfg.input_channels, cfg.input_bins, 1, 1
        for block in cfg.blocks:
            h = (h - 1) // block.stride + 1
            w = (w - 1) // block.stride + 1
            largest = max(largest, width * 9 * h * w * 8)  # float64 bytes
            width = block.out_width
        self.micro_batch = max(1, _MICRO_BATCH_BYTES // largest)
        self._samples = 0
        self._convs: list[_Conv] | None = None

    def micro_batches(self, n: int) -> list[slice]:
        """Consecutive sample slices of a batch of n.

        An empty batch is one empty slice, so it still yields a (0, classes) result.
        """
        k = self.micro_batch
        return [slice(lo, lo + k) for lo in range(0, max(n, 1), k)]

    def convs(self, b: int) -> list[_Conv]:
        """Each block's buffers, made anew only when b samples do not fit."""
        if self._convs is None or b > self._samples:
            self._convs = []
            c, h, w = 1, self.cfg.input_channels, self.cfg.input_bins
            for idx, block in enumerate(self.cfg.blocks):
                conv = _Conv(block, c, h, w, b, idx == 0)
                self._convs.append(conv)
                c, h, w = block.out_width, conv.ho, conv.wo
            self._samples = b
        return self._convs


def _workspace(cfg: CnnConfig, workspace: Workspace | None) -> Workspace:
    if workspace is None:
        return Workspace(cfg)
    if workspace.cfg != cfg:
        raise ShapeMismatch("workspace was made for another network config")
    return workspace


def _forward_images(params: dict, cfg: CnnConfig, a: np.ndarray, ws: Workspace):
    """Probabilities of a (1, b, H, W) micro-batch, and what backprop needs."""
    b = a.shape[1]
    cache = []
    for idx, (block, conv) in enumerate(zip(cfg.blocks, ws.convs(b))):
        cols = conv.im2col(a)
        wmat = params[f"conv{idx}.w"].reshape(block.out_width, -1)
        pre = np.matmul(wmat, cols, out=conv.out[:, :cols.shape[1]])
        act = pre.reshape(block.out_width, b, conv.ho, conv.wo)
        act += params[f"conv{idx}.b"][:, None, None, None]
        np.maximum(act, 0.0, out=act)
        cache.append((conv, cols, act))
        a = np.add(act, a, out=conv.skip[:, :b]) if block.residual else act
    pooled = a.mean(axis=(2, 3)).T
    logits = pooled @ params["dense.w"] + params["dense.b"]
    probs = softmax(logits)
    if not np.all(np.isfinite(probs)):
        raise NonFiniteActivation("softmax output contains NaN or inf")
    return probs, (cache, a, pooled)


def forward(
    params: dict, cfg: CnnConfig, x: np.ndarray, workspace: Workspace | None = None
) -> np.ndarray:
    """Class probabilities, one row per sample."""
    a = _as_images(cfg, x)
    ws = _workspace(cfg, workspace)
    return np.concatenate(
        [_forward_images(params, cfg, a[:, part], ws)[0] for part in ws.micro_batches(a.shape[1])]
    )


def _backprop(
    params: dict, cfg: CnnConfig, a: np.ndarray, onehot: np.ndarray, n: int, ws: Workspace
):
    """Probabilities of one micro-batch and its share of the gradients of a batch of n."""
    probs, (cache, last, pooled) = _forward_images(params, cfg, a, ws)
    grads: dict[str, np.ndarray] = {}

    dlogits = (probs - onehot) / n
    grads["dense.w"] = pooled.T @ dlogits
    grads["dense.b"] = dlogits.sum(axis=0)
    dpooled = dlogits @ params["dense.w"].T
    # the pool gives every pixel of a channel the same gradient, so keep it
    # (C, b, 1, 1) and let the ReLU mask broadcast it
    da = dpooled.T[:, :, None, None] / (last.shape[2] * last.shape[3])

    for idx in range(len(cfg.blocks) - 1, -1, -1):
        block = cfg.blocks[idx]
        conv, cols, act = cache[idx]
        w = params[f"conv{idx}.w"]
        # the ReLU mask turns the activation's buffer into dpre; da stays
        # whole for a residual block's skip path
        dpre_mat = np.multiply(da, act > 0.0, out=act).reshape(block.out_width, -1)
        grads[f"conv{idx}.w"] = (dpre_mat @ cols.T).reshape(w.shape)
        grads[f"conv{idx}.b"] = dpre_mat.sum(axis=1)
        if idx == 0:
            break  # the input image takes no gradient
        dcols = np.matmul(
            w.reshape(block.out_width, -1).T, dpre_mat, out=conv.dcols[:, :cols.shape[1]]
        )
        dx = conv.col2im(dcols, a.shape[1])
        if block.residual:
            dx += da
        da = dx
    return probs, grads


def backward(
    params: dict,
    cfg: CnnConfig,
    x: np.ndarray,
    onehot: np.ndarray,
    workspace: Workspace | None = None,
):
    """Loss and exact gradients of batch-mean cross-entropy for every tensor."""
    a = _as_images(cfg, x)
    n = a.shape[1]
    if onehot.shape != (n, cfg.n_classes):
        raise ShapeMismatch(f"targets {onehot.shape}, expected {(n, cfg.n_classes)}")
    ws = _workspace(cfg, workspace)
    probs = []
    grads: dict[str, np.ndarray] = {}
    for part in ws.micro_batches(n):
        part_probs, part_grads = _backprop(params, cfg, a[:, part], onehot[part], n, ws)
        probs.append(part_probs)
        if grads:
            for name, g in part_grads.items():
                grads[name] += g
        else:
            grads = part_grads
    loss = cross_entropy(np.concatenate(probs), onehot)

    for name, g in grads.items():
        if not np.all(np.isfinite(g)):
            raise NonFiniteGradient(f"gradient for {name} contains NaN or inf")
    return loss, grads
