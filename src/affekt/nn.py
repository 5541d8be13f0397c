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
_MICRO_BATCH_BYTES. On a 128 x 128 input a whole batch of 20 builds a 12 MB
patch matrix and a gradient of the same size: they stream from memory instead
of staying in cache, and each call page-faults them in anew. Three samples at
a time, the patch matrix is 1.7 MiB, close to the 2 MiB per-core L2 of the
Xeon the budget was measured on. Whether the micro-batches also stop page
faults depends on glibc's malloc: once the process has freed a block of about
6 MB or more, each micro-batch reuses the memory of the one before; until
then, each gives its memory back to the system and faults it in again. A
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


def _im2col(x: np.ndarray, stride: int):
    """(C, B, H, W) -> the (C*9, B*Ho*Wo) patch matrix of a 3x3, pad-1 conv."""
    c, b, h, w = x.shape
    ho = (h + 2 - 3) // stride + 1
    wo = (w + 2 - 3) // stride + 1
    xp = np.zeros((c, b, h + 2, w + 2), dtype=x.dtype)
    xp[:, :, 1:h + 1, 1:w + 1] = x
    cols = np.empty((c, 3, 3, b, ho, wo), dtype=x.dtype)
    for u in range(3):
        for v in range(3):
            cols[:, u, v] = xp[:, :, u:u + stride * (ho - 1) + 1:stride,
                               v:v + stride * (wo - 1) + 1:stride]
    return cols.reshape(c * 9, b * ho * wo), ho, wo


def _col2im(dcols: np.ndarray, x_shape, stride: int, ho: int, wo: int) -> np.ndarray:
    c, b, h, w = x_shape
    dxp = np.zeros((c, b, h + 2, w + 2), dtype=dcols.dtype)
    d6 = dcols.reshape(c, 3, 3, b, ho, wo)
    for u in range(3):
        for v in range(3):
            dxp[:, :, u:u + stride * (ho - 1) + 1:stride,
                v:v + stride * (wo - 1) + 1:stride] += d6[:, u, v]
    return dxp[:, :, 1:h + 1, 1:w + 1]


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


def _micro_batches(cfg: CnnConfig, n: int) -> list[slice]:
    """Consecutive sample slices whose largest im2col matrix fits the budget.

    An empty batch is one empty slice, so it still yields a (0, classes) result.
    """
    h, w, width, largest = cfg.input_channels, cfg.input_bins, 1, 1
    for block in cfg.blocks:
        h = (h - 1) // block.stride + 1
        w = (w - 1) // block.stride + 1
        largest = max(largest, width * 9 * h * w * 8)  # float64 bytes
        width = block.out_width
    k = max(1, _MICRO_BATCH_BYTES // largest)
    return [slice(lo, lo + k) for lo in range(0, max(n, 1), k)]


def _forward_images(params: dict, cfg: CnnConfig, a: np.ndarray):
    """Probabilities of a (1, B, H, W) image stack, and what backprop needs."""
    cache = []
    for idx, block in enumerate(cfg.blocks):
        cols, ho, wo = _im2col(a, block.stride)
        wmat = params[f"conv{idx}.w"].reshape(block.out_width, -1)
        pre = (wmat @ cols).reshape(block.out_width, a.shape[1], ho, wo)
        pre += params[f"conv{idx}.b"][:, None, None, None]
        act = np.maximum(pre, 0.0, out=pre)
        cache.append((a.shape, cols, act))
        a = act + a if block.residual else act
    pooled = a.mean(axis=(2, 3)).T
    logits = pooled @ params["dense.w"] + params["dense.b"]
    probs = softmax(logits)
    if not np.all(np.isfinite(probs)):
        raise NonFiniteActivation("softmax output contains NaN or inf")
    return probs, (cache, a, pooled)


def forward(params: dict, cfg: CnnConfig, x: np.ndarray) -> np.ndarray:
    """Class probabilities, one row per sample."""
    a = _as_images(cfg, x)
    return np.concatenate(
        [_forward_images(params, cfg, a[:, part])[0] for part in _micro_batches(cfg, a.shape[1])]
    )


def _backprop(params: dict, cfg: CnnConfig, a: np.ndarray, onehot: np.ndarray, n: int):
    """Probabilities of one micro-batch and its share of the gradients of a batch of n."""
    probs, (cache, last, pooled) = _forward_images(params, cfg, a)
    grads: dict[str, np.ndarray] = {}

    dlogits = (probs - onehot) / n
    grads["dense.w"] = pooled.T @ dlogits
    grads["dense.b"] = dlogits.sum(axis=0)
    dpooled = dlogits @ params["dense.w"].T
    da = np.broadcast_to(dpooled.T[:, :, None, None], last.shape) / (last.shape[2] * last.shape[3])

    for idx in range(len(cfg.blocks) - 1, -1, -1):
        block = cfg.blocks[idx]
        in_shape, cols, act = cache[idx]
        w = params[f"conv{idx}.w"]
        dpre = da * (act > 0.0)
        dpre_mat = dpre.reshape(block.out_width, -1)
        grads[f"conv{idx}.w"] = (dpre_mat @ cols.T).reshape(w.shape)
        grads[f"conv{idx}.b"] = dpre_mat.sum(axis=1)
        if idx == 0:
            break  # the input image takes no gradient
        dcols = w.reshape(block.out_width, -1).T @ dpre_mat
        dx = _col2im(dcols, in_shape, block.stride, act.shape[2], act.shape[3])
        if block.residual:
            dx += da
        da = dx
    return probs, grads


def backward(params: dict, cfg: CnnConfig, x: np.ndarray, onehot: np.ndarray):
    """Loss and exact gradients of batch-mean cross-entropy for every tensor."""
    a = _as_images(cfg, x)
    n = a.shape[1]
    if onehot.shape != (n, cfg.n_classes):
        raise ShapeMismatch(f"targets {onehot.shape}, expected {(n, cfg.n_classes)}")
    probs = []
    grads: dict[str, np.ndarray] = {}
    for part in _micro_batches(cfg, n):
        part_probs, part_grads = _backprop(params, cfg, a[:, part], onehot[part], n)
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
