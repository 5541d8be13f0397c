"""From-scratch CNN on feature matrices: forward pass and exact gradients.

Architecture: the (channels x bins) matrix enters as a one-channel image and
passes through a stack of blocks, each 3x3 convolution (zero padding 1,
stride 1 or 2) -> bias -> ReLU -> optional residual addition of the block
input. A global average pool feeds a dense layer and softmax. Residual blocks
require stride 1 and matching widths, so a zero-initialized residual block is
exactly the identity.

Parameters, the pooled/dense head, softmax and the loss are float64 numpy.
The conv stack runs in its Workspace's dtype: float64 by default, so forward(),
backward(), training.evaluate without a workspace and stream_classify are
float64 throughout, and backward() returns analytic gradients of the
batch-mean cross-entropy that tests hold to central finite differences.
training.train makes its workspace float32, as in mixed-precision training
(Micikevicius et al., 2018): the images, the im2col / GEMM / col2im work and
the conv weights (cast per call) are float32, while the master parameters,
Adam and the head stay float64, and every gradient is returned as float64.

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
sum and the patch-matrix gradient (col2im's scatter matrix depends only on
geometry and dtype, and is built once per process). training.train makes
one per run and stream_classify one per run; a call without one makes its
own. Reused buffers keep glibc's malloc from giving each micro-batch's memory
back to the system and faulting it in again, which cost a fresh CLI train
process ~12.5 M minor faults and ~20 s of system time. The bits are
those of a padded-copy im2col and a nine-tap += col2im: each tap copies its
in-image rectangle and the padding entries stay the zeros they were made
with, the GEMMs write through column slices of the same shapes, and col2im's
sparse product adds each pixel's taps in the same (u, v) order from 0.0. A
network whose whole batch fits is not split, and its results are bit for bit
those of one pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import NonFiniteActivation, NonFiniteGradient, ShapeMismatch

PROB_FLOOR = 1e-12
# Largest im2col matrix one micro-batch may build. 2 MiB is the per-core L2
# of the 2-core Xeon it was tuned on, and a measured optimum there: nn.backward
# at batch 20 (cnn-small, 128 x 128, one BLAS thread, median CPU ms of 15
# calls) took 24.5 / 22.9 / 22.3 / 23.5 / 31.5 / 45.6 ms for micro-batches of
# 1 / 2 / 3 / 4 / 6 / 10 samples, and 42.5 ms unsplit; 3 samples fit 2 MiB.
# Workspace counts 8 bytes per entry whatever its dtype, on purpose: a float32
# workspace keeps the 3-sample micro-batch, and the 6 samples that 4-byte
# entries would allow made float32 training slower again.
_MICRO_BATCH_BYTES = 2 << 20


@dataclass(frozen=True)
class BlockSpec:
    out_width: int
    stride: int = 1
    residual: bool = False

    def __post_init__(self) -> None:
        # type() so that a bool, which JSON keeps apart from a number, is never a width or stride
        if type(self.out_width) is not int or self.out_width < 1:
            raise ShapeMismatch(f"block out_width must be an integer >= 1, got {self.out_width!r}")
        if type(self.stride) is not int or self.stride not in (1, 2):
            raise ShapeMismatch(f"block stride must be the integer 1 or 2, got {self.stride!r}")
        if type(self.residual) is not bool:
            raise ShapeMismatch(f"block residual must be true or false, got {self.residual!r}")
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
        for name, least in (("input_channels", 1), ("input_bins", 1), ("n_classes", 2), ("seed", 0)):
            value = getattr(self, name)
            # type() as in BlockSpec: a bool or a float is never a dimension, a count or a seed
            if type(value) is not int or value < least:
                raise ShapeMismatch(f"{name} must be an integer >= {least}, got {value!r}")
        object.__setattr__(
            self,
            "blocks",
            tuple(b if isinstance(b, BlockSpec) else BlockSpec(**b) for b in self.blocks),
        )
        width = 1
        for idx, block in enumerate(self.blocks):
            if block.residual and block.out_width != width:
                raise ShapeMismatch(
                    f"block {idx}: residual requires in_width == out_width "
                    f"({width} != {block.out_width})"
                )
            width = block.out_width


def param_shapes(cfg: CnnConfig) -> dict[str, tuple[int, ...]]:
    """The shape of each tensor of cfg's network by name, in init_params' draw order."""
    shapes = {}
    width = 1
    for idx, block in enumerate(cfg.blocks):
        shapes[f"conv{idx}.w"] = (block.out_width, width, 3, 3)
        shapes[f"conv{idx}.b"] = (block.out_width,)
        width = block.out_width
    shapes["dense.w"] = (width, cfg.n_classes)
    shapes["dense.b"] = (cfg.n_classes,)
    return shapes


def init_params(cfg: CnnConfig) -> dict[str, np.ndarray]:
    """Kaiming-uniform fan-in weights, zero biases, drawn in param_shapes' order."""
    rng = np.random.default_rng(cfg.seed)
    params: dict[str, np.ndarray] = {}
    for name, shape in param_shapes(cfg).items():
        if name.endswith(".b"):
            params[name] = np.zeros(shape)
            continue
        # fan-in: a conv weight's input width x 3 x 3, the dense weight's pooled width
        bound = math.sqrt(6.0 / (math.prod(shape[1:]) if len(shape) == 4 else shape[0]))
        params[name] = rng.uniform(-bound, bound, size=shape)
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


def _as_images(cfg: CnnConfig, x: np.ndarray, dtype) -> np.ndarray:
    """(batch, channels, bins) input -> a one-channel (1, B, H, W) image stack."""
    x = np.asarray(x, dtype=dtype)
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

    def __init__(
        self, block: BlockSpec, c: int, h: int, w: int, samples: int, first: bool,
        dtype=np.float64,
    ):
        s = self.stride = block.stride
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
        self.cols = np.zeros((c, 3, 3, samples, self.ho, self.wo), dtype)
        self.out = np.empty((block.out_width, n_cols), dtype)
        self.skip = (np.empty((block.out_width, samples, self.ho, self.wo), dtype)
                     if block.residual else None)
        self.dcols = None if first else np.empty((c * 9, n_cols), dtype)

    def im2col(self, a: np.ndarray) -> np.ndarray:
        """(C, b, H, W) -> the (C*9, b*Ho*Wo) patch matrix of a 3x3, pad-1 conv."""
        c, b = a.shape[:2]
        cols = self.cols[:, :, :, :b]
        for dst, src in self.taps:
            cols[dst] = a[src]
        return cols.reshape(c * 9, -1)

    def col2im(self, dcols: np.ndarray, b: int) -> np.ndarray:
        """Sum the patch-matrix gradient back onto a (C, b, H, W) input (see _col2im_scatter)."""
        c, h, w = self.in_shape
        scatter = _col2im_scatter(c, h, w, self.stride, b, dcols.dtype)
        return (scatter @ dcols.ravel()).reshape(c, b, h, w)


@lru_cache(maxsize=32)
def _col2im_scatter(c: int, h: int, w: int, stride: int, b: int, dtype: np.dtype):
    """col2im's 0/1 CSR scatter matrix for b samples of a (c, h, w) input at stride: a
    row per input pixel, a column per entry of the patch-matrix gradient in its flat
    order, no entry for a tap on the padding. scipy sums each row from 0.0 in column
    order, so each pixel adds its taps in (u, v) order, as nine shifted += would. It
    depends on nothing else, so each process builds it once; it is read-only."""
    from scipy import sparse  # here, so a process that only runs forward never loads it
    # each patch-matrix entry's input pixel, numbered from 1 so that a padding tap reads 0;
    # int32 indices: the product ran a fifth faster than with int64
    pixels = np.arange(1, c * b * h * w + 1, dtype=np.int32).reshape(c, b, h, w)
    index = _Conv(BlockSpec(1, stride), c, h, w, b, True, np.int32).im2col(pixels).ravel()
    taps = np.flatnonzero(index).astype(np.int32)
    scatter = sparse.csr_array((np.ones(taps.size, dtype), (index[taps] - 1, taps)),
                               shape=(pixels.size, index.size))
    for part in (scatter.data, scatter.indices, scatter.indptr):
        part.flags.writeable = False
    return scatter


class Workspace:
    """Buffers that forward() and backward() reuse across calls on one network.

    The workspace owns the micro-batch rule: a micro-batch holds as many
    samples as keep the largest im2col matrix within _MICRO_BATCH_BYTES. Its
    buffers are made on first use, for the largest micro-batch seen so far,
    and stay for the workspace's life. Arrays that forward() and backward()
    return never point into them. One call at a time: two threads must not
    share a workspace.

    dtype is that of the conv stack's buffers, input images and weight copies;
    the head, the loss and the returned gradients are float64 either way.
    col2im's scatter matrices are the process's, one per geometry and dtype.
    """

    def __init__(self, cfg: CnnConfig, dtype=np.float64) -> None:
        self.cfg = cfg
        self.dtype = np.dtype(dtype)
        h, w, width, largest = cfg.input_channels, cfg.input_bins, 1, 1
        for block in cfg.blocks:
            h = (h - 1) // block.stride + 1
            w = (w - 1) // block.stride + 1
            largest = max(largest, width * 9 * h * w * 8)  # 8 bytes whatever the dtype
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
                conv = _Conv(block, c, h, w, b, idx == 0, self.dtype)
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
    """Probabilities of a (1, b, H, W) micro-batch in ws.dtype, and what backprop needs."""
    b = a.shape[1]
    cache = []
    for idx, (block, conv) in enumerate(zip(cfg.blocks, ws.convs(b))):
        cols = conv.im2col(a)
        wmat = params[f"conv{idx}.w"].reshape(block.out_width, -1).astype(ws.dtype, copy=False)
        pre = np.matmul(wmat, cols, out=conv.out[:, :cols.shape[1]])
        act = pre.reshape(block.out_width, b, conv.ho, conv.wo)
        act += params[f"conv{idx}.b"].astype(ws.dtype, copy=False)[:, None, None, None]
        np.maximum(act, 0.0, out=act)
        cache.append((conv, cols, act, wmat))
        a = np.add(act, a, out=conv.skip[:, :b]) if block.residual else act
    pooled = a.mean(axis=(2, 3), dtype=np.float64).T
    logits = pooled @ params["dense.w"] + params["dense.b"]
    probs = softmax(logits)
    if not np.all(np.isfinite(probs)):
        raise NonFiniteActivation("softmax output contains NaN or inf")
    return probs, (cache, a, pooled)


def forward(
    params: dict, cfg: CnnConfig, x: np.ndarray, workspace: Workspace | None = None
) -> np.ndarray:
    """Class probabilities, one row per sample."""
    ws = _workspace(cfg, workspace)
    a = _as_images(cfg, x, ws.dtype)
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
    da = (dpooled.T / math.prod(last.shape[2:])).astype(ws.dtype, copy=False)[:, :, None, None]

    for idx in range(len(cfg.blocks) - 1, -1, -1):
        block = cfg.blocks[idx]
        conv, cols, act, wmat = cache[idx]
        # the ReLU mask turns the activation's buffer into dpre; da stays
        # whole for a residual block's skip path
        np.greater(act, 0.0, out=act)
        dpre_mat = np.multiply(da, act, out=act).reshape(block.out_width, -1)
        # this micro-batch's share, cast to float64 before backward() sums the shares
        grads[f"conv{idx}.w"] = (dpre_mat @ cols.T).reshape(
            params[f"conv{idx}.w"].shape).astype(np.float64, copy=False)
        grads[f"conv{idx}.b"] = dpre_mat.sum(axis=1).astype(np.float64, copy=False)
        if idx == 0:
            break  # the input image takes no gradient
        dcols = np.matmul(wmat.T, dpre_mat, out=conv.dcols[:, :cols.shape[1]])
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
    ws = _workspace(cfg, workspace)
    a = _as_images(cfg, x, ws.dtype)
    n = a.shape[1]
    if onehot.shape != (n, cfg.n_classes):
        raise ShapeMismatch(f"targets {onehot.shape}, expected {(n, cfg.n_classes)}")
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
