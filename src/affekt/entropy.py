"""Sample entropy, multiscale profiles, and disorder-simulating noise.

Sample entropy is -ln(A/B) where B counts template pairs of length m within
Chebyshev tolerance r and A counts pairs of length m+1. Self-matches are
excluded; B runs over all N-m+1 templates of length m and A over all N-m
templates of length m+1, so a constant series of length N gives
A/B = (N-3)/(N-1) at m=2. When either count is zero the value is undefined
and reported as None, never coerced to a number.

A and B come from one sorted sweep. The length-m templates are sorted by
their first value into an (m+1, N-m+1+16) matrix: row c holds value c+1,
value m+1 is NaN for the template starting at N-m (it has no extension), and
16 NaN columns pad the end; a NaN never compares <= r. Each row is gathered
straight from the series into the matrix, and NaN is written only where it
belongs, so a call sets up little beyond its sort. Each step compares every
sorted template i in a row span [lo, hi) with templates i+k .. i+k+15
through one strided view of the matrix, without gathers: a pair within r on
the first m values adds to B, and if also within r on value m+1, to A. The span
then shrinks to the rows whose first-value gap at offset k+15 is still <= r,
and the sweep stops when none is. That is exact: in a sorted array the gap
from i to i+k never shrinks as k grows, and rounded subtraction keeps that
order, so a row that leaves the span has no partners left, and a finished
row still inside it fails the first-value test, costing work but no count.
Every comparison is the same |a - b| <= r as in a full pair enumeration, so
the counts equal it exactly. The work is about the number of pairs whose
first values lie within r, not all N^2 / 2 pairs.

The disorder simulation adds truncated zero-mean Gaussian noise to a window;
its effect is quantified by the complexity index (sum of defined sample
entropies across coarse-graining scales) rising from clean to noisy.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ScaleTooLarge, SeriesTooShort

_BLOCK = 16  # offsets per step of the sorted sweep; 32 and 64 timed slower at window size
# The sweep's difference buffers by size, kept across calls (one call at a time): a new 0.5 MB
# array per call faulted its pages in again whenever malloc had trimmed the top of the heap.
_sweep_buffer = lru_cache(maxsize=16)(np.empty)


@dataclass(frozen=True)
class EntropyParams:
    m: int = 2
    r_factor: float = 0.15
    max_scale: int = 10

    def __post_init__(self) -> None:
        if self.m < 1:
            raise SeriesTooShort(f"template length m must be >= 1, got {self.m}")
        if self.r_factor <= 0:
            raise SeriesTooShort(f"r_factor must be positive, got {self.r_factor}")
        if self.max_scale < 1:
            raise ScaleTooLarge(f"max_scale must be >= 1, got {self.max_scale}")


@dataclass
class EntropyProfile:
    """Sample entropy per coarse-graining scale plus the summed index."""

    per_scale: list[tuple[int, float | None]]
    complexity_index: float
    m: int
    r: float

    @property
    def n_undefined(self) -> int:
        return sum(1 for _, v in self.per_scale if v is None)


def template_match_counts(series, m: int, r: float) -> tuple[int, int]:
    """Return (A, B): matched pair counts at template lengths m+1 and m."""
    x = np.asarray(series, dtype=np.float64).ravel()
    n = x.size
    if n < m + 2:
        raise SeriesTooShort(f"need at least m+2={m + 2} samples, got {n}")
    nt = n - m + 1
    order = np.argsort(x[:nt], kind="stable")
    t = np.empty((m + 1, nt + _BLOCK))
    for c in range(m + 1):
        # row m clips the index of the last template's missing extension; set to NaN below
        np.take(x[c:], order, out=t[c, :nt], mode="clip")
    t[m, int((order == nt - 1).argmax())] = np.nan
    t[:, nt:] = np.nan
    s0, s1 = t.strides
    # [c, w, j] = t[c, j + w]
    ahead = np.ndarray((m + 1, _BLOCK, nt + 1), buffer=t, strides=(s0, s1, s1))
    a = b = 0
    k, lo, hi = 1, 0, nt
    buffer = _sweep_buffer((m + 1) * _BLOCK * nt)
    while k < nt:
        d = buffer[: (m + 1) * _BLOCK * (hi - lo)].reshape(m + 1, _BLOCK, hi - lo)
        np.subtract(ahead[:, :, lo + k : hi + k], t[:, None, lo:hi], out=d)
        np.abs(d, out=d)
        alive = np.flatnonzero(d[0, -1] <= r)
        # d[c] becomes the Chebyshev distance over values 1..c+1
        for c in range(1, m):
            np.maximum(d[c], d[c - 1], out=d[c])
        b += int(np.count_nonzero(d[m - 1] <= r))
        a += int(np.count_nonzero(np.maximum(d[m], d[m - 1], out=d[m]) <= r))
        if alive.size == 0:
            break
        lo, hi, k = lo + alive[0], lo + alive[-1] + 1, k + _BLOCK
    return a, b


def sample_entropy_abs(series, m: int, r: float) -> float | None:
    """Sample entropy with an absolute tolerance r; None when undefined."""
    a, b = template_match_counts(series, m, r)
    if a == 0 or b == 0:
        return None
    return -math.log(a / b)


def coarse_grain(series, tau: int) -> np.ndarray:
    """Means of consecutive non-overlapping blocks of tau samples.

    The remainder after the last full block is discarded. tau=1 returns a
    copy of the input.
    """
    x = np.asarray(series, dtype=np.float64).ravel()
    if tau < 1:
        raise ScaleTooLarge(f"scale must be >= 1, got {tau}")
    n_blocks = x.size // tau
    if n_blocks == 0:
        raise ScaleTooLarge(f"scale {tau} larger than series of {x.size} samples")
    return x[: n_blocks * tau].reshape(n_blocks, tau).mean(axis=1)


def multiscale_entropy(series, params: EntropyParams = EntropyParams()) -> EntropyProfile:
    """Entropy profile over scales 1..max_scale.

    The tolerance r is fixed from the original (scale 1) series' sigma and
    reused at every scale. Scales whose sample entropy is undefined are
    reported as None and excluded from the complexity index with a warning.
    """
    x = np.asarray(series, dtype=np.float64).ravel()
    if x.size // params.max_scale < params.m + 2:
        raise ScaleTooLarge(
            f"scale {params.max_scale} leaves {x.size // params.max_scale} samples, "
            f"need at least {params.m + 2}"
        )
    r = params.r_factor * float(x.std())
    per_scale: list[tuple[int, float | None]] = []
    for tau in range(1, params.max_scale + 1):
        value = sample_entropy_abs(coarse_grain(x, tau), params.m, r)
        if value is None:
            warnings.warn(
                f"sample entropy undefined at scale {tau}; excluded from complexity index",
                stacklevel=2,
            )
        per_scale.append((tau, value))
    ci = float(sum(v for _, v in per_scale if v is not None))
    return EntropyProfile(per_scale=per_scale, complexity_index=ci, m=params.m, r=r)


@dataclass(frozen=True)
class NoiseSpec:
    """Truncated Gaussian perturbation: sigma = max_magnitude / 3."""

    max_magnitude: float = 4.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_magnitude <= 0:
            raise SeriesTooShort(f"max_magnitude must be positive, got {self.max_magnitude}")

    @property
    def sigma(self) -> float:
        return self.max_magnitude / 3.0


def add_gaussian_noise(window, spec: NoiseSpec) -> np.ndarray:
    """Add seeded zero-mean Gaussian noise, re-drawn until |delta| <= max.

    Works on any array shape; the input is never modified. The noise is drawn
    as standard normals and scaled in place, and the window is added into it,
    so neither the scaling nor the sum makes a new array. Its bits are those
    of rng.normal(0, sigma) and x + delta: numpy's normal is 0.0 + sigma * z
    over the same stream of z, which can differ only in the sign of a zero,
    and adding x erases that sign unless x is -0.0 there; IEEE addition is
    commutative.
    """
    x = np.asarray(window, dtype=np.float64)
    rng = np.random.default_rng(spec.seed)
    delta = rng.standard_normal(x.shape)
    delta *= spec.sigma
    bad = np.flatnonzero(np.abs(delta) > spec.max_magnitude)
    while bad.size:  # only those still out of range are drawn again, in flat order
        np.put(delta, bad, spec.sigma * rng.standard_normal(bad.size))
        bad = bad[np.abs(delta.flat[bad]) > spec.max_magnitude]
    delta += x
    return delta


@dataclass
class ChannelShift:
    channel: str
    profile_clean: EntropyProfile
    profile_noisy: EntropyProfile

    @property
    def delta(self) -> float:
        return self.profile_noisy.complexity_index - self.profile_clean.complexity_index


def complexity_shift_report(
    clean: np.ndarray,
    noisy: np.ndarray,
    params: EntropyParams = EntropyParams(),
    channel_names: list[str] | None = None,
) -> list[ChannelShift]:
    """Per-channel complexity index before and after noise injection."""
    clean = np.atleast_2d(np.asarray(clean, dtype=np.float64))
    noisy = np.atleast_2d(np.asarray(noisy, dtype=np.float64))
    if clean.shape != noisy.shape:
        raise SeriesTooShort(f"clean {clean.shape} and noisy {noisy.shape} shapes differ")
    names = channel_names or [f"ch{idx:03d}" for idx in range(clean.shape[0])]
    report = []
    for idx in range(clean.shape[0]):
        report.append(
            ChannelShift(
                channel=names[idx],
                profile_clean=multiscale_entropy(clean[idx], params),
                profile_noisy=multiscale_entropy(noisy[idx], params),
            )
        )
    return report
