"""Sample entropy, multiscale profiles, and disorder-simulating noise.

Sample entropy is -ln(A/B) where B counts template pairs of length m within
Chebyshev tolerance r and A counts pairs of length m+1. Self-matches are
excluded; B runs over all N-m+1 templates of length m and A over all N-m
templates of length m+1, so a constant series of length N gives
A/B = (N-3)/(N-1) at m=2. When either count is zero the value is undefined
and reported as None, never coerced to a number.

A and B come from one sorted sweep. The length-m templates are sorted by
their first value, and for each offset k = 1, 2, ... sorted template i is
compared with sorted template i+k for all i at once; a pair within r on all
m values adds to B, and, if both templates start before N-m, a pair also
within r on value m+1 adds to A. The sweep stops at the first k with no
first-value gap <= r. That stop is exact: in a sorted array the gap from i
to i+k never shrinks as k grows, and rounded subtraction keeps that order.
Every comparison is the same |a - b| <= r as in a full pair enumeration, so
the counts equal it exactly. The work is the number of pairs whose first
values lie within r, not all N^2 / 2 pairs.

The disorder simulation adds truncated zero-mean Gaussian noise to a window;
its effect is quantified by the complexity index (sum of defined sample
entropies across coarse-graining scales) rising from clean to noisy.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ScaleTooLarge, SeriesTooShort


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
    order = np.argsort(x[: n - m + 1], kind="stable")
    first = x[order]
    a = b = 0
    for k in range(1, order.size):
        close = first[k:] - first[:-k] <= r
        if not close.any():
            break
        i, j = order[:-k][close], order[k:][close]
        for c in range(1, m):
            keep = np.abs(x[i + c] - x[j + c]) <= r
            i, j = i[keep], j[keep]
        b += i.size
        keep = np.maximum(i, j) < n - m
        a += int(np.count_nonzero(np.abs(x[i[keep] + m] - x[j[keep] + m]) <= r))
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

    Works on any array shape; the input is never modified.
    """
    x = np.asarray(window, dtype=np.float64)
    rng = np.random.default_rng(spec.seed)
    delta = rng.normal(0.0, spec.sigma, size=x.shape)
    mask = np.abs(delta) > spec.max_magnitude
    while np.any(mask):
        delta[mask] = rng.normal(0.0, spec.sigma, size=int(mask.sum()))
        mask = np.abs(delta) > spec.max_magnitude
    return x + delta


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
