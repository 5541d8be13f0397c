"""Independent reference computations used by the test suite.

Everything here is deliberately written on a different route from the package
code: plain math/cmath arithmetic, compensated summation, pair enumeration via
scipy.spatial, and straight-line nested loops for the network forward pass.
Tests compare package output against these; none of this module is imported by
the package itself.
"""

from __future__ import annotations

import cmath
import math

import numpy as np
from scipy.spatial.distance import pdist

# --- analog prototype magnitude and bilinear pre-warp mapping ---


def butterworth_gain(order_n: int, w: float) -> float:
    """Magnitude of the analog lowpass prototype at normalized frequency w."""
    return 1.0 / math.sqrt(1.0 + w ** (2 * order_n))


def prewarped_prototype_w(kind: str, edges_hz, f_hz: float, fs_hz: float) -> float:
    """Map a digital frequency to the analog lowpass-prototype frequency.

    This is the standard bilinear-transform pre-warp composed with the
    lowpass-to-{high,band}pass analog substitutions, so a digitally designed
    Butterworth filter should satisfy |H(f)| == butterworth_gain(n, result)
    up to rounding.
    """
    def t(f: float) -> float:
        return math.tan(math.pi * f / fs_hz)

    if kind == "lowpass":
        return t(f_hz) / t(edges_hz[0])
    if kind == "highpass":
        return t(edges_hz[0]) / t(f_hz)
    lo, hi = edges_hz
    w = t(f_hz)
    w1, w2 = t(lo), t(hi)
    bw = w2 - w1
    w0sq = w1 * w2
    if kind == "bandpass":
        return abs((w * w - w0sq) / (bw * w))
    if kind == "bandstop":
        return abs(bw * w / (w * w - w0sq))
    raise ValueError(f"unknown kind {kind!r}")


def sos_response(sections, f_hz: float, fs_hz: float) -> complex:
    """Evaluate H(e^{j2*pi*f/fs}) directly from cascaded biquad coefficients."""
    zinv = cmath.exp(-2j * math.pi * f_hz / fs_hz)
    h = complex(1.0, 0.0)
    for b0, b1, b2, a0, a1, a2 in sections:
        num = b0 + b1 * zinv + b2 * zinv * zinv
        den = a0 + a1 * zinv + a2 * zinv * zinv
        h *= num / den
    return h


# --- compensated-summation moments ---


def mean_fsum(xs) -> float:
    xs = list(map(float, xs))
    return math.fsum(xs) / len(xs)


def std_fsum(xs) -> float:
    """Population standard deviation via math.fsum."""
    xs = list(map(float, xs))
    mu = mean_fsum(xs)
    return math.sqrt(math.fsum((v - mu) ** 2 for v in xs) / len(xs))


def rms_fsum(xs) -> float:
    xs = list(map(float, xs))
    return math.sqrt(math.fsum(v * v for v in xs) / len(xs))


# --- sample-entropy template counting ---


def sampen_counts_bruteforce(x, m: int, r: float) -> tuple[int, int]:
    """(A, B) match counts by full pair enumeration.

    B enumerates all N-m+1 templates of length m, A all N-m templates of
    length m+1, Chebyshev distance, pairs i<j only (no self-matches).
    """
    x = np.asarray(x, dtype=float)
    n = x.size
    tm = np.array([x[i:i + m] for i in range(n - m + 1)])
    tm1 = np.array([x[i:i + m + 1] for i in range(n - m)])
    b = int(np.count_nonzero(pdist(tm, "chebyshev") <= r))
    a = int(np.count_nonzero(pdist(tm1, "chebyshev") <= r)) if len(tm1) > 1 else 0
    return a, b


def sampen_counts_pure(x, m: int, r: float) -> tuple[int, int]:
    """Same counts in pure Python loops; cross-checks the numpy route on small n."""
    x = [float(v) for v in x]
    n = len(x)

    def count(length: int) -> int:
        total = 0
        n_templates = n - length + 1
        for i in range(n_templates):
            for j in range(i + 1, n_templates):
                d = max(abs(x[i + k] - x[j + k]) for k in range(length))
                if d <= r:
                    total += 1
        return total

    return count(m + 1), count(m)


def coarse_grain_loops(x, tau: int):
    """Non-overlapping block means, remainder dropped, explicit loops."""
    x = [float(v) for v in x]
    out = []
    for start in range(0, (len(x) // tau) * tau, tau):
        out.append(math.fsum(x[start:start + tau]) / tau)
    return out


# --- truncated Gaussian noise ---


def noise_by_whole_mask(x, spec):
    """x + delta, delta ~ N(0, sigma) drawn by rng.normal, every round recomputing the mask
    over the whole array and redrawing its entries, until no |delta| exceeds max_magnitude."""
    rng = np.random.default_rng(spec.seed)
    delta = rng.normal(0.0, spec.sigma, size=x.shape)
    mask = np.abs(delta) > spec.max_magnitude
    while np.any(mask):
        delta[mask] = rng.normal(0.0, spec.sigma, size=int(mask.sum()))
        mask = np.abs(delta) > spec.max_magnitude
    return x + delta


# --- spectra ---


def total_power_fsum(freqs, psd) -> float:
    """Integrate a one-sided density spectrum: sum(psd) * df."""
    df = float(freqs[1]) - float(freqs[0])
    return math.fsum(float(p) for p in psd) * df


# --- SMOTE convex-combination recovery ---


def is_convex_combination(x_new, originals, tol: float = 1e-9) -> bool:
    """True if x_new lies on a segment between two distinct rows of originals."""
    x_new = np.asarray(x_new, dtype=float)
    originals = np.asarray(originals, dtype=float)
    for i in range(len(originals)):
        xi = originals[i]
        for j in range(len(originals)):
            if i == j:
                continue
            d = originals[j] - xi
            k = int(np.argmax(np.abs(d)))
            if d[k] == 0.0:
                if np.max(np.abs(x_new - xi)) <= tol:
                    return True
                continue
            u = (x_new[k] - xi[k]) / d[k]
            if u < -tol or u > 1.0 + tol:
                continue
            if np.max(np.abs(xi + u * d - x_new)) <= tol:
                return True
    return False


# --- straight-line network forward pass ---


def conv3x3_loops(x, w, b, stride: int):
    """3x3 convolution, zero padding 1, nested loops. x: (Cin,H,W)."""
    cin, h, wd = x.shape
    cout = w.shape[0]
    ho = (h + 2 - 3) // stride + 1
    wo = (wd + 2 - 3) // stride + 1
    xp = np.zeros((cin, h + 2, wd + 2))
    xp[:, 1:h + 1, 1:wd + 1] = x
    out = np.zeros((cout, ho, wo))
    for co in range(cout):
        for i in range(ho):
            for j in range(wo):
                acc = 0.0
                for ci in range(cin):
                    for u in range(3):
                        for v in range(3):
                            acc += w[co, ci, u, v] * xp[ci, i * stride + u, j * stride + v]
                out[co, i, j] = acc + b[co]
    return out


def forward_loops(params, blocks, x):
    """Straight-line forward pass for one sample.

    x: (C, F) single-channel image. blocks: iterable of (out_width, stride,
    residual) tuples. params uses the conv{i}.w/conv{i}.b/dense.w/dense.b
    naming. Returns softmax probabilities as a 1-D array.
    """
    a = np.asarray(x, dtype=float)[None, :, :]
    for idx, (out_width, stride, residual) in enumerate(blocks):
        pre = conv3x3_loops(a, params[f"conv{idx}.w"], params[f"conv{idx}.b"], stride)
        act = np.where(pre > 0.0, pre, 0.0)
        if residual:
            act = act + a
        a = act
    width = a.shape[0]
    pooled = np.array([mean_fsum(a[c].ravel()) for c in range(width)])
    wd, bd = params["dense.w"], params["dense.b"]
    k = wd.shape[1]
    logits = np.array([
        math.fsum(pooled[c] * wd[c, kk] for c in range(width)) + bd[kk]
        for kk in range(k)
    ])
    shifted = np.exp(logits - logits.max())
    return shifted / math.fsum(shifted)


# --- finite differences ---


def finite_difference_gradients(loss_fn, params, h: float = 1e-4):
    """Central-difference gradient of loss_fn(params) for every tensor entry."""
    grads = {}
    for name, tensor in params.items():
        g = np.zeros_like(tensor, dtype=float)
        flat = tensor.reshape(-1)
        gflat = g.reshape(-1)
        for idx in range(flat.size):
            keep = flat[idx]
            flat[idx] = keep + h
            up = loss_fn(params)
            flat[idx] = keep - h
            down = loss_fn(params)
            flat[idx] = keep
            gflat[idx] = (up - down) / (2.0 * h)
        grads[name] = g
    return grads


# --- streaming trigger rule ---


def trigger_indices(class_names, consecutive: int) -> list[int]:
    """Window indices where the M-consecutive-negative rule fires."""
    fired = []
    run = 0
    for idx, name in enumerate(class_names):
        if name == "negative":
            run += 1
            if run == consecutive:
                fired.append(idx)
                run = 0
        else:
            run = 0
    return fired
