"""Spectral feature matrices.

Each analysis window becomes a (channels x frequency-bins) image: Welch power
spectral density per channel (Hann window, 50% overlap, mean-removed
segments, density scaling so the spectrum integrates to the signal variance),
bins kept for 0 < f <= max_freq_hz, log-compressed, then standardized over
the whole matrix. With a 1-second segment at fs=512 and the default 128 Hz
threshold the canonical 128-channel montage yields a 128x128 matrix.

`welch_psd` gives the same bits as `scipy.signal.welch` with these settings
but skips its per-call set-up. The density-scaled Hann window and the
frequency grid are built once per (fs, spec) with numpy, in the steps by
which `scipy.signal.csd`'s `ShortTimeFFT` builds them, so they have its bits
without loading scipy.signal. Segments are cut as strided views, mean-removed
and windowed in one pass, and transformed by one batched `rfft`. scipy
averages the periodogram over segments as a contiguous (..., freq, segment)
array. numpy sums fewer than 8 values in order along any axis, but 8 or more
pairwise along a contiguous axis and in order along a strided one. So the
periodogram stays in the rfft's (..., segment, freq) layout for windows of
fewer than 8 segments (the default 1500-sample window has 4), and is copied
to scipy's layout before the mean from 8 segments on; either way the sums
run in scipy's order.

The feature path works on the kept band only. Each bin's segment mean
depends on no other bin (Welch 1967), so `psd_feature_values` cuts the
spectra to 0 < f <= max_freq_hz before squaring, doubling and averaging,
and the kept densities keep the bits that `welch_psd` gives them. The log
matrix is standardized as one row by `signals.zscore_array`.
scipy.fft is imported by the function that uses it, so a stage that
computes no spectrum does not load it, and no stage here loads scipy.signal.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .dataset import _int_at_least, f32_payload, read_input, write_artifact
from .errors import (EmptyBand, InvalidFormat, NonFiniteSample, NyquistExceeded,
                     PayloadSizeMismatch, ShapeMismatch, WindowTooShort)
from .signals import zscore_array

LOG_FLOOR = 1e-12
FEATURE_MAGIC = b"EEGF"
FEATURE_VERSION = 1


@dataclass(frozen=True)
class PsdSpec:
    """Welch estimator settings. segment_len=None means one second of samples."""

    segment_len: int | None = None
    overlap_fraction: float = 0.5
    max_freq_hz: float = 128.0

    def __post_init__(self) -> None:
        seg = self.segment_len
        if seg is not None and not _int_at_least(seg, 2):
            raise WindowTooShort(f"segment_len must be an integer >= 2, got {seg!r}")
        if not (0.0 <= self.overlap_fraction < 1.0):
            raise WindowTooShort(f"overlap_fraction must be in [0, 1), got {self.overlap_fraction}")
        if self.max_freq_hz <= 0:
            raise NyquistExceeded(f"max_freq_hz must be positive, got {self.max_freq_hz}")
        if seg is not None:
            self.hop(seg)

    def resolve_segment_len(self, fs_hz: float) -> int:
        if self.segment_len is not None:
            return self.segment_len
        seg = int(round(fs_hz))
        if seg < 2:
            raise WindowTooShort(
                f"one second at {fs_hz} Hz is {seg} samples, need a segment_len >= 2"
            )
        return seg

    def hop(self, seg: int) -> int:
        """Samples between the starts of consecutive segments; WindowTooShort below 1."""
        hop = seg - int(round(seg * self.overlap_fraction))
        if hop < 1:
            raise WindowTooShort(
                f"overlap_fraction {self.overlap_fraction} of a {seg}-sample segment "
                f"(segment_len {self.segment_len}) leaves a hop of {hop} samples, need >= 1"
            )
        return hop


@lru_cache(maxsize=16)
def welch_setup(fs_hz: float, spec: PsdSpec) -> tuple[int, int, np.ndarray, np.ndarray]:
    """(segment, hop, window, grid) of spec at fs_hz, built once per pair.

    The window is the density-scaled periodic Hann window and the grid the
    one-sided frequencies, with the bits of `scipy.signal.ShortTimeFFT(
    get_window("hann", seg), hop, fs_hz, mfft=seg, scale_to="psd")`'s `win`
    and `f`: built as `general_cosine` and `fac_psd` build them (the builtin
    sum included), without importing scipy.signal. A caller that times its
    calls can run it first, so that no timed call pays for it.
    """
    seg = spec.resolve_segment_len(fs_hz)
    hop = spec.hop(seg)
    fac = np.linspace(-np.pi, np.pi, seg + 1)
    win = np.zeros(seg + 1)
    for k, a in enumerate((0.5, 0.5)):
        win += a * np.cos(k * fac)
    win = win[:-1]
    period = 1 / fs_hz
    win = win * (1 / np.sqrt(sum(win.real**2 + win.imag**2) / period))
    grid = np.fft.rfftfreq(seg, period)
    win.flags.writeable = grid.flags.writeable = False
    return seg, hop, win, grid


def kept_bins(fs_hz: float, spec: PsdSpec) -> int:
    """How many bins (0 < f <= max_freq_hz) a feature matrix at fs_hz keeps; EmptyBand if none."""
    seg, _, _, grid = welch_setup(fs_hz, spec)
    n = int(np.searchsorted(grid, spec.max_freq_hz, side="right")) - 1
    if n < 1:
        raise EmptyBand(
            f"psd.max_freq_hz {spec.max_freq_hz} keeps no frequency bin: segment_len {seg} "
            f"at {fs_hz} Hz spaces the bins fs/seg = {fs_hz / seg} Hz apart"
        )
    return n


def _welch(x, fs_hz: float, spec: PsdSpec, band: bool) -> tuple[np.ndarray, np.ndarray]:
    """Welch densities along the last axis: of every bin, DC included, or of the
    kept_bins band only. Only the returned bins are squared, doubled and averaged."""
    from scipy import fft as spfft

    x = np.asarray(x, dtype=np.float64)
    seg, hop, win, grid = welch_setup(fs_hz, spec)
    if x.shape[-1] < seg:
        raise WindowTooShort(f"window of {x.shape[-1]} samples shorter than segment {seg}")
    n_bins = len(grid)
    lo, hi = (1, 1 + kept_bins(fs_hz, spec)) if band else (0, n_bins)
    segs = sliding_window_view(x, seg, axis=-1)[..., ::hop, :]
    segs = segs - segs.mean(axis=-1, keepdims=True)
    segs *= win
    spectra = spfft.rfft(segs, axis=-1)[..., lo:hi]
    power = np.square(spectra.real)  # contiguous (..., segment, freq)
    power += np.square(spectra.imag)
    # one-sided: every bin but DC and an even segment's Nyquist bin is doubled
    doubled_end = n_bins - 1 if seg % 2 == 0 else n_bins
    power[..., max(lo, 1) - lo:min(hi, doubled_end) - lo] *= 2
    freqs = grid[lo:hi].copy()
    if power.shape[-2] < 8:
        return freqs, power.mean(axis=-2)
    return freqs, np.ascontiguousarray(np.swapaxes(power, -1, -2)).mean(axis=-1)


def welch_psd(x, fs_hz: float, spec: PsdSpec = PsdSpec()) -> tuple[np.ndarray, np.ndarray]:
    """One-sided Welch density estimate along the last axis.

    Returns (freqs_hz, psd) with psd shaped like x except for its last axis.
    Densities satisfy Parseval up to window effects: sum(psd) * df
    approximates each series' variance.
    """
    return _welch(x, fs_hz, spec, False)


def psd_feature_values(
    data: np.ndarray, fs_hz: float, spec: PsdSpec = PsdSpec()
) -> tuple[np.ndarray, np.ndarray]:
    """Standardized log-power matrix for (channels, samples) data.

    DC is excluded; bins run over 0 < f <= max_freq_hz, and EmptyBand is
    raised when no bin does. The log matrix is standardized as a whole
    (population sigma); a degenerate all-equal matrix comes back as zeros.
    """
    data = np.atleast_2d(np.asarray(data, dtype=np.float64))
    if spec.max_freq_hz > fs_hz / 2.0:
        raise NyquistExceeded(
            f"max_freq_hz {spec.max_freq_hz} exceeds Nyquist {fs_hz / 2.0}"
        )
    freqs, psd = _welch(data, fs_hz, spec, True)
    logp = np.log(psd + LOG_FLOOR)
    return zscore_array(logp.reshape(1, -1)).reshape(logp.shape), freqs


# --- binary container: magic, version, dims, label id, row-major f32 LE ---


def write_feature_file(path, values: np.ndarray, label_id: int) -> None:
    values = np.asarray(values)
    if values.ndim != 2:
        raise ShapeMismatch(f"feature payload must be 2-D, got ndim={values.ndim}")
    n_channels, n_bins = values.shape
    header = FEATURE_MAGIC + struct.pack("<IIII", FEATURE_VERSION, n_channels, n_bins, label_id)
    write_artifact(path, header, np.ascontiguousarray(values, dtype="<f4"))


def read_feature_file(path, shape=None, shape_from="the manifest") -> tuple[np.ndarray, int]:
    """(values as float64, label id); a missing file, a directory, a bad header, size or a
    non-finite value, or dims other than shape_from's (n_channels, n_bins) shape, is a usage
    error naming it."""
    data = read_input(path)
    if data[:4] != FEATURE_MAGIC:
        raise InvalidFormat(f"{path}: bad magic {data[:4]!r}")
    if len(data) < 20:
        raise InvalidFormat(f"{path}: truncated header")
    version, n_channels, n_bins, label_id = struct.unpack_from("<IIII", data, 4)
    if version != FEATURE_VERSION:
        raise InvalidFormat(f"{path}: unsupported version {version}")
    if shape is not None and (n_channels, n_bins) != tuple(shape):
        raise PayloadSizeMismatch(f"{path}: header says {n_channels}x{n_bins}, {shape_from}'s "
                                  f"n_channels x n_bins say {shape[0]}x{shape[1]}")
    payload = f32_payload(memoryview(data)[20:], path, (n_channels, n_bins), "its header")
    bad = np.flatnonzero(~np.isfinite(payload))
    if bad.size:
        channel, bin_idx = divmod(int(bad[0]), n_bins)
        raise NonFiniteSample(f"{path}: channel {channel} bin {bin_idx} is {payload.flat[bad[0]]}")
    return payload.astype(np.float64), label_id
