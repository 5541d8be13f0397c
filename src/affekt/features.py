"""Spectral feature matrices.

Each analysis window becomes a (channels x frequency-bins) image: Welch power
spectral density per channel (Hann window, 50% overlap, mean-removed
segments, density scaling so the spectrum integrates to the signal variance),
bins kept for 0 < f <= max_freq_hz, log-compressed, then standardized over
the whole matrix. With a 1-second segment at fs=512 and the default 128 Hz
threshold the canonical 128-channel montage yields a 128x128 matrix.

`welch_psd` gives the same bits as `scipy.signal.welch` with these settings
but skips its per-call set-up. The scaled window and the frequency grid come
from a `ShortTimeFFT` built once per (fs, segment, hop), the way
`scipy.signal.csd` builds it. Segments are cut as strided views, mean-removed
and windowed in one pass, and transformed by one batched `rfft`. The
periodogram is laid out (..., freq, segment) and made contiguous before the
segment mean, as scipy's is: numpy sums 8 or more values pairwise along a
contiguous axis but in order along a strided one, so any other layout would
change the last bits once a window has 8 or more segments.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy import fft as spfft
from scipy import signal as sps

from .errors import InvalidFormat, NyquistExceeded, ShapeMismatch, WindowTooShort

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
        if seg is not None and (isinstance(seg, bool) or not isinstance(seg, int) or seg < 2):
            raise WindowTooShort(f"segment_len must be an integer >= 2, got {seg!r}")
        if not (0.0 <= self.overlap_fraction < 1.0):
            raise WindowTooShort(f"overlap_fraction must be in [0, 1), got {self.overlap_fraction}")
        if self.max_freq_hz <= 0:
            raise NyquistExceeded(f"max_freq_hz must be positive, got {self.max_freq_hz}")
        if seg is not None:
            self.hop(seg)

    def resolve_segment_len(self, fs_hz: float) -> int:
        return self.segment_len if self.segment_len is not None else int(round(fs_hz))

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
def _stft(fs_hz: float, seg: int, hop: int) -> sps.ShortTimeFFT:
    """Density-scaled Hann STFT of one Welch configuration, built as sps.csd builds it."""
    return sps.ShortTimeFFT(
        sps.get_window("hann", seg), hop, fs_hz,
        fft_mode="onesided", mfft=seg, scale_to="psd", phase_shift=None,
    )


def welch_psd(x, fs_hz: float, spec: PsdSpec = PsdSpec()) -> tuple[np.ndarray, np.ndarray]:
    """One-sided Welch density estimate along the last axis.

    Returns (freqs_hz, psd) with psd shaped like x except for its last axis.
    Densities satisfy Parseval up to window effects: sum(psd) * df
    approximates each series' variance.
    """
    x = np.asarray(x, dtype=np.float64)
    seg = spec.resolve_segment_len(fs_hz)
    if x.shape[-1] < seg:
        raise WindowTooShort(f"window of {x.shape[-1]} samples shorter than segment {seg}")
    stft = _stft(float(fs_hz), seg, spec.hop(seg))
    segs = sliding_window_view(x, seg, axis=-1)[..., ::stft.hop, :]
    segs = segs - segs.mean(axis=-1, keepdims=True)
    segs *= stft.win
    spectra = np.swapaxes(spfft.rfft(segs, axis=-1), -1, -2)
    power = np.square(spectra.real, order="C")  # contiguous (..., freq, segment)
    power += np.square(spectra.imag)
    power[..., 1:-1 if seg % 2 == 0 else None, :] *= 2
    return stft.f.copy(), power.mean(axis=-1)


def psd_feature_values(
    data: np.ndarray, fs_hz: float, spec: PsdSpec = PsdSpec()
) -> tuple[np.ndarray, np.ndarray]:
    """Standardized log-power matrix for (channels, samples) data.

    DC is excluded; bins run over 0 < f <= max_freq_hz. The log matrix is
    standardized as a whole (population sigma); a degenerate all-equal matrix
    comes back as zeros.
    """
    data = np.atleast_2d(np.asarray(data, dtype=np.float64))
    if spec.max_freq_hz > fs_hz / 2.0:
        raise NyquistExceeded(
            f"max_freq_hz {spec.max_freq_hz} exceeds Nyquist {fs_hz / 2.0}"
        )
    freqs, psd = welch_psd(data, fs_hz, spec)
    keep = (freqs > 0.0) & (freqs <= spec.max_freq_hz)
    # Boolean indexing along axis 1 returns a column-major copy, and mean/std
    # sum it in a different order than a row-major one; the copy keeps the
    # matrices bit-identical to a per-channel welch loop.
    logp = np.log(np.ascontiguousarray(psd[:, keep]) + LOG_FLOOR)
    mu = logp.mean()
    sigma = logp.std()
    if sigma < 1e-12:
        return np.zeros_like(logp), freqs[keep]
    return (logp - mu) / sigma, freqs[keep]


# --- binary container: magic, version, dims, label id, row-major f32 LE ---


def write_feature_file(path, values: np.ndarray, label_id: int) -> None:
    values = np.asarray(values)
    if values.ndim != 2:
        raise ShapeMismatch(f"feature payload must be 2-D, got ndim={values.ndim}")
    n_channels, n_bins = values.shape
    with open(path, "wb") as fh:
        fh.write(FEATURE_MAGIC)
        fh.write(struct.pack("<IIII", FEATURE_VERSION, n_channels, n_bins, label_id))
        fh.write(np.ascontiguousarray(values, dtype="<f4").tobytes())


def read_feature_file(path) -> tuple[np.ndarray, int]:
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != FEATURE_MAGIC:
            raise InvalidFormat(f"{path}: bad magic {magic!r}")
        header = fh.read(16)
        if len(header) != 16:
            raise InvalidFormat(f"{path}: truncated header")
        version, n_channels, n_bins, label_id = struct.unpack("<IIII", header)
        if version != FEATURE_VERSION:
            raise InvalidFormat(f"{path}: unsupported version {version}")
        raw = fh.read()
    if len(raw) % 4:
        raise InvalidFormat(f"{path}: payload truncated mid-float")
    payload = np.frombuffer(raw, dtype="<f4")
    if payload.size != n_channels * n_bins:
        raise ShapeMismatch(
            f"{path}: payload has {payload.size} floats, header says {n_channels}x{n_bins}"
        )
    return payload.reshape(n_channels, n_bins).astype(np.float64), label_id
