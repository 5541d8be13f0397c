"""Spectral feature matrices.

Each analysis window becomes a (channels x frequency-bins) image: Welch power
spectral density per channel (Hann window, 50% overlap, mean-removed
segments, density scaling so the spectrum integrates to the signal variance),
bins kept for 0 < f <= max_freq_hz, log-compressed, then standardized over
the whole matrix. With a 1-second segment at fs=512 and the default 128 Hz
threshold the canonical 128-channel montage yields a 128x128 matrix.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np
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

    def resolve_segment_len(self, fs_hz: float) -> int:
        return self.segment_len if self.segment_len is not None else int(round(fs_hz))


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
    return sps.welch(
        x,
        fs=fs_hz,
        window="hann",
        nperseg=seg,
        noverlap=int(round(seg * spec.overlap_fraction)),
        detrend="constant",
        scaling="density",
        axis=-1,
    )


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
    # welch returns a strided view, and mean/std sum a strided array in a
    # different order than a contiguous one; the copy keeps the matrices
    # bit-identical to a per-channel welch loop.
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
