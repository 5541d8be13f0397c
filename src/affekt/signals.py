"""Powerline filtering and per-channel standardization.

The cleanup chain for every recording is: zero-phase Butterworth band-stop
around the mains frequency, then a per-channel standard score. Filters are
designed with the bilinear transform (frequency pre-warped) and realized as
cascaded second-order sections, so the digital magnitude matches the analog
prototype 1/sqrt(1 + w^(2n)) at pre-warped frequencies.

Zero-phase application does what `scipy.signal.sosfiltfilt` does, in the
same order and so to the same bits, but without its per-call set-up: a
FilterRealization computes its edge padding and its steady-state section
state (`sosfilt_zi`) once, when it is designed, and `filter_array` then only
extends, filters forward and backward, and trims. Both passes call the
private in-place kernel `scipy.signal._sosfilt._sosfilt` that the public
`sosfilt` wraps in argument checks and copies, which the stream paid on
every short window it filters; the `sosfiltfilt` bit-identity tests fail if
a scipy release moves or changes it. scipy.signal is imported by the
functions that use it, so a stage that filters nothing does not load it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import EdgeOutOfRange, InvalidOrder, RecordingTooShort, ShapeMismatch

SIGMA_FLOOR = 1e-12


@dataclass
class Recording:
    """Multichannel signal block, channel-major float64."""

    subject_id: str
    sample_rate_hz: float
    channel_names: list[str]
    data: np.ndarray

    def __post_init__(self) -> None:
        self.data = np.asarray(self.data, dtype=np.float64)
        if self.sample_rate_hz <= 0:
            raise ShapeMismatch("sample_rate_hz must be positive")
        if self.data.ndim != 2:
            raise ShapeMismatch(f"data must be 2-D (channels, samples), got ndim={self.data.ndim}")
        if len(self.channel_names) != self.data.shape[0]:
            raise ShapeMismatch(
                f"{len(self.channel_names)} channel names for {self.data.shape[0]} data rows"
            )

    @property
    def n_channels(self) -> int:
        return self.data.shape[0]

    @property
    def n_samples(self) -> int:
        return self.data.shape[1]


class FilterKind(str, Enum):
    LOWPASS = "lowpass"
    HIGHPASS = "highpass"
    BANDPASS = "bandpass"
    BANDSTOP = "bandstop"


@dataclass(frozen=True)
class FilterSpec:
    """Design request for a Butterworth filter."""

    kind: FilterKind
    order_n: int
    edges_hz: tuple[float, ...]
    fs_hz: float

    def __post_init__(self) -> None:
        if not isinstance(self.order_n, int) or self.order_n < 1:
            raise InvalidOrder(f"order_n must be a positive integer, got {self.order_n!r}")
        kind = FilterKind(self.kind)
        object.__setattr__(self, "kind", kind)
        edges = tuple(float(e) for e in self.edges_hz)
        object.__setattr__(self, "edges_hz", edges)
        want = 1 if kind in (FilterKind.LOWPASS, FilterKind.HIGHPASS) else 2
        if len(edges) != want:
            raise EdgeOutOfRange(f"{kind.value} takes {want} edges_hz, got {len(edges)}")
        nyq = self.fs_hz / 2.0
        for e in edges:
            if not (0.0 < e < nyq):
                raise EdgeOutOfRange(f"edges_hz {e} outside (0, {nyq}) for fs={self.fs_hz}")
        if want == 2 and not edges[0] < edges[1]:
            raise EdgeOutOfRange(f"edges_hz must increase, got {edges}")


@dataclass(frozen=True)
class FilterRealization:
    """Cascaded biquads produced by design_filter.

    padlen and zi are computed once from the sections. padlen is the length
    of sosfiltfilt's odd extension, 3 * ntaps, where ntaps is
    2 * n_sections + 1 less the smaller count of zero b2 and zero a2
    coefficients (one fewer for the first-order section of an odd-order
    design). zi holds each section's steady-state delays for a unit step.
    Application is stateless: every call runs its own forward-backward pass,
    so realizations are safe to share across channels and windows.
    """

    spec: FilterSpec
    sections: np.ndarray = field(repr=False)
    padlen: int = field(init=False)
    zi: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        from scipy import signal as sps

        sections = np.ascontiguousarray(self.sections, dtype=np.float64)  # _sosfilt reads C order
        if sections.ndim != 2 or sections.shape[1] != 6:
            raise ShapeMismatch("sections must be (n_sections, 6)")
        ntaps = 2 * len(sections) + 1
        ntaps -= min(int((sections[:, 2] == 0).sum()), int((sections[:, 5] == 0).sum()))
        object.__setattr__(self, "sections", sections)
        object.__setattr__(self, "padlen", 3 * ntaps)
        object.__setattr__(self, "zi", sps.sosfilt_zi(sections))

    def poles(self) -> np.ndarray:
        roots = [np.roots(row[3:]) for row in self.sections]
        return np.concatenate([r for r in roots if r.size]) if roots else np.empty(0)

    def is_stable(self) -> bool:
        p = self.poles()
        return bool(p.size == 0 or np.all(np.abs(p) < 1.0))


def design_filter(spec: FilterSpec) -> FilterRealization:
    """Design a digital Butterworth filter as second-order sections."""
    from scipy import signal as sps

    wn = spec.edges_hz[0] if len(spec.edges_hz) == 1 else list(spec.edges_hz)
    sections = sps.butter(
        spec.order_n, wn, btype=spec.kind.value, fs=spec.fs_hz, output="sos"
    )
    real = FilterRealization(spec=spec, sections=sections)
    # Pole check is cheap; a blow-up here means the design request was degenerate.
    if not real.is_stable():
        raise EdgeOutOfRange(f"design for {spec} produced an unstable realization")
    return real


def powerline_notch(
    fs_hz: float,
    center_hz: float = 50.0,
    half_width_hz: float = 2.0,
    order_n: int = 4,
) -> FilterSpec:
    """Default mains-rejection band-stop: 48-52 Hz at order 4 for 50 Hz mains."""
    return FilterSpec(
        kind=FilterKind.BANDSTOP,
        order_n=order_n,
        edges_hz=(center_hz - half_width_hz, center_hz + half_width_hz),
        fs_hz=fs_hz,
    )


def filter_array(real: FilterRealization, data: np.ndarray) -> np.ndarray:
    """Zero-phase (forward-backward) filtering along the last axis.

    Bit-identical to `sps.sosfiltfilt(real.sections, data, axis=-1)` of data
    as float64 (scipy would extend float32 data in float32): odd
    extension by padlen at both ends, a forward pass started from zi times
    the first sample, a backward pass started from zi times the last forward
    output, then the extension trimmed off. The forward pass runs in place on
    a new extension buffer, the backward pass on one reversed copy of it, and
    the result is a view of that copy in sosfiltfilt's reversed layout, whose
    memory order zscore_array's sums follow. data is never written.
    """
    from scipy.signal._sosfilt import _sosfilt

    x = np.asarray(data, dtype=np.float64)
    n, edge = x.shape[-1], real.padlen
    if n <= edge:
        raise RecordingTooShort(
            f"filtering needs more than padlen={edge} samples, got {n}"
        )
    x2 = x.reshape(-1, n)
    ext = np.empty((len(x2), n + 2 * edge))
    np.subtract(2 * x2[:, :1], x2[:, edge:0:-1], out=ext[:, :edge])
    ext[:, edge:edge + n] = x2
    np.subtract(2 * x2[:, -1:], x2[:, -2:-edge - 2:-1], out=ext[:, edge + n:])
    _sosfilt(real.sections, ext, real.zi * ext[:, :1, None])  # in place
    rev = ext[:, ::-1].copy()
    _sosfilt(real.sections, rev, real.zi * rev[:, :1, None])
    return rev[:, ::-1][:, edge:-edge].reshape(x.shape)


def zscore_array(data: np.ndarray) -> np.ndarray:
    """Standard score per row with population sigma.

    Rows with sigma below SIGMA_FLOOR come back as all zeros instead of
    dividing by ~0. The row mean is taken once: sigma comes from the centred
    rows by numpy std's own steps (sum of squares, divided by n, square
    root), so it has std's bits.
    """
    data = np.asarray(data, dtype=np.float64)
    out = data - data.mean(axis=-1, keepdims=True)
    sigma = np.sqrt(np.square(out).sum(axis=-1, keepdims=True) / data.shape[-1])
    flat = sigma < SIGMA_FLOOR
    sigma[flat] = 1.0
    out /= sigma
    if flat.any():  # the masked copy is a pass over all of out
        np.copyto(out, 0.0, where=flat)
    return out
