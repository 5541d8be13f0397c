"""Welch PSD feature extraction and feature-file format tests."""

import struct

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import signal as sps

from affekt.errors import (
    InvalidFormat,
    NyquistExceeded,
    ShapeMismatch,
    UsageError,
    WindowTooShort,
)
from affekt.features import (
    FEATURE_MAGIC,
    FEATURE_VERSION,
    LOG_FLOOR,
    PsdSpec,
    psd_feature_values,
    read_feature_file,
    welch_psd,
    welch_setup,
    write_feature_file,
)
from conftest import LAYOUTS, laid_out
from oracles import total_power_fsum

FS = 512.0


def test_parseval_on_sinusoid():
    # unit sinusoid has variance 1/2
    n = 4096
    t = np.arange(n) / FS
    x = np.sin(2 * np.pi * 10.0 * t)
    freqs, psd = welch_psd(x, FS, PsdSpec())
    total = total_power_fsum(freqs, psd)
    assert total == pytest.approx(float(x.var()), rel=0.02)


def test_parseval_on_band_limited_noise():
    rng = np.random.default_rng(8)
    sos = sps.butter(4, 60.0, btype="lowpass", fs=FS, output="sos")
    x = sps.sosfiltfilt(sos, rng.standard_normal(8192))
    freqs, psd = welch_psd(x, FS, PsdSpec())
    assert total_power_fsum(freqs, psd) == pytest.approx(float(x.var()), rel=0.02)


def test_peak_bin_at_tone_frequency():
    n = 4096
    t = np.arange(n) / FS
    x = np.sin(2 * np.pi * 10.0 * t)
    freqs, psd = welch_psd(x, FS, PsdSpec())
    assert freqs[np.argmax(psd)] == pytest.approx(10.0)


def test_segment_len_defaults_to_one_second():
    spec = PsdSpec()
    assert spec.resolve_segment_len(512.0) == 512
    assert spec.resolve_segment_len(250.0) == 250


def test_one_second_of_fewer_than_two_samples_is_window_too_short():
    # below 1.5 Hz the implied one-second segment has 0 or 1 samples
    for fs in (1.0, 0.4):
        with pytest.raises(WindowTooShort, match="need a segment_len >= 2"):
            PsdSpec().resolve_segment_len(fs)
    assert PsdSpec().resolve_segment_len(1.5) == 2


def test_window_too_short():
    with pytest.raises(WindowTooShort):
        welch_psd(np.zeros(100), FS, PsdSpec(segment_len=512))
    # 128 x 100 holds 12800 samples in all, but each channel is still too short
    with pytest.raises(WindowTooShort):
        psd_feature_values(np.zeros((128, 100)), FS, PsdSpec(segment_len=512))


def test_hop_of_zero_samples_is_window_too_short():
    # the one-second segment is 512 samples, and 0.9995 of it rounds to all 512
    with pytest.raises(WindowTooShort, match=r"overlap_fraction 0\.9995 of a 512-sample segment"):
        welch_psd(np.zeros((2, 1500)), FS, PsdSpec(overlap_fraction=0.9995))


@pytest.mark.parametrize(
    "spec",
    [
        PsdSpec(),
        PsdSpec(segment_len=200, overlap_fraction=0.25, max_freq_hz=90.0),
        PsdSpec(max_freq_hz=256.0),  # keeps the Nyquist bin, which is not doubled
        PsdSpec(segment_len=101, max_freq_hz=256.0),  # odd: every kept bin is doubled
    ],
)
@pytest.mark.parametrize("n_channels", [1, 2, 3, 32, 128])
def test_feature_values_equal_per_channel_welch(n_channels, spec):
    rng = np.random.default_rng(n_channels)
    data = rng.standard_normal((n_channels, 1500))
    seg = spec.resolve_segment_len(FS)
    # the reversed view is the layout filter_array returns
    for name, x in (("contiguous", data), ("reversed", data[:, ::-1])):
        rows = []
        for ch in x:
            freqs, psd = sps.welch(
                ch,
                fs=FS,
                window="hann",
                nperseg=seg,
                noverlap=int(round(seg * spec.overlap_fraction)),
                detrend="constant",
                scaling="density",
            )
            keep = (freqs > 0.0) & (freqs <= spec.max_freq_hz)
            rows.append(psd[keep])
        logp = np.log(np.stack(rows) + LOG_FLOOR)
        values, bins = psd_feature_values(x, FS, spec)
        np.testing.assert_array_equal(bins, freqs[keep])
        assert np.array_equal(values, (logp - logp.mean()) / logp.std()), name


def test_band_without_a_bin_is_usage_error():
    # one-second segments space the bins 1 Hz apart, so 0.5 Hz keeps none
    with pytest.raises(
        UsageError, match=r"psd\.max_freq_hz 0\.5 .*segment_len 512 .*fs/seg = 1\.0 Hz"
    ):
        psd_feature_values(np.zeros((2, 1500)), FS, PsdSpec(max_freq_hz=0.5))
    _, bins = psd_feature_values(np.ones((2, 1500)), FS, PsdSpec(max_freq_hz=1.0))
    np.testing.assert_array_equal(bins, [1.0])


@pytest.mark.parametrize(
    "segment_len,overlap",
    [
        (512, 0.5),  # the default one-second segment: 4 segments in 1500 samples
        (100, 0.5),  # 29 segments, so the segment mean sums pairwise
        (101, 0.0),  # odd length: no unpaired Nyquist bin; no overlap, 14 segments
        (64, 0.25),  # 30 segments at a hop that is not half a segment
        (512, 0.7),  # 7 segments: the most that numpy sums in order on any layout
        (512, 0.75),  # 8 segments: the fewest that it sums pairwise
    ],
)
def test_welch_psd_equals_scipy_welch(segment_len, overlap):
    spec = PsdSpec(segment_len=segment_len, overlap_fraction=overlap)
    rng = np.random.default_rng(segment_len)
    wide = rng.standard_normal((4, 1900))
    inputs = {
        "1d": rng.standard_normal(1500),
        "2d": rng.standard_normal((6, 1500)),
        "3d": rng.standard_normal((2, 3, 1500)),
        "slice": wide[:, 250:1750],
        "reversed": wide[:, 1750:250:-1],  # the layout filter_array returns
    }
    for name, x in inputs.items():
        freqs, psd = sps.welch(
            x,
            fs=FS,
            window="hann",
            nperseg=segment_len,
            noverlap=int(round(segment_len * overlap)),
            detrend="constant",
            scaling="density",
            axis=-1,
        )
        got_freqs, got = welch_psd(x, FS, spec)
        assert np.array_equal(got_freqs, freqs), name
        assert got.shape == psd.shape, name
        assert np.array_equal(got, psd), name


@pytest.mark.parametrize(
    "seg,fs",
    [(512, 512.0), (256, 256.0), (101, 512.0), (500, 500.0), (2, 100.0), (1024, 512.0),
     # grids on which k * (fs / seg) differs from rfftfreq's k * (1 / (seg * (1 / fs)))
     (9, 250.0), (11, 333.3)],
)
def test_welch_setup_equals_short_time_fft(seg, fs):
    # the window and grid that scipy.signal.welch gets from its ShortTimeFFT, bit for bit
    for hop in (seg // 2, seg):
        spec = PsdSpec(segment_len=seg, overlap_fraction=1 - hop / seg)
        stft = sps.ShortTimeFFT(
            sps.get_window("hann", seg), hop, fs,
            fft_mode="onesided", mfft=seg, scale_to="psd", phase_shift=None,
        )
        got_seg, got_hop, win, grid = welch_setup(fs, spec)
        assert (got_seg, got_hop) == (seg, hop)
        assert np.array_equal(win, stft.win) and win.dtype == stft.win.dtype
        assert np.array_equal(grid, stft.f)
        assert not win.flags.writeable and not grid.flags.writeable


def _scipy_welch(x, fs, spec):
    seg = spec.resolve_segment_len(fs)
    return sps.welch(
        x, fs=fs, window="hann", nperseg=seg, noverlap=int(round(seg * spec.overlap_fraction)),
        detrend="constant", scaling="density", axis=-1,
    )


@st.composite
def _welch_cases(draw):
    """(x, fs, spec): a drawn segment, overlap, rate, length, channel count and layout."""
    fs = draw(st.sampled_from([100.0, 128.0, 250.0, 256.0, 333.3, 500.0, 512.0, 1000.0]))
    seg = draw(st.integers(2, 600))
    overlap = draw(st.sampled_from([0.0, 0.1, 0.25, 0.5, 0.6, 0.75, 0.9]))
    assume(seg - int(round(seg * overlap)) >= 1)
    spec = PsdSpec(segment_len=seg, overlap_fraction=overlap, max_freq_hz=draw(
        st.floats(fs / seg, fs / 2)))
    n = seg + draw(st.integers(0, 1500))
    rows = draw(st.sampled_from([(), (1,), (3,), (2, 2)]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return laid_out(rng, rows + (n,), draw(st.sampled_from(LAYOUTS))), fs, spec


@settings(max_examples=120, deadline=None)
@given(case=_welch_cases())
def test_welch_psd_equals_scipy_welch_property(case):
    x, fs, spec = case
    freqs, psd = _scipy_welch(x, fs, spec)
    got_freqs, got = welch_psd(x, fs, spec)
    assert np.array_equal(got_freqs, freqs)
    assert got.shape == psd.shape and np.array_equal(got, psd)


@settings(max_examples=120, deadline=None)
@given(case=_welch_cases())
def test_welch_psd_parseval_property(case):
    # Discrete Parseval per segment: the density summed over every one-sided bin,
    # times the bin spacing fs/seg, is the segment's Hann-weighted mean square
    # after its mean is removed, sum(w**2 * y**2) / sum(w**2). Welch averages it
    # over segments.
    x, fs, spec = case
    seg = spec.resolve_segment_len(fs)
    hop = seg - int(round(seg * spec.overlap_fraction))
    w2 = (0.5 - 0.5 * np.cos(2 * np.pi * np.arange(seg) / seg)) ** 2
    starts = range(0, x.shape[-1] - seg + 1, hop)
    y = np.stack([x[..., s:s + seg] - x[..., s:s + seg].mean(axis=-1, keepdims=True)
                  for s in starts])
    expected = (w2 * y**2).sum(axis=-1).mean(axis=0) / w2.sum()
    freqs, psd = welch_psd(x, fs, spec)
    assert freqs[1] - freqs[0] == pytest.approx(fs / seg, rel=1e-12)
    np.testing.assert_allclose(psd.sum(axis=-1) * (fs / seg), expected, rtol=1e-9)


@settings(max_examples=80, deadline=None)
@given(case=_welch_cases())
def test_feature_values_equal_kept_band_of_welch_psd_property(case):
    x, fs, spec = case
    data = x.reshape(-1, x.shape[-1])
    freqs, psd = welch_psd(data, fs, spec)
    keep = (freqs > 0.0) & (freqs <= spec.max_freq_hz)
    # row-major, as the per-channel reference stacks it: a whole-matrix sum runs in memory order
    logp = np.log(np.ascontiguousarray(psd[:, keep]) + LOG_FLOOR)
    values, bins = psd_feature_values(data, fs, spec)
    assert np.array_equal(bins, freqs[keep])
    sigma = logp.std()  # 0 for one channel's one bin, a matrix that comes back as zeros
    assert np.array_equal(values, (logp - logp.mean()) / sigma if sigma else np.zeros_like(logp))


def test_feature_matrix_shape_and_bins():
    rng = np.random.default_rng(12)
    data = rng.standard_normal((4, 1500))
    values, bins = psd_feature_values(data, FS, PsdSpec())
    assert values.shape == (4, 128)
    # 1 Hz resolution at one-second segments: bins at 1..128 Hz inclusive
    np.testing.assert_allclose(bins, np.arange(1.0, 129.0))
    assert 0.0 not in bins


def test_feature_matrix_standardized():
    rng = np.random.default_rng(13)
    data = rng.standard_normal((8, 1500))
    values, _ = psd_feature_values(data, FS, PsdSpec())
    assert abs(float(values.mean())) < 1e-12
    assert float(values.std()) == pytest.approx(1.0, abs=1e-12)


def test_feature_values_finite_on_silent_channel():
    data = np.zeros((2, 1500))
    data[1] = np.random.default_rng(0).standard_normal(1500)
    values, _ = psd_feature_values(data, FS, PsdSpec())
    assert np.all(np.isfinite(values))


def test_nyquist_guard():
    with pytest.raises(NyquistExceeded):
        psd_feature_values(np.zeros((1, 1500)), 128.0, PsdSpec(max_freq_hz=128.0))


def test_feature_file_roundtrip(tmp_path):
    rng = np.random.default_rng(14)
    values = rng.standard_normal((4, 128)).astype(np.float32).astype(np.float64)
    path = tmp_path / "w.eegf"
    write_feature_file(path, values, label_id=3)
    got, label = read_feature_file(path)
    assert label == 3
    np.testing.assert_array_equal(got, values)
    assert got.dtype == np.float64


def test_feature_file_header_layout(tmp_path):
    values = np.zeros((2, 5))
    path = tmp_path / "w.eegf"
    write_feature_file(path, values, label_id=7)
    raw = path.read_bytes()
    assert raw[:4] == FEATURE_MAGIC
    version, channels, bins, label = struct.unpack_from("<IIII", raw, 4)
    assert (version, channels, bins, label) == (FEATURE_VERSION, 2, 5, 7)
    assert len(raw) == 4 + 16 + 2 * 5 * 4


def test_feature_file_bad_magic(tmp_path):
    path = tmp_path / "w.eegf"
    write_feature_file(path, np.zeros((1, 4)), label_id=0)
    raw = bytearray(path.read_bytes())
    raw[:4] = b"XXXX"
    path.write_bytes(bytes(raw))
    with pytest.raises(InvalidFormat):
        read_feature_file(path)


def test_feature_file_truncated_payload(tmp_path):
    path = tmp_path / "w.eegf"
    write_feature_file(path, np.zeros((2, 8)), label_id=0)
    raw = path.read_bytes()
    path.write_bytes(raw[:-6])
    with pytest.raises((InvalidFormat, ShapeMismatch)):
        read_feature_file(path)
