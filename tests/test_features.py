"""Welch PSD feature extraction and feature-file format tests."""

import struct

import numpy as np
import pytest
from scipy import signal as sps

from affekt.errors import InvalidFormat, NyquistExceeded, ShapeMismatch, WindowTooShort
from affekt.features import (
    FEATURE_MAGIC,
    FEATURE_VERSION,
    LOG_FLOOR,
    PsdSpec,
    psd_feature_values,
    read_feature_file,
    welch_psd,
    write_feature_file,
)
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
    "spec", [PsdSpec(), PsdSpec(segment_len=200, overlap_fraction=0.25, max_freq_hz=90.0)]
)
@pytest.mark.parametrize("n_channels", [1, 2, 3, 32, 128])
def test_feature_values_equal_per_channel_welch(n_channels, spec):
    rng = np.random.default_rng(n_channels)
    data = rng.standard_normal((n_channels, 1500))
    seg = spec.resolve_segment_len(FS)
    rows = []
    for ch in data:
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
    values, bins = psd_feature_values(data, FS, spec)
    np.testing.assert_array_equal(bins, freqs[keep])
    assert np.array_equal(values, (logp - logp.mean()) / logp.std())


@pytest.mark.parametrize(
    "segment_len,overlap",
    [
        (512, 0.5),  # the default one-second segment: 4 segments in 1500 samples
        (100, 0.5),  # 29 segments, so the segment mean sums pairwise
        (101, 0.0),  # odd length: no unpaired Nyquist bin; no overlap, 14 segments
        (64, 0.25),  # 30 segments at a hop that is not half a segment
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
