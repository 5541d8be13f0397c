"""Filter design, zero-phase application, and normalization tests."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import signal as sps

from affekt.errors import EdgeOutOfRange, InvalidOrder, RecordingTooShort
from affekt.signals import (
    SIGMA_FLOOR,
    FilterKind,
    FilterRealization,
    FilterSpec,
    design_filter,
    filter_array,
    powerline_notch,
    zscore_array,
)
from conftest import LAYOUTS, laid_out
from oracles import (
    butterworth_gain,
    prewarped_prototype_w,
    rms_fsum,
    sos_response,
)

FS = 512.0


def projected_amplitude(x: np.ndarray, f_hz: float, fs_hz: float) -> float:
    # exact for integer cycle counts; measures only the f_hz component
    t = np.arange(x.size) / fs_hz
    return 2.0 * abs(np.mean(x * np.exp(-2j * np.pi * f_hz * t)))


def test_analog_gain_matches_closed_form():
    # The reference the filter tests compare against: order 2 at w=2 is 1/sqrt(1+16).
    assert butterworth_gain(2, 2.0) == pytest.approx(1.0 / math.sqrt(17.0), abs=1e-15)
    assert butterworth_gain(4, 1.0) == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-15)
    for n in (1, 2, 4, 8):
        gains = [butterworth_gain(n, w) for w in (0.0, 0.3, 1.0, 2.5)]
        assert gains[0] == 1.0
        assert gains[2] == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-15)
        assert gains == sorted(gains, reverse=True)


@pytest.mark.parametrize("order_n", [2, 4, 8])
def test_lowpass_magnitude_matches_prewarped_prototype(order_n):
    spec = FilterSpec(FilterKind.LOWPASS, order_n, (40.0,), FS)
    realization = design_filter(spec)
    freqs = np.linspace(1.0, 200.0, 120)
    for f in freqs:
        w = prewarped_prototype_w("lowpass", (40.0,), f, FS)
        expected = butterworth_gain(order_n, w)
        got = abs(sos_response(realization.sections, f, FS))
        assert got == pytest.approx(expected, abs=1e-9)


@pytest.mark.parametrize(
    "kind,edges",
    [
        (FilterKind.HIGHPASS, (30.0,)),
        (FilterKind.BANDPASS, (8.0, 13.0)),
        (FilterKind.BANDSTOP, (48.0, 52.0)),
    ],
)
def test_other_kinds_match_prewarped_prototype(kind, edges):
    spec = FilterSpec(kind, 4, edges, FS)
    realization = design_filter(spec)
    for f in np.linspace(2.0, 250.0, 90):
        w = prewarped_prototype_w(kind.value, edges, f, FS)
        expected = butterworth_gain(4, w)
        got = abs(sos_response(realization.sections, f, FS))
        assert got == pytest.approx(expected, abs=1e-9)


def test_cutoff_gain_is_half_power():
    for order_n in (2, 4, 8):
        spec = FilterSpec(FilterKind.LOWPASS, order_n, (40.0,), FS)
        realization = design_filter(spec)
        got = abs(sos_response(realization.sections, 40.0, FS))
        assert got == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-9)


def test_section_count_is_ceil_poles_over_two():
    # single-edge kinds carry n poles, band kinds 2n
    for order_n, expected in ((1, 1), (2, 1), (3, 2), (4, 2), (8, 4)):
        spec = FilterSpec(FilterKind.LOWPASS, order_n, (40.0,), FS)
        assert design_filter(spec).sections.shape[0] == expected
    for order_n, expected in ((1, 1), (2, 2), (4, 4)):
        spec = FilterSpec(FilterKind.BANDSTOP, order_n, (48.0, 52.0), FS)
        assert design_filter(spec).sections.shape[0] == expected


def test_designed_filters_are_stable():
    for kind, edges in (
        (FilterKind.LOWPASS, (45.0,)),
        (FilterKind.HIGHPASS, (1.0,)),
        (FilterKind.BANDPASS, (4.0, 40.0)),
        (FilterKind.BANDSTOP, (48.0, 52.0)),
    ):
        realization = design_filter(FilterSpec(kind, 4, edges, FS))
        assert realization.is_stable()
        assert np.all(np.abs(realization.poles()) < 1.0)


def test_spec_validation_errors():
    with pytest.raises(InvalidOrder):
        FilterSpec(FilterKind.LOWPASS, 0, (40.0,), FS)
    with pytest.raises(EdgeOutOfRange):
        FilterSpec(FilterKind.LOWPASS, 4, (256.0,), FS)  # at nyquist
    with pytest.raises(EdgeOutOfRange):
        FilterSpec(FilterKind.LOWPASS, 4, (-1.0,), FS)
    with pytest.raises(EdgeOutOfRange):
        FilterSpec(FilterKind.BANDPASS, 4, (13.0, 8.0), FS)  # reversed
    with pytest.raises(EdgeOutOfRange):
        FilterSpec(FilterKind.BANDPASS, 4, (8.0,), FS)  # needs two edges
    with pytest.raises(EdgeOutOfRange):
        FilterSpec(FilterKind.LOWPASS, 4, (40.0, 45.0), FS)  # needs one edge


def test_notch_removes_tone_component_keeps_neighbors():
    n = 2048
    t = np.arange(n) / FS
    tone50 = np.sin(2 * np.pi * 50.0 * t)
    tone10 = np.sin(2 * np.pi * 10.0 * t)
    realization = design_filter(powerline_notch(FS))
    y = filter_array(realization, (tone50 + tone10)[None, :])[0]
    att50 = projected_amplitude(y, 50.0, FS) / projected_amplitude(tone50 + tone10, 50.0, FS)
    loss10 = projected_amplitude(y, 10.0, FS) / projected_amplitude(tone50 + tone10, 10.0, FS)
    assert -20.0 * math.log10(att50) >= 30.0
    assert abs(-20.0 * math.log10(loss10)) < 0.5


def test_notch_output_rms_bound_on_pure_tone():
    # long enough that zero-phase edge transients do not dominate the RMS
    n = 4096
    t = np.arange(n) / FS
    tone = np.sin(2 * np.pi * 50.0 * t)
    y = filter_array(design_filter(powerline_notch(FS)), tone[None, :])[0]
    assert rms_fsum(y) <= 0.05 * rms_fsum(tone)


def test_zero_phase_no_lag_on_passband_tone():
    n = 4096
    t = np.arange(n) / FS
    tone = np.sin(2 * np.pi * 10.0 * t)
    y = filter_array(design_filter(powerline_notch(FS)), tone[None, :])[0]
    inner = y[256:-256]
    ref = tone[256:-256]
    # phase shift would break pointwise agreement
    assert np.abs(inner - ref).max() < 1e-3


def test_filter_array_preserves_shape_and_dtype():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((4, 1500))
    y = filter_array(design_filter(powerline_notch(FS)), x)
    assert y.shape == x.shape
    assert y.dtype == np.float64


def test_zscore_array_population_moments():
    rng = np.random.default_rng(11)
    x = 3.0 + 2.5 * rng.standard_normal((3, 4000))
    z = zscore_array(x)
    assert np.abs(z.mean(axis=1)).max() < 1e-12
    assert np.abs(z.std(axis=1) - 1.0).max() < 1e-12


def test_zscore_constant_channel_maps_to_zeros():
    x = np.vstack([np.full(100, 7.0), np.arange(100.0)])
    z = zscore_array(x)
    assert np.all(z[0] == 0.0)
    assert np.abs(z[1].std() - 1.0) < 1e-12



def _shaped_inputs(rng, n):
    """1-D, 2-D, 3-D and a non-contiguous column slice, as the stream cuts windows."""
    wide = rng.standard_normal((4, n + 300))
    return {
        "1d": rng.standard_normal(n),
        "2d": rng.standard_normal((5, n)),
        "3d": rng.standard_normal((2, 3, n)),
        "slice": wide[:, 123:123 + n],
    }


@pytest.mark.parametrize(
    "kind,order_n,edges",
    [
        (FilterKind.BANDSTOP, 4, (48.0, 52.0)),
        (FilterKind.BANDPASS, 2, (8.0, 13.0)),
        (FilterKind.HIGHPASS, 4, (1.0,)),
        (FilterKind.LOWPASS, 3, (40.0,)),
        (FilterKind.LOWPASS, 5, (100.0,)),
    ],
)
def test_filter_array_equals_sosfiltfilt(kind, order_n, edges):
    realization = design_filter(FilterSpec(kind, order_n, edges, FS))
    rng = np.random.default_rng(order_n)
    for name, x in _shaped_inputs(rng, 750).items():
        expected = sps.sosfiltfilt(realization.sections, x, axis=-1)
        assert np.array_equal(filter_array(realization, x), expected), name
    # the shortest input sosfiltfilt accepts
    x = rng.standard_normal((2, realization.padlen + 1))
    assert np.array_equal(
        filter_array(realization, x), sps.sosfiltfilt(realization.sections, x, axis=-1)
    )


@settings(max_examples=100, deadline=None)
@given(
    kind=st.sampled_from(list(FilterKind)),
    order_n=st.integers(1, 8),
    fs=st.sampled_from([128.0, 250.0, 256.0, 333.3, 512.0, 1000.0]),
    edges=st.lists(st.floats(0.02, 0.95), min_size=2, max_size=2, unique=True).map(sorted),
    rows=st.sampled_from([(), (1,), (3,), (2, 2)]),
    extra=st.integers(1, 400),
    layout=st.sampled_from(LAYOUTS),
    dtype=st.sampled_from([np.float64, np.float32]),
    seed=st.integers(0, 2**32 - 1),
)
def test_filter_array_equals_sosfiltfilt_property(
    kind, order_n, fs, edges, rows, extra, layout, dtype, seed
):
    realization = _drawn_realization(kind, order_n, fs, edges)
    x = laid_out(np.random.default_rng(seed), rows + (realization.padlen + extra,), layout)
    x = x.astype(dtype, copy=False)
    before = x.copy()
    # float32 input is filtered as its float64 value
    expected = sps.sosfiltfilt(realization.sections, x.astype(np.float64), axis=-1)
    got = filter_array(realization, x)
    assert got.dtype == np.float64 and got.shape == x.shape
    assert np.array_equal(got, expected)
    # both passes run in place: on buffers of filter_array's own, never the caller's
    assert np.array_equal(x, before)
    assert not np.shares_memory(got, x)


def _drawn_realization(kind, order_n, fs, edges):
    """The filter of a drawn kind and order whose edges are drawn fractions of Nyquist."""
    nyquist = fs / 2
    band = (edges[0] * nyquist, edges[1] * nyquist)
    if kind in (FilterKind.LOWPASS, FilterKind.HIGHPASS):
        band = band[:1]
    try:
        return design_filter(FilterSpec(kind, order_n, band, fs))
    except EdgeOutOfRange:
        assume(False)


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(list(FilterKind)),
    order_n=st.integers(1, 8),
    fs=st.sampled_from([128.0, 256.0, 512.0]),
    edges=st.lists(st.floats(0.02, 0.95), min_size=2, max_size=2, unique=True).map(sorted),
    rows=st.sampled_from([(), (3,), (2, 2)]),
    extra=st.integers(1, 400),
    a=st.floats(-10.0, 10.0),
    b=st.floats(-10.0, 10.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_filter_array_is_linear_property(kind, order_n, fs, edges, rows, extra, a, b, seed):
    realization = _drawn_realization(kind, order_n, fs, edges)
    rng = np.random.default_rng(seed)
    x, y = (laid_out(rng, rows + (realization.padlen + extra,), layout)
            for layout in ("contiguous", "reversed"))
    fx, fy = filter_array(realization, x), filter_array(realization, y)
    got = filter_array(realization, a * x + b * y)
    scale = abs(a) * np.abs(fx).max() + abs(b) * np.abs(fy).max() + 1.0
    # rounding, not a fault: an order-8 band-stop over 0.02-0.95 of Nyquist,
    # with poles near both ends of the unit circle, reaches about 1e-9
    assert np.abs(got - (a * fx + b * fy)).max() <= 1e-6 * scale


def test_odd_order_padlen_discounts_zero_coefficients():
    # order 3 ends in a first-order section, b2 = a2 = 0: one tap fewer
    odd = design_filter(FilterSpec(FilterKind.LOWPASS, 3, (40.0,), FS))
    assert odd.sections.shape[0] == 2
    assert odd.padlen == 3 * (2 * 2 + 1 - 1)
    assert design_filter(powerline_notch(FS)).padlen == 3 * (2 * 4 + 1)


def test_realization_of_fortran_ordered_sections_filters_alike():
    # the in-place kernel reads the sections in C order only
    realization = design_filter(powerline_notch(FS))
    fortran = FilterRealization(realization.spec, np.asfortranarray(realization.sections))
    x = np.random.default_rng(8).standard_normal((3, 500))
    assert np.array_equal(filter_array(fortran, x), filter_array(realization, x))


def test_filter_array_rejects_input_not_longer_than_padlen():
    realization = design_filter(powerline_notch(FS))
    assert realization.padlen == 27
    with pytest.raises(RecordingTooShort, match=r"padlen=27.* got 27"):
        filter_array(realization, np.zeros((3, 27)))


@settings(max_examples=80, deadline=None)
@given(
    rows=st.sampled_from([(1,), (4,), (2, 3)]),
    n=st.integers(2, 600),
    layout=st.sampled_from(LAYOUTS),
    flat_row=st.booleans(),
    s=st.floats(1e-3, 1e3),
    c=st.floats(-100.0, 100.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_zscore_array_ignores_positive_affine_maps_property(rows, n, layout, flat_row, s, c,
                                                            seed):
    x = laid_out(np.random.default_rng(seed), rows + (n,), layout)
    if flat_row:
        x = x.copy()
        x[..., 0, :] = 0.37  # a flat row stays all zeros
    assert np.allclose(zscore_array(s * x + c), zscore_array(x), rtol=0.0, atol=1e-8)


def test_zscore_equals_two_where_formula_with_flat_rows():
    rng = np.random.default_rng(21)
    x = 3.0 + 2.5 * rng.standard_normal((6, 500))
    x[1] = 7.0
    x[4] = 1e-3 + 1e-15 * rng.standard_normal(500)  # sigma below the floor, not exactly 0
    # x[:, ::-1] is a reversed view, the layout filter_array returns
    for data in (x, x[None, :, :], x[2], x[1], x[:, ::-1]):
        mu = data.mean(axis=-1, keepdims=True)
        sigma = data.std(axis=-1, keepdims=True)
        flat = sigma < SIGMA_FLOOR
        expected = np.where(flat, 0.0, (data - mu) / np.where(flat, 1.0, sigma))
        assert np.array_equal(zscore_array(data), expected)
    assert np.all(zscore_array(x)[[1, 4]] == 0.0)
