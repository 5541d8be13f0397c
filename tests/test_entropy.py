"""Sample entropy, multiscale profiles, and noise injection tests."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affekt.entropy import (
    ChannelShift,
    EntropyParams,
    NoiseSpec,
    add_gaussian_noise,
    coarse_grain,
    complexity_shift_report,
    multiscale_entropy,
    sample_entropy_abs,
    template_match_counts,
)
from affekt.errors import ScaleTooLarge, SeriesTooShort
from oracles import (coarse_grain_loops, noise_by_whole_mask, sampen_counts_bruteforce,
                     sampen_counts_pure)


def test_counts_match_bruteforce_oracle():
    rng = np.random.default_rng(2024)
    for _ in range(30):
        n = int(rng.integers(20, 200))
        x = rng.standard_normal(n)
        for m in (1, 2, 3):
            for r in (0.1, 0.15, 0.2):
                got = template_match_counts(x, m, r)
                assert got == sampen_counts_bruteforce(x, m, r)


@settings(max_examples=300, deadline=None)
@given(
    values=st.lists(st.integers(-3, 3), min_size=5, max_size=80),
    step=st.sampled_from([1.0, 0.5, 0.25, 0.1]),
    m=st.integers(1, 3),
    r_steps=st.integers(0, 3),
)
def test_counts_exact_when_distances_tie_with_r(values, step, m, r_steps):
    # quantised values make |a - b| == r common, so the <= boundary is hit
    x = np.array(values, dtype=np.float64) * step
    r = r_steps * step
    assert template_match_counts(x, m, r) == sampen_counts_bruteforce(x, m, r)


def test_counts_match_bruteforce_at_window_size():
    rng = np.random.default_rng(1500)
    t = np.arange(1500) / 512.0
    series = (
        rng.standard_normal(1500),
        np.convolve(rng.standard_normal(1520), np.ones(21) / 21, mode="valid"),
        np.sin(2 * np.pi * 10.0 * t) + 0.3 * rng.standard_normal(1500),
    )
    for x in series:
        x = (x - x.mean()) / x.std()
        for tau in range(1, 11):
            grained = coarse_grain(x, tau)
            got = template_match_counts(grained, 2, 0.15)
            assert got == sampen_counts_bruteforce(grained, 2, 0.15), tau


def test_counts_match_pure_python_on_small_series():
    rng = np.random.default_rng(7)
    x = rng.standard_normal(40)
    for m in (1, 2):
        got = template_match_counts(x, m, 0.2)
        assert got == sampen_counts_pure(x, m, 0.2)


def test_alternating_series_counts_frozen():
    # hand count: 10-point alternating series, m=2, r=0.5
    x = np.array([1.0, 2.0] * 5)
    a, b = template_match_counts(x, 2, 0.5)
    assert (a, b) == (12, 16)
    assert sample_entropy_abs(x, 2, 0.5) == pytest.approx(-math.log(12.0 / 16.0), abs=1e-15)


def test_constant_series_count_ratio():
    # every template matches every other: a/b = (n-m-1)/(n-m+1) pairs ratio;
    # at window size no first-value gap ever exceeds r, so the sweep runs every offset
    m = 2
    for n in (10, 1500):
        x = np.zeros(n)
        a, b = template_match_counts(x, m, 0.1)
        n_m = n - m + 1
        n_m1 = n - m
        assert b == n_m * (n_m - 1) // 2
        assert a == n_m1 * (n_m1 - 1) // 2
        got = sample_entropy_abs(x, m, 0.1)
        assert got == pytest.approx(-math.log(a / b), abs=1e-15)


def test_series_too_short():
    with pytest.raises(SeriesTooShort):
        template_match_counts(np.zeros(3), 2, 0.1)


def test_no_matches_returns_none():
    x = np.array([1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0])
    assert sample_entropy_abs(x, 2, 0.001) is None


def test_r_scales_with_population_sigma():
    rng = np.random.default_rng(1)
    x = rng.standard_normal(300)
    params = EntropyParams(m=2, r_factor=0.15, max_scale=10)
    profile = multiscale_entropy(x, params)
    assert profile.r == 0.15 * float(x.std())
    direct = sample_entropy_abs(x, 2, profile.r)
    assert profile.per_scale[0] == (1, pytest.approx(direct, abs=1e-15))


def test_coarse_grain_matches_loops():
    rng = np.random.default_rng(3)
    x = rng.standard_normal(101)
    for tau in (1, 2, 3, 7, 10):
        got = coarse_grain(x, tau)
        ref = coarse_grain_loops(x, tau)
        assert got.shape == (x.size // tau,)
        np.testing.assert_allclose(got, ref, atol=1e-12)


def test_coarse_grain_scale_too_large():
    with pytest.raises(ScaleTooLarge):
        coarse_grain(np.zeros(10), 11)


def test_multiscale_profile_shape_and_ci():
    rng = np.random.default_rng(9)
    x = rng.standard_normal(600)
    params = EntropyParams(m=2, r_factor=0.15, max_scale=5)
    profile = multiscale_entropy(x, params)
    assert [tau for tau, _ in profile.per_scale] == [1, 2, 3, 4, 5]
    values = [v for _, v in profile.per_scale if v is not None]
    assert profile.complexity_index == pytest.approx(math.fsum(values), abs=1e-12)
    # scale-1 entry equals plain sample entropy with the same fixed r
    r = 0.15 * float(x.std())
    assert profile.per_scale[0][1] == pytest.approx(sample_entropy_abs(x, 2, r), abs=1e-15)


def test_multiscale_r_fixed_from_scale_one():
    # coarse series have lower sigma; r must NOT shrink with them
    rng = np.random.default_rng(10)
    x = rng.standard_normal(800)
    params = EntropyParams(m=2, r_factor=0.2, max_scale=4)
    profile = multiscale_entropy(x, params)
    r = 0.2 * float(x.std())
    grained = coarse_grain(x, 3)
    assert profile.per_scale[2][1] == pytest.approx(sample_entropy_abs(grained, 2, r), abs=1e-15)


def test_multiscale_undefined_scale_warns():
    # strongly diverging series: no templates match at tiny r
    x = np.cumsum(np.geomspace(1.0, 1e6, 60))
    params = EntropyParams(m=2, r_factor=1e-9, max_scale=2)
    with pytest.warns(UserWarning):
        profile = multiscale_entropy(x, params)
    assert profile.n_undefined >= 1


def test_multiscale_series_too_short_for_max_scale():
    params = EntropyParams(m=2, r_factor=0.15, max_scale=10)
    with pytest.raises(ScaleTooLarge):
        multiscale_entropy(np.zeros(30), params)


def test_noise_sigma_is_third_of_max():
    assert NoiseSpec(max_magnitude=4.0, seed=0).sigma == pytest.approx(4.0 / 3.0)
    assert NoiseSpec(max_magnitude=1.5, seed=0).sigma == pytest.approx(0.5)


def test_noise_bounded_and_moments_in_band():
    x = np.zeros((1, 100_000))
    spec = NoiseSpec(max_magnitude=4.0, seed=123)
    noisy = add_gaussian_noise(x, spec)
    delta = noisy[0]
    assert np.abs(delta).max() <= 4.0
    assert abs(delta.mean()) < 0.02
    assert 1.2 <= delta.std() <= 1.5


def test_noise_deterministic_and_input_untouched():
    rng = np.random.default_rng(4)
    x = rng.standard_normal((2, 500))
    x_copy = x.copy()
    spec = NoiseSpec(max_magnitude=4.0, seed=77)
    a = add_gaussian_noise(x, spec)
    b = add_gaussian_noise(x, spec)
    np.testing.assert_array_equal(a, b)
    np.testing.assert_array_equal(x, x_copy)
    assert not np.array_equal(a, x)


@pytest.mark.parametrize("shape", [(0,), (1,), (3000,), (2, 1500), (4, 7, 9)])
@pytest.mark.parametrize("max_magnitude", [4.0, 0.5, 1e-3])
def test_noise_equals_whole_mask_redraws(shape, max_magnitude):
    # redrawing only the entries still out of range takes the same draws in
    # the same order; a tiny max_magnitude forces many rounds. A float32 window
    # gives the bits of numpy's float32 + float64 sum.
    rng = np.random.default_rng(len(shape))
    window = rng.standard_normal(shape)
    for x in (window, window.astype(np.float32)):
        for seed in range(5):
            spec = NoiseSpec(max_magnitude=max_magnitude, seed=seed)
            assert add_gaussian_noise(x, spec).tobytes() == noise_by_whole_mask(x, spec).tobytes()


def test_shift_report_deltas_are_ci_differences():
    rng = np.random.default_rng(21)
    clean = rng.standard_normal((2, 400))
    noisy = add_gaussian_noise(clean, NoiseSpec(max_magnitude=4.0, seed=5))
    params = EntropyParams(m=2, r_factor=0.15, max_scale=3)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        report = complexity_shift_report(clean, noisy, params, ["a", "b"])
    assert [shift.channel for shift in report] == ["a", "b"]
    for shift in report:
        assert isinstance(shift, ChannelShift)
        ci_clean = shift.profile_clean.complexity_index
        ci_noisy = shift.profile_noisy.complexity_index
        assert shift.delta == pytest.approx(ci_noisy - ci_clean, abs=1e-12)


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("partners", [15, 16, 17, 31, 32, 33])
def test_counts_exact_when_partners_end_at_block_edges(m, partners):
    # evenly spaced first values give every sorted template `partners` first-value
    # partners ahead, so the sweep's span ends just before, at or after a block edge
    rng = np.random.default_rng(partners * 10 + m)
    n = 200
    rising = np.arange(n, dtype=np.float64)
    nt = n - m + 1
    assert template_match_counts(rising, m, partners) == (
        sum(nt - 1 - d for d in range(1, partners + 1)),
        sum(nt - d for d in range(1, partners + 1)),
    )
    for step in (1.0, 0.1, 0.37):
        for x in (rising * step, rising[::-1] * step, rng.permutation(n) * step):
            r = partners * step
            assert template_match_counts(x, m, r) == sampen_counts_bruteforce(x, m, r)


@pytest.mark.parametrize("m", [1, 2, 3])
def test_counts_exact_with_finished_rows_inside_the_span(m):
    # two far-apart clusters: rows at the top of the low cluster run out of
    # partners while rows on both sides of them still have some
    rng = np.random.default_rng(40 + m)
    for n_low, n_high in ((300, 300), (50, 400), (400, 50)):
        x = rng.permutation(np.concatenate([
            rng.standard_normal(n_low), 1000.0 + 0.5 * rng.standard_normal(n_high),
        ]))
        for r in (0.05, 0.2, 0.5):
            assert template_match_counts(x, m, r) == sampen_counts_bruteforce(x, m, r)


@pytest.mark.parametrize("m", [1, 2, 3])
def test_counts_exact_on_zscored_random_walks(m):
    rng = np.random.default_rng(1500 + m)
    for _ in range(3):
        x = np.cumsum(rng.standard_normal(1500))
        x = (x - x.mean()) / x.std()
        columns = np.stack([-x, x], axis=1)
        for r in (0.15, 0.3):
            assert template_match_counts(x, m, r) == sampen_counts_bruteforce(x, m, r)
            # a reversed view, a column slice and float32 count as their contiguous float64 copies
            for y in (x[::-1], columns[:, 1], x.astype(np.float32)):
                contiguous = np.array(y, dtype=np.float64)
                assert not y.flags.c_contiguous or y.dtype == np.float32
                assert template_match_counts(y, m, r) == template_match_counts(contiguous, m, r)
                assert template_match_counts(y, m, r) == sampen_counts_bruteforce(y, m, r)


@settings(max_examples=120, deadline=None)
@given(
    n=st.integers(40, 400),
    m=st.integers(1, 3),
    r_fraction=st.floats(0.02, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_counts_equal_bruteforce_on_random_walks_property(n, m, r_fraction, seed):
    # long enough for several 16-offset steps of the sweep, and r anywhere from
    # a few partners per template to most of the series
    x = np.cumsum(np.random.default_rng(seed).standard_normal(n))
    r = r_fraction * x.std()
    assert template_match_counts(x, m, r) == sampen_counts_bruteforce(x, m, r)
