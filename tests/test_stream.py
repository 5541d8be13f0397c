"""Sliding-window streaming classification and intervention triggering."""

import numpy as np
import pytest

from affekt import stream
from affekt.dataset import BINARY_CLASS_NAMES
from affekt.errors import RecordingTooShort, ShapeMismatch
from affekt.features import PsdSpec
from affekt.nn import BlockSpec, CnnConfig, Workspace, init_params
from affekt.signals import FilterKind, FilterSpec, Recording, design_filter, powerline_notch
from affekt.stream import STRATEGIES, StreamSpec, stream_classify
from oracles import trigger_indices

FS = 512.0


def make_recording(n_samples, channels=4, seed=0):
    rng = np.random.default_rng(seed)
    return Recording(
        subject_id="sub-007",
        sample_rate_hz=FS,
        channel_names=[f"ch{idx:03d}" for idx in range(channels)],
        data=rng.standard_normal((channels, n_samples)),
    )


def biased_model(channels, negative=True):
    """Constant predictor: flat feature matrices make GAP zero, bias decides."""
    cfg = CnnConfig(input_channels=channels, input_bins=128, blocks=(), n_classes=2, seed=0)
    params = init_params(cfg)
    params["dense.w"][:] = 0.0
    params["dense.b"][:] = [5.0, 0.0] if negative else [0.0, 5.0]
    return cfg, params


def varied_model(channels, seed=1):
    cfg = CnnConfig(
        input_channels=channels,
        input_bins=128,
        blocks=(BlockSpec(4, 2, False),),
        n_classes=2,
        seed=seed,
    )
    return cfg, init_params(cfg)


NOTCH = design_filter(powerline_notch(FS))
PSD = PsdSpec()


def run(rec, cfg, params, **spec_kw):
    spec = StreamSpec(**spec_kw)
    return stream_classify(rec, NOTCH, PSD, params, cfg, list(BINARY_CLASS_NAMES), spec)


def test_window_count_and_timestamps():
    rec = make_recording(1500 + 9 * 375)
    cfg, params = biased_model(4)
    result = run(rec, cfg, params, window_len=1500, hop_samples=375)
    assert len(result.decisions) == 10
    starts = [d.start_sample for d in result.decisions]
    assert starts == [375 * i for i in range(10)]
    for d in result.decisions:
        assert d.timestamp_s == pytest.approx((d.start_sample + 1500) / FS)
    stamps = [e.timestamp_s for e in result.events]
    assert stamps == sorted(stamps)


def test_all_negative_trigger_cadence_and_reset():
    rec = make_recording(1500 + 9 * 375)
    cfg, params = biased_model(4, negative=True)
    for m, expected in ((1, list(range(10))), (2, [1, 3, 5, 7, 9]), (3, [2, 5, 8])):
        result = run(rec, cfg, params, window_len=1500, hop_samples=375, trigger_consecutive=m)
        assert [e.window_index for e in result.events] == expected
        names = [d.class_name for d in result.decisions]
        assert [i for i in trigger_indices(names, m)] == expected


def test_positive_model_never_triggers():
    rec = make_recording(1500 + 5 * 375)
    cfg, params = biased_model(4, negative=False)
    result = run(rec, cfg, params, window_len=1500, hop_samples=375, trigger_consecutive=1)
    assert result.events == []
    assert all(d.class_name == "positive" for d in result.decisions)


def test_varied_decisions_match_trigger_oracle():
    rec = make_recording(1500 + 19 * 375, seed=5)
    cfg, params = varied_model(4)
    for m in (1, 2, 3):
        result = run(rec, cfg, params, window_len=1500, hop_samples=375, trigger_consecutive=m)
        names = [d.class_name for d in result.decisions]
        assert [e.window_index for e in result.events] == trigger_indices(names, m)
        for e in result.events:
            assert e.class_name == "negative"


def test_decision_fields_consistent():
    rec = make_recording(1500 + 3 * 375, seed=2)
    cfg, params = varied_model(4)
    result = run(rec, cfg, params, window_len=1500, hop_samples=375)
    for d in result.decisions:
        assert d.class_name == BINARY_CLASS_NAMES[d.class_index]
        assert 0.5 <= d.confidence <= 1.0
        assert d.proc_ms >= 0.0


def test_round_robin_strategy_rotation():
    rec = make_recording(1500 + 8 * 375)
    cfg, params = biased_model(4)
    result = run(rec, cfg, params, window_len=1500, hop_samples=375, trigger_consecutive=1)
    got = [e.strategy for e in result.events]
    expected = [STRATEGIES[i % 3] for i in range(len(got))]
    assert got == expected
    assert set(got) <= set(STRATEGIES)


def test_fixed_strategy_policy():
    rec = make_recording(1500 + 5 * 375)
    cfg, params = biased_model(4)
    result = run(
        rec,
        cfg,
        params,
        window_len=1500,
        hop_samples=375,
        trigger_consecutive=1,
        strategy_policy="fixed:breathing_exercise",
    )
    assert result.events
    assert all(e.strategy == "breathing_exercise" for e in result.events)


def test_invalid_strategy_policy():
    with pytest.raises(ShapeMismatch):
        StreamSpec(strategy_policy="fixed:nap_time")
    with pytest.raises(ShapeMismatch):
        StreamSpec(strategy_policy="alternating")


def test_recording_too_short():
    rec = make_recording(1000)
    cfg, params = biased_model(4)
    with pytest.raises(RecordingTooShort):
        run(rec, cfg, params, window_len=1500, hop_samples=375)


def test_channel_mismatch_rejected():
    rec = make_recording(3000, channels=4)
    cfg, params = biased_model(8)
    with pytest.raises(ShapeMismatch):
        run(rec, cfg, params, window_len=1500, hop_samples=375)


def test_stream_filter_must_match_recording_rate():
    rec = make_recording(3000)
    cfg, params = biased_model(4)
    other = design_filter(FilterSpec(FilterKind.BANDSTOP, 4, (48.0, 52.0), 256.0))
    with pytest.raises(ShapeMismatch):
        stream_classify(rec, other, PSD, params, cfg, list(BINARY_CLASS_NAMES), StreamSpec())


def test_mean_proc_time_recorded():
    rec = make_recording(1500 + 3 * 375)
    cfg, params = biased_model(4)
    result = run(rec, cfg, params, window_len=1500, hop_samples=375)
    assert result.mean_proc_ms > 0.0
    per_window = [d.proc_ms for d in result.decisions]
    assert result.mean_proc_ms == pytest.approx(float(np.mean(per_window)), rel=1e-9)


def test_stream_reuses_one_workspace(monkeypatch):
    # one workspace per run, so a window's forward pass allocates no buffers
    seen = []
    inner = stream.forward

    def spy(params, cfg, x, workspace=None):
        seen.append(workspace)
        return inner(params, cfg, x, workspace)

    monkeypatch.setattr(stream, "forward", spy)
    cfg, params = varied_model(4)
    result = run(make_recording(1500 + 3 * 375), cfg, params, window_len=1500, hop_samples=375)
    assert len(seen) == len(result.decisions) == 4
    assert isinstance(seen[0], Workspace)
    assert all(ws is seen[0] for ws in seen)


def test_stream_forward_runs_in_float64(monkeypatch):
    # the stream serves the float64 network that eval and the checks score
    seen = []
    inner = stream.forward

    def spy(params, cfg, x, workspace=None):
        seen.append(workspace)
        return inner(params, cfg, x, workspace)

    monkeypatch.setattr(stream, "forward", spy)
    cfg, params = varied_model(4)
    run(make_recording(1500 + 375), cfg, params, window_len=1500, hop_samples=375)
    assert [ws.dtype for ws in seen] == [np.float64, np.float64]


def test_welch_setup_is_built_before_the_first_window_is_timed(monkeypatch):
    # the first window's proc_ms must not include building the Welch window and grid
    from affekt import features

    features.welch_setup.cache_clear()
    cached_at_first_timer = []
    clock = stream.time.perf_counter

    def timer():
        if not cached_at_first_timer:
            cached_at_first_timer.append(features.welch_setup.cache_info().currsize)
        return clock()

    monkeypatch.setattr(stream.time, "perf_counter", timer)
    cfg, params = biased_model(4)
    result = run(make_recording(1500 + 375), cfg, params, window_len=1500, hop_samples=375)
    assert len(result.decisions) == 2
    assert cached_at_first_timer == [1]
    assert features.welch_setup.cache_info().misses == 1
