"""Acceptance battery: twelve pass/fail criteria, one test per criterion.

Heavier fixtures (the end-to-end run shared by criteria 9 and 11) are
module-scoped so the chain runs once.
"""

import hashlib
import json
import math
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from affekt import pipeline
from affekt.checkpoint import load_checkpoint
from affekt.config import config_from_dict
from affekt.dataset import BINARY_CLASS_NAMES, SmoteSpec, smote_resample
from affekt.entropy import (
    EntropyParams,
    NoiseSpec,
    add_gaussian_noise,
    multiscale_entropy,
    template_match_counts,
)
from affekt.features import PsdSpec, psd_feature_values, welch_psd
from affekt.nn import BlockSpec, CnnConfig, backward, cross_entropy, forward, init_params
from affekt.signals import (
    FilterKind,
    FilterSpec,
    Recording,
    design_filter,
    filter_array,
    powerline_notch,
    zscore_array,
)
from affekt.stream import STRATEGIES, StreamSpec, stream_classify
from affekt.training import TrainConfig, adam_init, adam_step, lr_at, train
from oracles import (
    butterworth_gain,
    finite_difference_gradients,
    is_convex_combination,
    prewarped_prototype_w,
    sampen_counts_bruteforce,
    sos_response,
    total_power_fsum,
    trigger_indices,
)

FS = 512.0


# --- shared end-to-end run (criteria 9 and 11) ---


@pytest.fixture(scope="module")
def e2e(tmp_path_factory):
    workdir = tmp_path_factory.mktemp("e2e")
    cfg = config_from_dict(
        {
            "workdir": str(workdir),
            "synth": {
                "n_subjects": 40,
                "events_per_subject": 8,
                "channels": 128,
                "fs_hz": 512.0,
                "seed": 101,
            },
            # separable data: val loss improves strictly every epoch, so the
            # patience rule cannot fire; a 100-epoch budget (well under the
            # 300-epoch bound) is the stopping mechanism here
            "train": {"max_epochs": 100},
        }
    )
    pipeline.cmd_synth(cfg)
    pipeline.cmd_preprocess(cfg)
    pipeline.cmd_featurize(cfg)
    t0 = time.perf_counter()
    train_report = pipeline.cmd_train(cfg)
    train_seconds = time.perf_counter() - t0
    eval_report = pipeline.cmd_eval(cfg)
    return {
        "cfg": cfg,
        "model": Path(cfg.workdir) / "model",
        "train_report": train_report,
        "train_seconds": train_seconds,
        "eval_report": eval_report,
    }


def test_01_lowpass_magnitude_matches_analytic_prototype():
    t0 = time.perf_counter()
    cutoff = 40.0
    for order_n in (2, 4, 8):
        realization = design_filter(FilterSpec(FilterKind.LOWPASS, order_n, (cutoff,), FS))
        for f in np.linspace(0.5, cutoff, 80):
            w = prewarped_prototype_w("lowpass", (cutoff,), f, FS)
            expected = butterworth_gain(order_n, w)
            got = abs(sos_response(realization.sections, f, FS))
            assert abs(got - expected) < 1e-3, (order_n, f)
        at_cutoff = abs(sos_response(realization.sections, cutoff, FS))
        assert abs(at_cutoff - 1.0 / math.sqrt(2.0)) < 1e-3
    assert time.perf_counter() - t0 < 1.0


def test_02_powerline_notch_tone_attenuation():
    t0 = time.perf_counter()
    n = 2048
    t = np.arange(n) / FS
    tone50 = np.sin(2 * np.pi * 50.0 * t)
    tone10 = np.sin(2 * np.pi * 10.0 * t)
    notch = design_filter(powerline_notch(FS))

    def tone_rms(x, f_hz):
        # quadrature projection: exact for integer cycle counts (200 and 40
        # cycles here), so it reads out only the tone's own RMS
        amp = 2.0 * abs(np.mean(x * np.exp(-2j * np.pi * f_hz * t)))
        return amp / math.sqrt(2.0)

    y50 = filter_array(notch, tone50[None, :])[0]
    y10 = filter_array(notch, tone10[None, :])[0]
    attenuation_db = 20.0 * math.log10(tone_rms(tone50, 50.0) / tone_rms(y50, 50.0))
    loss_db = abs(20.0 * math.log10(tone_rms(tone10, 10.0) / tone_rms(y10, 10.0)))
    assert attenuation_db >= 30.0
    assert loss_db < 0.5
    assert time.perf_counter() - t0 < 1.0


def test_03_sample_entropy_counts_match_bruteforce():
    t0 = time.perf_counter()
    rng = np.random.default_rng(333)
    for _ in range(200):
        n = int(rng.integers(12, 301))
        scale = float(rng.uniform(0.5, 3.0))
        x = scale * rng.standard_normal(n)
        for m in (1, 2, 3):
            if n < m + 2:
                continue
            for r in (0.1, 0.15, 0.2):
                assert template_match_counts(x, m, r) == sampen_counts_bruteforce(x, m, r)
    assert time.perf_counter() - t0 < 30.0


def test_04_noise_raises_complexity_index():
    t0 = time.perf_counter()
    from scipy import signal as sps

    params = EntropyParams(m=2, r_factor=0.15, max_scale=10)
    sos = sps.butter(4, 45.0, btype="lowpass", fs=FS, output="sos")
    wins = 0
    for trial in range(100):
        rng = np.random.default_rng(5000 + trial)
        tt = np.arange(1500) / FS
        x = sps.sosfiltfilt(sos, rng.standard_normal(1500))
        x = x + 0.8 * np.sin(2 * np.pi * 10.0 * tt + rng.uniform(0, 2 * np.pi))
        x = zscore_array(x[None, :])[0]
        noisy = add_gaussian_noise(x[None, :], NoiseSpec(max_magnitude=4.0, seed=trial))[0]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            clean_ci = multiscale_entropy(x, params).complexity_index
            noisy_ci = multiscale_entropy(noisy, params).complexity_index
        if noisy_ci > clean_ci:
            wins += 1
    assert wins >= 95, f"CI increased in only {wins}/100 trials"
    assert time.perf_counter() - t0 < 120.0


def test_05_psd_parseval_peak_and_matrix_shape():
    t0 = time.perf_counter()
    n = 4096
    t = np.arange(n) / FS
    tone = np.sin(2 * np.pi * 10.0 * t)
    freqs, psd = welch_psd(tone, FS, PsdSpec())
    assert abs(total_power_fsum(freqs, psd) - tone.var()) <= 0.02 * tone.var()
    assert freqs[np.argmax(psd)] == pytest.approx(10.0)

    from scipy import signal as sps

    # long record: 127 half-overlapped segments keep the estimator's own
    # edge bias well inside the 2% budget
    rng = np.random.default_rng(55)
    sos = sps.butter(4, (4.0, 60.0), btype="bandpass", fs=FS, output="sos")
    band = sps.sosfiltfilt(sos, rng.standard_normal(32768))
    freqs_b, psd_b = welch_psd(band, FS, PsdSpec())
    assert abs(total_power_fsum(freqs_b, psd_b) - band.var()) <= 0.02 * band.var()

    window = rng.standard_normal((128, 1500))
    values, bins = psd_feature_values(window, FS, PsdSpec())
    assert values.shape == (128, 128)
    assert bins.shape == (128,)
    assert time.perf_counter() - t0 < 10.0


def test_06_smote_balance_convexity_originals():
    t0 = time.perf_counter()
    rng = np.random.default_rng(66)
    x = np.vstack(
        [
            rng.normal(0.0, 1.0, (18, 16)),
            rng.normal(4.0, 1.0, (47, 16)),
            rng.normal(-3.0, 0.5, (30, 16)),
        ]
    )
    y = np.array([0] * 18 + [1] * 47 + [2] * 30)
    x_before = x.copy()
    xb, yb, synthetic = smote_resample(x, y, SmoteSpec(k_neighbors=5, seed=6))
    counts = np.bincount(yb)
    assert counts.tolist() == [47, 47, 47]
    np.testing.assert_array_equal(x, x_before)
    np.testing.assert_array_equal(xb[: x.shape[0]], x)
    assert not synthetic[: x.shape[0]].any()
    for idx in np.flatnonzero(synthetic):
        originals = x[y == yb[idx]]
        assert is_convex_combination(xb[idx], originals, tol=1e-9)
    assert time.perf_counter() - t0 < 5.0


def test_07_gradient_check_two_block_cnn():
    t0 = time.perf_counter()
    for seed in (0, 1, 2):
        for blocks in (
            (BlockSpec(3, 2, False), BlockSpec(4, 1, False)),
            (BlockSpec(3, 2, False), BlockSpec(3, 1, True)),
        ):
            cfg = CnnConfig(
                input_channels=2, input_bins=6, blocks=blocks, n_classes=3, seed=seed
            )
            params = init_params(cfg)
            # draws chosen away from relu kinks so the finite-difference
            # oracle stays valid at h=1e-5
            rng = np.random.default_rng(100 + seed)
            xs = rng.standard_normal((3, 2, 6))
            ys = np.eye(3)[rng.integers(0, 3, size=3)]
            _, grads = backward(params, cfg, xs, ys)

            def loss_fn(p):
                return cross_entropy(forward(p, cfg, xs), ys)

            numeric = finite_difference_gradients(loss_fn, params, h=1e-5)
            for name in params:
                scale = max(np.abs(numeric[name]).max(), 1e-8)
                rel = np.abs(grads[name] - numeric[name]).max() / scale
                assert rel < 1e-4, (seed, blocks, name, rel)
    assert time.perf_counter() - t0 < 60.0


def test_08_lr_schedule_and_adam_single_step():
    for t in (0, 1, 100, 399):
        assert lr_at(t) == 1e-3 * 0.99**t
    params = {"w": np.array([2.0])}
    state = adam_init(params)
    stepped, new_state = adam_step(
        params, {"w": np.array([0.5])}, state, lr=0.1, beta1=0.9, beta2=0.999, eps=1e-8
    )
    expected = 2.0 - 0.1 * 0.5 / (math.sqrt(0.25) + 1e-8)
    assert abs(stepped["w"][0] - expected) < 1e-9
    assert new_state.step == 1
    negative = {"w": np.array([-2.0])}
    stepped2, _ = adam_step(
        negative, {"w": np.array([-0.25])}, adam_init(negative), lr=0.01, beta1=0.9, beta2=0.999, eps=1e-8
    )
    assert abs(stepped2["w"][0] - (-2.0 + 0.01 * 0.25 / (math.sqrt(0.0625) + 1e-8))) < 1e-9


def test_09_end_to_end_learning(e2e):
    metrics = e2e["eval_report"]
    assert metrics["task1"]["binary_accuracy"] >= 0.90
    assert metrics["task2"]["categorical_accuracy"] > 1.5 * (1.0 / 3.0)
    assert e2e["train_seconds"] < 600.0
    for task in ("task1", "task2"):
        report = e2e["train_report"][task]
        assert report["epochs_run"] < 300
        log_path = e2e["model"] / f"{task}_{report['task']}_log.jsonl"
        rows = [json.loads(line) for line in log_path.read_text().splitlines()]
        assert rows[-1]["train_loss"] < rows[0]["train_loss"]


def test_10_early_stopping_patience_and_restore():
    cfg = CnnConfig(input_channels=1, input_bins=2, blocks=(), n_classes=2, seed=0)
    x_train = np.tile(np.array([[[1.0, -1.0]]]), (8, 1, 1))
    y_train = np.tile(np.array([[1.0, 0.0]]), (8, 1))
    x_val = x_train.copy()
    y_val = np.tile(np.array([[0.0, 1.0]]), (8, 1))  # opposite labels: val only worsens
    result = train(
        cfg,
        TrainConfig(max_epochs=400, patience=20, seed=0),
        [(x_train, y_train)],
        [(x_val, y_val)],
    )
    assert result.stopped_epoch == 21
    assert result.best_epoch == 1
    one_epoch = train(
        cfg,
        TrainConfig(max_epochs=1, patience=20, seed=0),
        [(x_train, y_train)],
        [(x_val, y_val)],
    )
    for name in result.params:
        np.testing.assert_array_equal(result.params[name], one_epoch.params[name])


def test_11_streaming_triggers_and_realtime(e2e):
    from affekt.synth import SHELF_BAND, SHELF_RMS, _band_noise, _pink_noise, _ridges

    ckpt = e2e["model"] / "task1_binary.ckpt"
    cnn_cfg, params, meta = load_checkpoint(ckpt)
    assert meta["class_names"] == list(BINARY_CLASS_NAMES)

    # scripted recording: sad / joy / sad signature segments, 3000 samples
    # each, built from the same generators the training data came from
    rng = np.random.default_rng(1111)
    data = _pink_noise(rng, 128, 9000)
    data[:, :3000] += _ridges(rng, 128, 3000, FS)
    data[:, 3000:6000] += _band_noise(rng, 128, 3000, FS, SHELF_BAND, SHELF_RMS)
    data[:, 6000:] += _ridges(rng, 128, 3000, FS)
    rec = Recording(
        subject_id="scripted",
        sample_rate_hz=FS,
        channel_names=[f"ch{idx:03d}" for idx in range(128)],
        data=data,
    )
    spec = StreamSpec(window_len=1500, hop_samples=375, trigger_consecutive=2)
    notch = design_filter(powerline_notch(FS))
    result = stream_classify(
        rec, notch, PsdSpec(), params, cnn_cfg, tuple(meta["class_names"]), spec
    )
    names = [d.class_name for d in result.decisions]
    # windows fully inside one segment must carry that segment's class
    for idx, d in enumerate(result.decisions):
        lo, hi = d.start_sample, d.start_sample + spec.window_len
        if hi <= 3000 or lo >= 6000:
            assert names[idx] == "negative", (idx, names[idx])
        elif 3000 <= lo and hi <= 6000:
            assert names[idx] == "positive", (idx, names[idx])
    # events fire exactly where the M-consecutive rule says they must
    assert [e.window_index for e in result.events] == trigger_indices(names, 2)
    assert result.events, "scripted negatives produced no interventions"
    assert all(e.strategy in STRATEGIES for e in result.events)
    stamps = [e.timestamp_s for e in result.events]
    assert stamps == sorted(stamps)
    budget_ms = spec.hop_samples / FS * 1000.0
    assert result.mean_proc_ms < budget_ms


def test_12_cli_chain_byte_identical(tmp_path):
    def run_chain(workdir):
        cfg = config_from_dict(
            {
                "workdir": str(workdir),
                "synth": {
                    "n_subjects": 6,
                    "events_per_subject": 8,
                    "channels": 4,
                    "fs_hz": 512.0,
                    "seed": 17,
                },
                "train": {"max_epochs": 3, "patience": 3},
                "entropy": {"n_windows": 1, "max_scale": 3},
            }
        )
        for stage in (
            pipeline.cmd_synth,
            pipeline.cmd_preprocess,
            pipeline.cmd_augment,
            pipeline.cmd_entropy,
            pipeline.cmd_featurize,
            pipeline.cmd_train,
            pipeline.cmd_eval,
            pipeline.cmd_stream,
        ):
            stage(cfg)
        return workdir

    def tree_digest(root):
        digests = {}
        for path in sorted(p for p in root.rglob("*") if p.is_file()):
            rel = str(path.relative_to(root))
            if rel == "reports/stream_timing.json":
                continue  # wall-clock timing, excluded by contract
            digests[rel] = hashlib.sha256(path.read_bytes()).hexdigest()
        return digests

    first = tree_digest(run_chain(tmp_path / "one"))
    second = tree_digest(run_chain(tmp_path / "two"))
    assert first == second
    assert len(first) > 50  # the chain actually produced artifacts
