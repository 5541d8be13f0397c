"""The benchmark's reference checks pass on affekt's output and fail on corrupted output.

    python3 -m pytest bench/tests -q

Artifacts come from affekt's own stage functions at small sizes; each
corruption test damages one artifact the way a faulty stage would and
expects the matching check to raise CheckFailed.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import checks  # noqa: E402
from affekt import pipeline  # noqa: E402
from affekt.checkpoint import load_checkpoint, save_checkpoint  # noqa: E402
from affekt.config import apply_seed_override, config_from_dict  # noqa: E402
from affekt.entropy import template_match_counts  # noqa: E402
from affekt.stream import STRATEGIES  # noqa: E402

FILT = {"kind": "bandstop", "order_n": 4, "edges_hz": [48.0, 52.0]}
PSD = {"segment_len": None, "overlap_fraction": 0.5, "max_freq_hz": 128.0}
MSE = {"m": 2, "r_factor": 0.15, "max_scale": 10}


def _config(workdir: Path, **sections):
    cfg = config_from_dict({"workdir": str(workdir), **sections})
    apply_seed_override(cfg, 3)
    return cfg


@pytest.fixture(scope="module")
def offline(tmp_path_factory):
    root = tmp_path_factory.mktemp("offline")
    cfg = _config(root, train={"max_epochs": 3}, stream={"trigger_consecutive": 2})
    for stage in ("synth", "preprocess", "featurize", "train", "eval"):
        getattr(pipeline, f"cmd_{stage}")(cfg)
    return root, cfg


@pytest.fixture
def work(offline, tmp_path):
    """A private copy of the offline artifacts that a test may damage."""
    src, _ = offline
    dst = tmp_path / "work"
    shutil.copytree(src, dst)
    return dst


def _window_ids(root: Path) -> list[str]:
    return [r["id"] for r in checks.read_json(root / "windows" / "windows.json")["windows"]]


def test_offline_checks_pass(offline):
    root, _ = offline
    checks.check_windows(root / "raw", root / "windows", FILT, 1500)
    checks.check_psd(root / "windows", root / "features", PSD, _window_ids(root)[:3])
    assert checks.check_smote(root / "features") > 0
    checks.check_loss_falls(root / "model", ("task1_binary", "task2_categorical"))
    checks.check_eval(root / "features", root / "model", root / "reports" / "metrics.json")


def test_window_check_fails_on_perturbed_sample(work):
    path = work / "windows" / f"{_window_ids(work)[0]}.f32"
    data = np.fromfile(path, dtype="<f4")
    data[100] += 1e-3
    data.tofile(path)
    with pytest.raises(checks.CheckFailed):
        checks.check_windows(work / "raw", work / "windows", FILT, 1500)


def test_psd_check_fails_on_shifted_bin(work):
    wid = _window_ids(work)[0]
    path = work / "features" / f"{wid}.eegf"
    blob = bytearray(path.read_bytes())
    values = checks.read_feature(path).astype("<f4")
    values[0] = np.roll(values[0], 1)
    blob[20:] = values.tobytes()
    path.write_bytes(bytes(blob))
    with pytest.raises(checks.CheckFailed):
        checks.check_psd(work / "windows", work / "features", PSD, [wid])


def _synthetic_path(root: Path) -> Path:
    manifest = checks.read_json(root / "features" / "manifest.json")
    record = next(r for r in manifest["records"] if r["synthetic"])
    return root / "features" / record["file"]


def test_smote_check_fails_off_segment(work):
    path = _synthetic_path(work)
    blob = bytearray(path.read_bytes())
    values = checks.read_feature(path).astype("<f4")
    values[0, 0] += 0.1
    blob[20:] = values.tobytes()
    path.write_bytes(bytes(blob))
    with pytest.raises(checks.CheckFailed, match="segment"):
        checks.check_smote(work / "features")


def test_smote_check_fails_on_unbalanced_classes(work):
    path = work / "features" / "manifest.json"
    manifest = checks.read_json(path)
    first = next(i for i, r in enumerate(manifest["records"]) if r["synthetic"])
    del manifest["records"][first]
    path.write_text(json.dumps(manifest))
    with pytest.raises(checks.CheckFailed, match="unbalanced"):
        checks.check_smote(work / "features")


def test_loss_check_fails_when_loss_rises(work):
    path = work / "model" / "task1_binary_log.jsonl"
    log = checks.read_jsonl(path)
    log[-1]["train_loss"] = log[0]["train_loss"] + 0.1
    path.write_text("".join(json.dumps(rec) + "\n" for rec in log))
    with pytest.raises(checks.CheckFailed):
        checks.check_loss_falls(work / "model", ("task1_binary",))


def test_eval_check_fails_on_wrong_accuracy(work):
    path = work / "reports" / "metrics.json"
    metrics = checks.read_json(path)
    metrics["task2"]["categorical_accuracy"] = 1.0 - metrics["task2"]["categorical_accuracy"] + 1e-3
    path.write_text(json.dumps(metrics))
    with pytest.raises(checks.CheckFailed):
        checks.check_eval(work / "features", work / "model", path)


# --- entropy-mse ---


@pytest.fixture(scope="module")
def entropy(tmp_path_factory):
    root = tmp_path_factory.mktemp("entropy")
    cfg = _config(root, synth={"n_subjects": 2, "channels": 4},
                  window={"length_samples": 400})
    for stage in ("synth", "preprocess", "augment", "entropy"):
        getattr(pipeline, f"cmd_{stage}")(cfg)
    manifest = checks.read_json(root / "windows" / "windows.json")
    windows = {
        kind: {r["id"]: checks.read_window(root / folder / r["file"], (4, 400))
               for r in manifest["windows"]}
        for kind, folder in (("clean", "windows"), ("noisy", "windows_noisy"))
    }
    return root, windows, checks.read_json(root / "reports" / "entropy.json")


def test_entropy_checks_pass(entropy):
    root, windows, report = entropy
    checks.check_noise(root / "windows", root / "windows_noisy", 4.0)
    checks.check_entropy_report(report, windows, MSE, 1)
    x = next(iter(windows["noisy"].values()))[0]
    checks.check_pair_counts("noisy", checks.mse_counts(x, MSE, template_match_counts),
                             checks.mse_counts(x, MSE))


def test_pair_count_check_fails_on_wrong_count(entropy):
    _, windows, _ = entropy
    x = next(iter(windows["clean"].values()))[1]
    got = checks.mse_counts(x, MSE, template_match_counts)
    got[2] = (got[2][0] + 1, got[2][1])
    with pytest.raises(checks.CheckFailed, match="scale 3"):
        checks.check_pair_counts("clean", got, checks.mse_counts(x, MSE))


def test_entropy_report_check_fails_on_wrong_sampen(entropy):
    _, windows, report = entropy
    report = json.loads(json.dumps(report))
    scale = report["windows"][0]["channels"][0]["clean"]["scales"][0]
    scale["sampen"] += 1e-6
    with pytest.raises(checks.CheckFailed):
        checks.check_entropy_report(report, windows, MSE, 1)


def test_noise_check_fails_beyond_max(entropy, tmp_path):
    root, _, _ = entropy
    noisy = tmp_path / "noisy"
    shutil.copytree(root / "windows_noisy", noisy)
    name = f"{next(iter(entropy[1]['clean']))}.f32"
    clean = np.fromfile(root / "windows" / name, dtype="<f4")
    data = np.fromfile(noisy / name, dtype="<f4")
    data[7] = clean[7] + 4.01
    data.tofile(noisy / name)
    with pytest.raises(checks.CheckFailed, match="beyond max"):
        checks.check_noise(root / "windows", noisy, 4.0)


def test_noise_check_fails_on_wrong_spread(entropy, tmp_path):
    root, windows, _ = entropy
    noisy = tmp_path / "noisy"
    shutil.copytree(root / "windows_noisy", noisy)
    for wid, clean in windows["clean"].items():
        (clean + 0.9 * (windows["noisy"][wid] - clean)).astype("<f4").tofile(noisy / f"{wid}.f32")
    with pytest.raises(checks.CheckFailed, match="noise std"):
        checks.check_noise(root / "windows", noisy, 4.0)


# --- stream-replay ---


@pytest.fixture(scope="module")
def stream(offline, tmp_path_factory):
    """Stream output of a model biased towards 'negative', so triggers fire."""
    src, cfg = offline
    root = tmp_path_factory.mktemp("stream")
    shutil.copytree(src, root, dirs_exist_ok=True)
    cfg = dataclasses.replace(cfg, workdir=str(root))
    ckpt = root / "model" / "task1_binary.ckpt"
    cnn_cfg, params, meta = load_checkpoint(ckpt)
    params["dense.b"] = params["dense.b"] + np.array([0.3, 0.0])
    save_checkpoint(ckpt, cnn_cfg, params, meta)
    kept = []
    inner = pipeline.stream_classify

    def keep(*args, **kwargs):
        kept.append(inner(*args, **kwargs))
        return kept[-1]

    pipeline.stream_classify = keep
    try:
        pipeline.cmd_stream(cfg)
    finally:
        pipeline.stream_classify = inner
    sidecar, data, _ = checks.read_subject(root / "raw" / "sub-001")
    header, params = checks.read_checkpoint(ckpt)
    probs = checks.reference_stream_probs(data, sidecar["sample_rate_hz"], FILT, PSD,
                                          header, params, 1500, 375)
    events = checks.read_jsonl(root / "reports" / "interventions.jsonl")
    return kept[-1].decisions, events, probs, sidecar


def test_stream_checks_pass(stream):
    decisions, events, probs, sidecar = stream
    assert len(events) >= 2
    checks.check_stream_grid(decisions, sidecar["n_samples"], 1500, 375, 512.0)
    checks.check_stream_decisions(decisions, probs, ["negative", "positive"])
    checks.check_triggers(decisions, events, 2)
    checks.check_strategies(events, STRATEGIES)
    checks.check_proc_time(decisions, 60.0)


def test_grid_check_fails_on_dropped_window(stream):
    decisions, _, _, sidecar = stream
    with pytest.raises(checks.CheckFailed):
        checks.check_stream_grid(decisions[:-1], sidecar["n_samples"], 1500, 375, 512.0)


def test_grid_check_fails_on_shifted_timestamp(stream):
    decisions, _, _, sidecar = stream
    moved = list(decisions)
    moved[3] = dataclasses.replace(moved[3], timestamp_s=moved[3].timestamp_s + 1 / 512.0)
    with pytest.raises(checks.CheckFailed, match="timestamp"):
        checks.check_stream_grid(moved, sidecar["n_samples"], 1500, 375, 512.0)


def test_decision_check_fails_on_wrong_confidence(stream):
    decisions, _, probs, _ = stream
    moved = list(decisions)
    moved[5] = dataclasses.replace(moved[5], confidence=moved[5].confidence - 1e-6)
    with pytest.raises(checks.CheckFailed, match="confidence"):
        checks.check_stream_decisions(moved, probs, ["negative", "positive"])


def test_trigger_check_fails_on_dropped_trigger(stream):
    decisions, events, _, _ = stream
    with pytest.raises(checks.CheckFailed):
        checks.check_triggers(decisions, events[:1] + events[2:], 2)


def test_strategy_check_fails_on_repeated_strategy(stream):
    _, events, _, _ = stream
    repeated = [dict(e, strategy=STRATEGIES[0]) for e in events]
    with pytest.raises(checks.CheckFailed):
        checks.check_strategies(repeated, STRATEGIES)


def test_proc_time_check_fails_beyond_wall_time(stream):
    decisions, _, _, _ = stream
    total_s = sum(d.proc_ms for d in decisions) / 1e3
    with pytest.raises(checks.CheckFailed):
        checks.check_proc_time(decisions, 0.5 * total_s)


def test_expected_triggers_rule():
    seq = ["negative", "negative", "negative", "positive", "negative", "negative", "negative",
           "negative", "negative", "negative"]
    assert checks.expected_triggers(seq, 3) == [2, 6, 9]
    assert checks.expected_triggers(seq, 1) == [0, 1, 2, 4, 5, 6, 7, 8, 9]
