"""CLI exit codes, JSON error reporting, config handling, and stage chaining."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import affekt
from affekt.cli import main
from affekt.config import (
    MODEL_PRESETS,
    apply_seed_override,
    config_from_dict,
    default_config_dict,
    load_config,
)
from affekt.errors import InvalidFormat, MissingFile


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def tiny_config(tmp_path, **overrides):
    cfg = {
        "workdir": str(tmp_path / "run"),
        "synth": {
            "n_subjects": 6,
            "events_per_subject": 8,
            "channels": 4,
            "fs_hz": 512.0,
            "seed": 11,
        },
        "train": {"max_epochs": 3, "patience": 3},
        "entropy": {"n_windows": 1, "max_scale": 3},
    }
    cfg.update(overrides)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg, indent=2) + "\n")
    return path


def test_usage_errors_exit_two(capsys):
    assert main(["synth"]) == 2  # missing --config
    capsys.readouterr()
    assert main(["not-a-stage", "--config", "x.json"]) == 2
    capsys.readouterr()


def test_missing_config_file_is_usage_error(capsys, tmp_path):
    code, out, err = run_cli(["synth", "--config", str(tmp_path / "absent.json")], capsys)
    assert code == 2
    payload = json.loads(err)
    assert payload["error"] == "MissingFile"
    assert "absent.json" in payload["message"]


def test_invalid_config_json(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run_cli(["synth", "--config", str(bad)], capsys)
    assert code == 2
    assert json.loads(err)["error"] == "InvalidFormat"


def test_unknown_config_key_rejected(tmp_path):
    path = tiny_config(tmp_path)
    cfg = json.loads(path.read_text())
    cfg["synthh"] = {}
    path.write_text(json.dumps(cfg))
    with pytest.raises(InvalidFormat):
        load_config(path)
    cfg = json.loads(tiny_config(tmp_path).read_text())
    cfg["synth"]["n_subjectss"] = 3
    path.write_text(json.dumps(cfg))
    with pytest.raises(InvalidFormat):
        load_config(path)
    cfg = json.loads(tiny_config(tmp_path).read_text())
    cfg["train"] = 5
    path.write_text(json.dumps(cfg))
    with pytest.raises(InvalidFormat, match="'train' must be a JSON object"):
        load_config(path)


@pytest.mark.parametrize(
    "section, key, value",
    [
        ("train", "patience", 0),
        ("train", "lr_decay", 0),
        ("smote", "k_neighbors", 0),
        ("psd", "overlap_fraction", 1.5),
        ("noise", "max_magnitude", 0),
        ("entropy", "m", 0),
        ("filter", "kind", "notch"),
        ("stream", "strategy_policy", "bogus"),
        ("stream", "hop_samples", 0),
        ("model", "preset", "nope"),
        ("window", "length_samples", 0),
        ("split", "batch_size", 0),
        ("split", "level", "bogus"),
        ("filter", "order_n", 0),
        ("window", "rating_dimension", "bogus"),
        ("synth", "n_subjects", 0),
        ("synth", "channels", 0),
        ("synth", "fs_hz", 0),
        ("synth", "n_subjects", 2.5),
        ("split", "batch_size", 2.5),
        ("entropy", "n_windows", 1.5),
        ("entropy", "m", 2.5),
        ("entropy", "max_scale", 2.5),
        ("stream", "hop_samples", 2.5),
        ("stream", "trigger_consecutive", 1.5),
        ("train", "max_epochs", 2.5),
        ("train", "patience", 1.5),
        ("smote", "k_neighbors", 2.5),
        ("psd", "segment_len", 100.5),
        ("window", "length_samples", True),
        ("split", "seed", 1.5),
        ("noise", "seed", "x"),
        ("model", "seed", 2.5),
        ("synth", "seed", -3),
        ("train", "seed", -1),
        # json.load parses NaN and Infinity; each used to fail late or not at all
        ("synth", "fs_hz", float("inf")),
        ("psd", "max_freq_hz", float("nan")),
        ("entropy", "r_factor", float("nan")),
        ("noise", "max_magnitude", float("inf")),
        ("train", "lr0", 0),
        ("train", "lr0", -1.0),
        ("train", "beta1", 1.0),
        ("train", "beta2", -0.5),
        ("train", "eps", 0),
    ],
)
def test_bad_section_value_rejected_at_load(capsys, tmp_path, section, key, value):
    path = tiny_config(tmp_path)
    cfg = json.loads(path.read_text())
    cfg.setdefault(section, {})[key] = value
    path.write_text(json.dumps(cfg))
    code, _, err = run_cli(["synth", "--config", str(path)], capsys)
    assert code == 2
    payload = json.loads(err)
    assert payload["error"] == "InvalidFormat"
    assert f"config section {section!r}" in payload["message"]
    assert re.search(rf"\b{key}\b", payload["message"])
    assert repr(value) in payload["message"]
    assert not (tmp_path / "run" / "raw").exists()


@pytest.mark.parametrize(
    "section, key, value",
    [
        ("window", "thresholds", [6.0, 4.0]),
        ("window", "thresholds", [4.0]),
        ("split", "ratios", [0.5, 0.25]),
        ("filter", "edges_hz", [52.0, 48.0]),
        ("synth", "class_mix", {"joy": 3}),
        ("synth", "class_mix", {"joy": 3.0, "sad": 2, "neutral": 3}),
        # a non-finite number inside a list is caught too
        ("split", "ratios", [0.7, 0.15, float("nan")]),
        ("window", "thresholds", [4.0, float("inf")]),
    ],
)
def test_bad_section_collection_rejected_at_load(capsys, tmp_path, section, key, value):
    path = tiny_config(tmp_path)
    cfg = json.loads(path.read_text())
    cfg.setdefault(section, {})[key] = value
    path.write_text(json.dumps(cfg))
    code, _, err = run_cli(["synth", "--config", str(path)], capsys)
    assert code == 2
    payload = json.loads(err)
    assert payload["error"] == "InvalidFormat"
    assert f"config section {section!r}" in payload["message"]
    assert re.search(rf"\b{key}\b", payload["message"])
    assert not (tmp_path / "run" / "raw").exists()


def test_psd_hop_of_zero_samples_rejected_at_load(capsys, tmp_path):
    # 0.9 of a 2-sample segment rounds to 2 samples of overlap
    path = tiny_config(tmp_path, psd={"segment_len": 2, "overlap_fraction": 0.9})
    code, _, err = run_cli(["synth", "--config", str(path)], capsys)
    assert code == 2
    payload = json.loads(err)
    assert payload["error"] == "InvalidFormat"
    assert "config section 'psd'" in payload["message"]
    assert "segment_len 2" in payload["message"]
    assert "overlap_fraction 0.9" in payload["message"]
    assert not (tmp_path / "run" / "raw").exists()


def test_negative_seed_override_rejected_at_load(capsys, tmp_path):
    path = tiny_config(tmp_path)
    code, _, err = run_cli(["synth", "--config", str(path), "--seed", "-5"], capsys)
    assert code == 2
    payload = json.loads(err)
    assert payload["error"] == "InvalidFormat"
    assert "config section 'synth': seed must be >= 0, got -4" in payload["message"]
    assert not (tmp_path / "run" / "raw").exists()


def test_partial_section_keeps_config_defaults():
    cfg = config_from_dict({"workdir": "/tmp/wd", "train": {"max_epochs": 5}, "noise": {}})
    assert (cfg.train.max_epochs, cfg.train.seed) == (5, 606)
    assert (cfg.noise.seed, cfg.smote.seed) == (202, 303)


def test_readme_config_block_matches_defaults():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = re.search(r"### Config\n.*?```json\n(.*?)```", readme, re.S).group(1)
    assert json.loads(block) == default_config_dict("runs/demo")


def test_stage_before_inputs_exist(capsys, tmp_path):
    path = tiny_config(tmp_path)
    code, _, err = run_cli(["featurize", "--config", str(path)], capsys)
    assert code == 2
    payload = json.loads(err)
    assert payload["error"] == "MissingFile"
    assert "stage" in payload["message"]  # tells the user what to run first


def test_synth_preprocess_featurize_chain(capsys, tmp_path):
    path = tiny_config(tmp_path)
    for stage in ("synth", "preprocess", "featurize"):
        code, out, err = run_cli([stage, "--config", str(path)], capsys)
        assert code == 0, f"{stage}: {err}"
        report = json.loads(out)
        assert report["stage"] == stage
    run_dir = tmp_path / "run"
    manifest = json.loads((run_dir / "windows" / "windows.json").read_text())
    assert len(manifest["windows"]) == 48
    features = json.loads((run_dir / "features" / "manifest.json").read_text())
    assert features["n_bins"] == 128
    assert features["source"] == "clean"


def test_seed_override_changes_bytes(capsys, tmp_path):
    path = tiny_config(tmp_path)
    code, _, _ = run_cli(["synth", "--config", str(path), "--out", str(tmp_path / "a")], capsys)
    assert code == 0
    code, _, _ = run_cli(
        ["synth", "--config", str(path), "--out", str(tmp_path / "b"), "--seed", "999"], capsys
    )
    assert code == 0
    a = (tmp_path / "a" / "raw" / "sub-001" / "eeg.f32").read_bytes()
    b = (tmp_path / "b" / "raw" / "sub-001" / "eeg.f32").read_bytes()
    assert a != b


def test_out_override_redirects_workdir(capsys, tmp_path):
    path = tiny_config(tmp_path)
    out_dir = tmp_path / "elsewhere"
    code, _, _ = run_cli(["synth", "--config", str(path), "--out", str(out_dir)], capsys)
    assert code == 0
    assert (out_dir / "raw" / "sub-001" / "eeg.f32").exists()
    assert not (tmp_path / "run").exists()


def test_help_exits_zero():
    result = subprocess.run(
        [sys.executable, "-m", "affekt.cli", "--help"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert "synth" in result.stdout
    result = subprocess.run(
        [sys.executable, "-m", "affekt.cli", "stream", "--help"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert "--config" in result.stdout


def test_leaf_module_imports_alone():
    src = str(Path(affekt.__file__).resolve().parent.parent)
    result = subprocess.run(
        [sys.executable, "-c",
         "import sys, affekt.errors; "
         "print(sorted(m for m in sys.modules if m.split('.')[0] in ('affekt', 'scipy')))"],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "['affekt', 'affekt.errors']"


def test_default_config_round_trips():
    base = default_config_dict("/tmp/wd")
    cfg = config_from_dict(base)
    assert cfg.workdir == "/tmp/wd"
    assert cfg.split.ratios == (0.7, 0.15, 0.15)
    assert cfg.model.preset in MODEL_PRESETS
    assert cfg.model.resolve_blocks()


def test_seed_override_is_stage_offset():
    cfg = config_from_dict(default_config_dict("/tmp/wd"))
    apply_seed_override(cfg, 100)
    seeds = {
        cfg.synth.seed,
        cfg.noise.seed,
        cfg.smote.seed,
        cfg.split.seed,
        cfg.model.seed,
        cfg.train.seed,
    }
    assert len(seeds) == 6  # distinct per-stage streams
    assert all(100 < s <= 106 for s in seeds)


def test_custom_blocks_override_preset():
    base = default_config_dict("/tmp/wd")
    base["model"]["blocks"] = [
        {"out_width": 4, "stride": 2, "residual": False},
        {"out_width": 4, "stride": 1, "residual": True},
    ]
    cfg = config_from_dict(base)
    blocks = cfg.model.resolve_blocks()
    assert [b.out_width for b in blocks] == [4, 4]
    assert blocks[1].residual is True


@pytest.mark.parametrize("n_windows", [0, -1])
def test_entropy_n_windows_below_one_rejected(capsys, tmp_path, n_windows):
    path = tiny_config(tmp_path, entropy={"n_windows": n_windows, "max_scale": 3})
    code, _, err = run_cli(["entropy", "--config", str(path)], capsys)
    assert code == 2
    payload = json.loads(err)
    assert payload["error"] == "InvalidFormat"
    assert "entropy.n_windows" in payload["message"]
    assert str(n_windows) in payload["message"]


def test_featurize_source_rejected_at_config_load(capsys, tmp_path):
    path = tiny_config(tmp_path, featurize={"source": "noisy"})
    code, _, err = run_cli(["synth", "--config", str(path)], capsys)
    assert code == 2
    payload = json.loads(err)
    assert payload["error"] == "InvalidFormat"
    assert "featurize.source" in payload["message"]
    assert "'noisy'" in payload["message"]


def test_nonfinite_sample_rejected_at_preprocess(capsys, tmp_path):
    path = tiny_config(tmp_path)
    assert run_cli(["synth", "--config", str(path)], capsys)[0] == 0
    subject = tmp_path / "run" / "raw" / "sub-002"
    sidecar = json.loads((subject / "eeg.json").read_text())
    data = np.fromfile(subject / "eeg.f32", dtype="<f4").reshape(-1, sidecar["n_samples"])
    data[2, 777] = np.nan
    data.tofile(subject / "eeg.f32")
    code, _, err = run_cli(["preprocess", "--config", str(path)], capsys)
    assert code == 2
    payload = json.loads(err)
    assert payload["error"] == "NonFiniteSample"
    assert "sub-002" in payload["message"]
    assert repr(sidecar["channel_names"][2]) in payload["message"]
    assert "sample 777 " in payload["message"]


def test_stream_window_shorter_than_filter_padding_is_usage_error(capsys, tmp_path):
    # the order-4 notch pads 27 samples on each side; a 20-sample window
    # trains fine but cannot be filtered on its own
    path = tiny_config(
        tmp_path, window={"length_samples": 20}, psd={"segment_len": 8}
    )
    for stage in ("synth", "preprocess", "featurize", "train"):
        code, _, err = run_cli([stage, "--config", str(path)], capsys)
        assert code == 0, f"{stage}: {err}"
    code, _, err = run_cli(["stream", "--config", str(path)], capsys)
    assert code == 2
    payload = json.loads(err)
    assert payload["error"] == "RecordingTooShort"
    assert "20 samples" in payload["message"]
    assert "padlen=27" in payload["message"]
    assert not (tmp_path / "run" / "reports" / "stream_timing.json").exists()


def _rewrite_sidecar(subject: Path, **changes) -> dict:
    sidecar = json.loads((subject / "eeg.json").read_text())
    sidecar.update(changes)
    (subject / "eeg.json").write_text(json.dumps(sidecar))
    return sidecar


def test_subject_too_short_to_filter_named_at_preprocess(capsys, tmp_path):
    path = tiny_config(tmp_path)
    assert run_cli(["synth", "--config", str(path)], capsys)[0] == 0
    subject = tmp_path / "run" / "raw" / "sub-003"
    n_samples = json.loads((subject / "eeg.json").read_text())["n_samples"]
    data = np.fromfile(subject / "eeg.f32", dtype="<f4").reshape(-1, n_samples)
    _rewrite_sidecar(subject, n_samples=20)
    np.ascontiguousarray(data[:, :20]).tofile(subject / "eeg.f32")
    code, _, err = run_cli(["preprocess", "--config", str(path)], capsys)
    assert code == 2
    payload = json.loads(err)
    assert payload["error"] == "RecordingTooShort"
    assert str(subject) in payload["message"]
    assert "padlen=27 samples, got 20" in payload["message"]


@pytest.mark.parametrize("layout", ["missing_channel", "reversed_channels", "sample_rate"])
def test_mixed_layouts_rejected_at_preprocess(capsys, tmp_path, layout):
    path = tiny_config(tmp_path)
    assert run_cli(["synth", "--config", str(path)], capsys)[0] == 0
    subject = tmp_path / "run" / "raw" / "sub-002"
    names = json.loads((subject / "eeg.json").read_text())["channel_names"]
    if layout == "missing_channel":
        sidecar = _rewrite_sidecar(subject, channel_names=names[:3])
        data = np.fromfile(subject / "eeg.f32", dtype="<f4").reshape(4, sidecar["n_samples"])
        data[:3].tofile(subject / "eeg.f32")
        expected = f"channel 3 is None, sub-001's is {names[3]!r}"
    elif layout == "reversed_channels":
        _rewrite_sidecar(subject, channel_names=names[::-1])
        expected = f"channel 0 is {names[3]!r}, sub-001's is {names[0]!r}"
    else:
        _rewrite_sidecar(subject, sample_rate_hz=256.0)
        expected = "sample_rate_hz 256.0 differs from sub-001's 512.0"
    code, _, err = run_cli(["preprocess", "--config", str(path)], capsys)
    assert code == 2
    payload = json.loads(err)
    assert payload["error"] == "LayoutMismatch"
    assert str(subject / "eeg.json") in payload["message"]
    assert expected in payload["message"]


@pytest.mark.parametrize(
    "damage", ["missing_key", "unparseable_sidecar", "corrupt_manifest", "fractional_n_samples"]
)
def test_unreadable_json_inputs_are_usage_errors(capsys, tmp_path, damage):
    path = tiny_config(tmp_path)
    run_dir = tmp_path / "run"
    for stage in ("synth", "preprocess"):
        assert run_cli([stage, "--config", str(path)], capsys)[0] == 0
    sidecar = run_dir / "raw" / "sub-002" / "eeg.json"
    if damage == "missing_key":
        content = json.loads(sidecar.read_text())
        del content["n_samples"]
        sidecar.write_text(json.dumps(content))
        stage, bad_file, expected = "preprocess", sidecar, "missing key 'n_samples'"
    elif damage == "fractional_n_samples":
        content = json.loads(sidecar.read_text())
        sidecar.write_text(json.dumps({**content, "n_samples": content["n_samples"] + 0.7}))
        stage, bad_file, expected = "preprocess", sidecar, "n_samples must be an integer"
    elif damage == "unparseable_sidecar":
        sidecar.write_text(sidecar.read_text()[:-10])
        stage, bad_file, expected = "preprocess", sidecar, "is not valid JSON"
    else:
        bad_file = run_dir / "windows" / "windows.json"
        bad_file.write_text(bad_file.read_text()[:200])
        stage, expected = "featurize", "is not valid JSON"
    code, _, err = run_cli([stage, "--config", str(path)], capsys)
    assert code == 2
    payload = json.loads(err)
    assert payload["error"] == "InvalidFormat"
    assert str(bad_file) in payload["message"]
    assert expected in payload["message"]


def test_synth_subjects_independent_across_seeds(capsys, tmp_path):
    # --seed N gives synth.seed N + 1; subject streams must not coincide
    # across neighbouring seeds (under seed ^ index, 2 ^ 0 == 3 ^ 1).
    path = tiny_config(tmp_path)
    for seed in ("1", "2"):
        args = ["synth", "--config", str(path), "--out", str(tmp_path / f"seed{seed}")]
        assert run_cli(args + ["--seed", seed], capsys)[0] == 0
    a = (tmp_path / "seed1" / "raw" / "sub-001" / "eeg.f32").read_bytes()
    b = (tmp_path / "seed2" / "raw" / "sub-002" / "eeg.f32").read_bytes()
    assert a != b


def test_entropy_reads_only_analysed_windows(capsys, tmp_path):
    path = tiny_config(tmp_path)
    for stage in ("synth", "preprocess", "augment", "entropy"):
        code, _, err = run_cli([stage, "--config", str(path)], capsys)
        assert code == 0, f"{stage}: {err}"
    run_dir = tmp_path / "run"
    report = (run_dir / "reports" / "entropy.json").read_bytes()
    manifest = json.loads((run_dir / "windows" / "windows.json").read_text())
    unused = sorted(r["file"] for r in manifest["windows"])[-1]
    (run_dir / "windows" / unused).unlink()
    (run_dir / "windows_noisy" / unused).unlink()
    code, _, err = run_cli(["entropy", "--config", str(path)], capsys)
    assert code == 0, err
    assert (run_dir / "reports" / "entropy.json").read_bytes() == report


def test_augment_noise_draws_differ_across_windows_and_seeds(capsys, tmp_path):
    path = tiny_config(tmp_path)
    for stage in ("synth", "preprocess"):
        assert run_cli([stage, "--config", str(path)], capsys)[0] == 0
    run_dir = tmp_path / "run"
    manifest = json.loads((run_dir / "windows" / "windows.json").read_text())
    clean = np.stack([np.fromfile(run_dir / "windows" / r["file"], dtype="<f4")
                      for r in manifest["windows"]])
    deltas = []
    for seed in (202, 203):
        path = tiny_config(tmp_path, noise={"seed": seed})
        assert run_cli(["augment", "--config", str(path)], capsys)[0] == 0
        noisy = np.stack([np.fromfile(run_dir / "windows_noisy" / r["file"], dtype="<f4")
                          for r in manifest["windows"]])
        deltas.extend(noisy - clean)
    # Every (seed, window) pair draws its own noise: no two deltas agree,
    # including window 1 under seed 202 and window 0 under seed 203.
    deltas = np.stack(deltas)
    for i in range(len(deltas) - 1):
        assert np.abs(deltas[i + 1:] - deltas[i]).max(axis=1).min() > 0.1


def test_checkpoints_identical_across_blas_thread_counts(tmp_path):
    path = tiny_config(tmp_path)
    src = str(Path(affekt.__file__).resolve().parent.parent)
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    checkpoints = []
    for threads in ("1", "2"):
        out = tmp_path / f"blas-{threads}"
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=pythonpath)
        for stage in ("synth", "preprocess", "featurize", "train"):
            result = subprocess.run(
                [sys.executable, "-m", "affekt.cli", stage,
                 "--config", str(path), "--out", str(out)],
                env=env,
                capture_output=True,
                text=True,
            )
            assert result.returncode == 0, f"{stage}, {threads} BLAS threads: {result.stderr}"
        checkpoints.append({p.name: p.read_bytes() for p in (out / "model").glob("*.ckpt")})
    assert sorted(checkpoints[0]) == ["task1_binary.ckpt", "task2_categorical.ckpt"]
    assert checkpoints[0] == checkpoints[1]
