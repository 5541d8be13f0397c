"""CLI exit codes, JSON error reporting, config handling, and stage chaining."""

import hashlib
import json
import os
import re
import shutil
import subprocess
import sys
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import affekt
from affekt import pipeline
from affekt.checkpoint import load_checkpoint
from affekt.cli import main
from affekt.config import (
    MODEL_PRESETS,
    apply_seed_override,
    config_from_dict,
    default_config_dict,
    load_config,
)
from affekt.errors import InvalidFormat, MissingFile, NonFiniteLoss
from conftest import make_events, write_subject
from oracles import noise_by_whole_mask


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


def test_config_path_of_a_directory_is_usage_error(capsys, tmp_path):
    code, _, err = run_cli(["synth", "--config", str(tmp_path)], capsys)
    assert code == 2
    payload = json.loads(err)
    assert payload["error"] == "InvalidFormat"
    assert payload["message"] == f"{tmp_path} is not a file"


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
    # a falsy value does not stand for an empty section
    for value in (5, [1], [], 0, False, "", None):
        cfg = json.loads(tiny_config(tmp_path).read_text())
        cfg["train"] = value
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
        # a list of numbers takes numbers only: never a string or a bool
        ("window", "thresholds", ["a", "b"]),
        ("filter", "edges_hz", [True, 52]),
        ("filter", "edges_hz", ["48", "52"]),
        ("split", "ratios", [True, False, False]),
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


def test_readme_stage_table_matches_pipeline_stages():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    table = re.search(r"Stages, in pipeline order:\n\n(.*?)\n\n", readme, re.S).group(1)
    rows = [[cell.strip() for cell in row.strip("|").split("|")] for row in table.splitlines()[2:]]
    assert [row[0].strip("`") for row in rows] == list(pipeline.STAGES)
    cfgs = [config_from_dict({"workdir": "w", "featurize": {"source": source}})
            for source in ("clean", "augmented")]
    for (_, reads, writes), stage in zip(rows, pipeline.STAGES.values()):
        declared = {rel(cfg) if callable(rel) else rel for rel in stage.reads for cfg in cfgs}
        assert all(f"`{rel}`" in reads for rel in declared), (reads, declared)
        assert all(f"`{rel}`" in writes for rel in stage.writes), (writes, stage.writes)


@pytest.mark.parametrize(
    "stage, present, missing, producer",
    [
        ("preprocess", (), "raw", "synth"),
        ("augment", (), "windows/windows.json", "preprocess"),
        ("entropy", (), "windows/windows.json", "preprocess"),
        ("featurize", (), "windows/windows.json", "preprocess"),
        ("train", (), "features/manifest.json", "featurize"),
        ("eval", (), "features/manifest.json", "featurize"),
        ("eval", ("features/manifest.json", "model/task1_binary.ckpt"),
         "model/task2_categorical.ckpt", "train"),
        ("stream", (), "model/task1_binary.ckpt", "train"),
    ],
    ids=["preprocess", "augment", "entropy", "featurize", "train", "eval", "eval-task1-only",
         "stream"],
)
def test_stage_before_inputs_exist(capsys, tmp_path, stage, present, missing, producer):
    path = tiny_config(tmp_path)
    run_dir = tmp_path / "run"
    for rel in present:  # only their existence is checked before the stage starts
        (run_dir / rel).parent.mkdir(parents=True, exist_ok=True)
        (run_dir / rel).write_text("{}")
    code, _, err = run_cli([stage, "--config", str(path)], capsys)
    assert code == 2
    payload = json.loads(err)
    assert payload["error"] == "MissingFile"
    assert "stage" in payload["message"]  # tells the user what to run first
    hint = f"run the {producer} stage first"
    if producer == "synth":
        hint += " or point workdir at a dataset"
    assert payload["message"] == f"{run_dir / missing} does not exist; {hint}"


def test_entropy_before_augment_names_augment(capsys, tmp_path):
    path = tiny_config(tmp_path)
    for stage in ("synth", "preprocess"):
        code, _, err = run_cli([stage, "--config", str(path)], capsys)
        assert code == 0, f"{stage}: {err}"
    code, _, err = run_cli(["entropy", "--config", str(path)], capsys)
    assert code == 2
    payload = json.loads(err)
    assert payload["error"] == "MissingFile"
    assert str(tmp_path / "run" / "windows_noisy" / "windows.json") in payload["message"]
    assert "run the augment stage first" in payload["message"]
    assert not (tmp_path / "run" / "reports" / "entropy.json").exists()


def test_stream_source_subject_without_a_subject_names_the_key(capsys, tmp_path):
    path = tiny_config(tmp_path)
    for stage in ("synth", "preprocess", "featurize", "train"):
        code, _, err = run_cli([stage, "--config", str(path)], capsys)
        assert code == 0, f"{stage}: {err}"
    path = tiny_config(tmp_path, stream={"source_subject": "sub-999"})
    code, _, err = run_cli(["stream", "--config", str(path)], capsys)
    assert code == 2
    payload = json.loads(err)
    assert payload["error"] == "MissingFile"
    assert "stream.source_subject 'sub-999'" in payload["message"]
    assert not (tmp_path / "run" / "reports" / "interventions.jsonl").exists()


def test_stream_timing_reports_window_percentiles(capsys, tmp_path):
    path = tiny_config(tmp_path)
    for stage in ("synth", "preprocess", "featurize", "train", "stream"):
        code, _, err = run_cli([stage, "--config", str(path)], capsys)
        assert code == 0, f"{stage}: {err}"
    timing = json.loads((tmp_path / "run" / "reports" / "stream_timing.json").read_text())
    assert sorted(timing) == ["budget_ms", "first_proc_ms", "mean_proc_ms", "n_windows",
                              "p50_proc_ms", "p95_proc_ms", "realtime_ok"]
    assert timing["n_windows"] > 1
    assert 0 < timing["p50_proc_ms"] <= timing["p95_proc_ms"]
    assert timing["first_proc_ms"] > 0


@pytest.mark.parametrize(
    "stage, writes, consumer",
    [("preprocess", "windows/windows.json", "featurize"),
     ("augment", "windows_noisy/windows.json", "entropy"),
     ("featurize", "features/manifest.json", "train")],
)
def test_failed_rerun_leaves_no_manifest(capsys, tmp_path, stage, writes, consumer):
    # window and feature files are written one by one before the manifest, so
    # a rerun that fails part way must not leave the last run's manifest
    # beside its new files for the next stage to read
    path = tiny_config(tmp_path)
    for name in ("synth", "preprocess", stage):
        assert run_cli([name, "--config", str(path)], capsys)[0] == 0
    run_dir = tmp_path / "run"
    if stage == "preprocess":
        damaged = run_dir / "raw" / "sub-005" / "eeg.f32"  # a later subject's recording
    else:
        records = json.loads((run_dir / "windows" / "windows.json").read_text())["windows"]
        damaged = run_dir / "windows" / records[-1]["file"]  # read after every other window
    damaged.write_bytes(damaged.read_bytes()[:-8])
    code, _, err = run_cli([stage, "--config", str(path)], capsys)
    assert code == 2
    payload = json.loads(err)
    assert payload["error"] == "PayloadSizeMismatch"
    assert str(damaged) in payload["message"]
    assert not (run_dir / writes).exists()
    code, _, err = run_cli([consumer, "--config", str(path)], capsys)
    assert code == 2
    payload = json.loads(err)
    assert payload["error"] == "MissingFile"
    assert payload["message"] == f"{run_dir / writes} does not exist; run the {stage} stage first"


def _first_analysed_window(run_dir: Path) -> Path:
    records = json.loads((run_dir / "windows" / "windows.json").read_text())["windows"]
    return run_dir / "windows" / min(records, key=lambda r: r["id"])["file"]


def _first_test_feature_file(run_dir: Path) -> Path:
    records = json.loads((run_dir / "features" / "manifest.json").read_text())["records"]
    return run_dir / "features" / next(r["file"] for r in records if r["split"] == "test")


@pytest.mark.parametrize(
    "stage, earlier, damaged",
    [("entropy", ("augment",), _first_analysed_window),
     ("eval", ("featurize", "train"), _first_test_feature_file),
     ("stream", ("featurize", "train"), lambda run_dir: run_dir / "raw" / "sub-001" / "eeg.f32")],
    ids=["entropy", "eval", "stream"],
)
def test_failed_rerun_leaves_no_report(capsys, tmp_path, stage, earlier, damaged):
    # the runner deletes a stage's declared files before the stage starts, so a
    # rerun that fails leaves no report of the last run beside the new inputs
    path = tiny_config(tmp_path)
    for name in ("synth", "preprocess", *earlier, stage):
        code, _, err = run_cli([name, "--config", str(path)], capsys)
        assert code == 0, f"{name}: {err}"
    run_dir = tmp_path / "run"
    writes = [run_dir / rel for rel in pipeline.STAGES[stage].writes]
    assert all(p.exists() for p in writes)
    damaged = damaged(run_dir)
    damaged.write_bytes(damaged.read_bytes()[:-8])
    code, _, err = run_cli([stage, "--config", str(path)], capsys)
    assert code != 0
    assert str(damaged) in json.loads(err)["message"]
    assert not any(p.exists() for p in writes)


def _nan_first_value(path: Path) -> None:
    payload = bytearray(path.read_bytes())
    payload[20:24] = np.float32(np.nan).tobytes()  # after the magic and the 16-byte header
    path.write_bytes(bytes(payload))


@pytest.mark.parametrize(
    "damage, error",
    [(lambda p: p.write_bytes(p.read_bytes()[:-8]), "PayloadSizeMismatch"),
     (Path.unlink, "MissingFile"),
     (_nan_first_value, "NonFiniteSample")],
    ids=["short", "missing", "nonfinite"],
)
def test_damaged_test_feature_file_is_usage_error_at_eval(capsys, tmp_path, damage, error):
    # a .eegf that is short by whole floats, absent or not finite is the same
    # input fault as such a window file or eeg.f32, and is named as one
    path = tiny_config(tmp_path)
    for name in ("synth", "preprocess", "featurize", "train"):
        assert run_cli([name, "--config", str(path)], capsys)[0] == 0
    damaged = _first_test_feature_file(tmp_path / "run")
    damage(damaged)
    code, _, err = run_cli(["eval", "--config", str(path)], capsys)
    assert code == 2
    payload = json.loads(err)
    assert payload["error"] == error
    assert str(damaged) in payload["message"]


def test_failed_train_rerun_leaves_no_checkpoint_of_the_last_run(capsys, tmp_path, monkeypatch):
    # task 1 trains and saves before task 2 starts, so a rerun stopped in task 2
    # must not leave task 2's old checkpoint beside task 1's new one
    path = tiny_config(tmp_path)
    for stage in ("synth", "preprocess", "featurize", "train"):
        assert run_cli([stage, "--config", str(path)], capsys)[0] == 0
    real_train, calls = pipeline.train, []

    def train_once(*args):
        calls.append(args)
        if len(calls) == 2:
            raise NonFiniteLoss("interrupted")
        return real_train(*args)

    monkeypatch.setattr(pipeline, "train", train_once)
    assert run_cli(["train", "--config", str(path)], capsys)[0] == 1
    model_dir = tmp_path / "run" / "model"
    assert (model_dir / "task1_binary.ckpt").exists()
    assert not (model_dir / "task2_categorical.ckpt").exists()
    assert not (model_dir / "task2_categorical_log.jsonl").exists()
    code, _, err = run_cli(["eval", "--config", str(path)], capsys)
    assert code == 2
    payload = json.loads(err)
    assert payload["error"] == "MissingFile"
    assert "run the train stage first" in payload["message"]


@pytest.fixture()
def trained_at_128_hz(capsys, tmp_path):
    """A tiny workdir trained on features of 0 < f <= 128 Hz, and its config."""
    path = tiny_config(tmp_path)
    for stage in ("synth", "preprocess", "featurize", "train"):
        code, _, err = run_cli([stage, "--config", str(path)], capsys)
        assert code == 0, f"{stage}: {err}"
    return path


def test_eval_of_features_with_other_bins_names_stale_checkpoint(capsys, tmp_path,
                                                                  trained_at_128_hz):
    path = tiny_config(tmp_path, psd={"max_freq_hz": 64.0})
    assert run_cli(["featurize", "--config", str(path)], capsys)[0] == 0
    code, _, err = run_cli(["eval", "--config", str(path)], capsys)
    assert code == 2
    payload = json.loads(err)
    assert payload["error"] == "StaleArtifact"
    run_dir = tmp_path / "run"
    for part in (str(run_dir / "model" / "task1_binary.ckpt"),
                 str(run_dir / "features" / "manifest.json"), "(4, 128, 2)", "(4, 64, 2)"):
        assert part in payload["message"]
    assert not (run_dir / "reports" / "metrics.json").exists()


def test_stream_with_other_psd_bins_names_stale_checkpoint(capsys, tmp_path, trained_at_128_hz):
    path = tiny_config(tmp_path, psd={"max_freq_hz": 64.0})
    code, _, err = run_cli(["stream", "--config", str(path)], capsys)
    assert code == 2
    payload = json.loads(err)
    assert payload["error"] == "StaleArtifact"
    run_dir = tmp_path / "run"
    for part in (str(run_dir / "model" / "task1_binary.ckpt"), "psd section", "(4, 128)",
                 "(4, 64)"):
        assert part in payload["message"]
    assert not (run_dir / "reports" / "interventions.jsonl").exists()



def test_eval_of_features_with_other_class_order_names_stale_checkpoint(capsys, tmp_path):
    # the emotion table numbers classes in first-seen order, so the synth seed
    # decides it; a checkpoint of another order would score the wrong classes
    synth = {"n_subjects": 6, "events_per_subject": 8, "channels": 4, "fs_hz": 512.0}
    path = tiny_config(tmp_path, synth={**synth, "seed": 1})
    for stage in ("synth", "preprocess", "featurize", "train"):
        assert run_cli([stage, "--config", str(path)], capsys)[0] == 0
    path = tiny_config(tmp_path, synth={**synth, "seed": 3})
    for stage in ("synth", "preprocess", "featurize"):
        assert run_cli([stage, "--config", str(path)], capsys)[0] == 0
    run_dir = tmp_path / "run"
    ckpt = run_dir / "model" / "task2_categorical.ckpt"
    trained = load_checkpoint(ckpt)[2]["class_names"]
    table = json.loads((run_dir / "features" / "manifest.json").read_text())["emotion_table"]
    current = sorted(table, key=table.get)
    assert sorted(trained) == sorted(current) and trained != current
    code, _, err = run_cli(["eval", "--config", str(path)], capsys)
    assert code == 2
    payload = json.loads(err)
    assert payload["error"] == "StaleArtifact"
    for part in (str(ckpt), str(run_dir / "features" / "manifest.json"), str(trained),
                 str(current)):
        assert part in payload["message"]
    assert not (run_dir / "reports" / "metrics.json").exists()


def test_synth_refuses_subjects_of_an_earlier_cohort(capsys, tmp_path):
    assert run_cli(["synth", "--config", str(tiny_config(tmp_path))], capsys)[0] == 0
    raw = tmp_path / "run" / "raw"
    before = (raw / "sub-001" / "eeg.f32").read_bytes()
    path = tiny_config(tmp_path, synth={"n_subjects": 4, "events_per_subject": 8,
                                        "channels": 4, "fs_hz": 512.0, "seed": 12})
    code, _, err = run_cli(["synth", "--config", str(path)], capsys)
    assert code == 2
    payload = json.loads(err)
    assert payload["error"] == "StaleArtifact"
    assert str(raw / "sub-005") in payload["message"]
    # refused before writing, and nothing removed: raw/ may be a user's dataset
    assert (raw / "sub-001" / "eeg.f32").read_bytes() == before
    assert sorted(p.name for p in raw.iterdir()) == [f"sub-{i:03d}" for i in range(1, 7)]


@pytest.mark.parametrize(
    "stage, earlier, missing",
    [("preprocess", (), lambda run_dir: run_dir / "raw" / "sub-002" / "events.tsv"),
     ("featurize", ("preprocess",), _first_analysed_window)],
    ids=["events", "window"],
)
def test_missing_input_file_message_says_it_does_not_exist(capsys, tmp_path, stage, earlier,
                                                           missing):
    path = tiny_config(tmp_path)
    for name in ("synth", *earlier):
        assert run_cli([name, "--config", str(path)], capsys)[0] == 0
    missing = missing(tmp_path / "run")
    missing.unlink()
    code, _, err = run_cli([stage, "--config", str(path)], capsys)
    assert code == 2
    assert json.loads(err) == {"error": "MissingFile", "message": f"{missing} does not exist"}

def test_window_stage_peaks_do_not_grow_with_the_cohort(tmp_path):
    # preprocess, augment and featurize hold one recording or one window at a
    # time, so doubling the cohort adds far less to their peaks than the
    # float64 windows it adds. featurize keeps the train windows' feature
    # matrices for SMOTE, each 1500 / 128 times smaller than its window, and
    # SMOTE copies them about twice.
    import tracemalloc

    stages = ("preprocess", "augment", "featurize")
    cfgs = {}
    for n_subjects in (4, 8):
        synth = {"n_subjects": n_subjects, "events_per_subject": 8, "channels": 4, "seed": 11}
        out = tmp_path / f"n{n_subjects}"
        cfgs[n_subjects] = load_config(tiny_config(tmp_path, synth=synth), out_override=out)
        pipeline.cmd_synth(cfgs[n_subjects])
    for stage in stages:  # imports and caches are not part of the peaks compared
        getattr(pipeline, f"cmd_{stage}")(cfgs[4])
    peaks = {}
    tracemalloc.start()
    try:
        for n_subjects, cfg in cfgs.items():
            for stage in stages:
                before = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                getattr(pipeline, f"cmd_{stage}")(cfg)
                peaks[stage, n_subjects] = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    window_bytes = 4 * 1500 * 8
    added = 4 * 8  # windows the second cohort adds; the tiny config skips no event
    for stage, share in zip(stages, (0.1, 0.1, 0.5)):
        growth = peaks[stage, 8] - peaks[stage, 4]
        assert growth < share * added * window_bytes, (stage, growth, peaks)


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


def _tree_digest(root: Path) -> dict[str, str]:
    """SHA-256 of every file under root but the wall-clock timing (criterion 12's rule)."""
    digests = {}
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        rel = str(path.relative_to(root))
        if rel == "reports/stream_timing.json":
            continue
        digests[rel] = hashlib.sha256(path.read_bytes()).hexdigest()
    return digests


def test_rerun_in_the_same_workdir_is_byte_identical(tmp_path):
    # every stage rewrites its files in place over the last run's: the tree
    # must hold exactly the bytes that the first run left
    cfg = config_from_dict(
        {
            "workdir": str(tmp_path / "run"),
            "synth": {"n_subjects": 6, "events_per_subject": 8, "channels": 4, "fs_hz": 512.0,
                      "seed": 17},
            "train": {"max_epochs": 3, "patience": 3},
            "entropy": {"n_windows": 1, "max_scale": 3},
        }
    )
    digests = []
    for _ in range(2):
        for stage in pipeline.STAGES.values():
            stage.run(cfg)
        digests.append(_tree_digest(tmp_path / "run"))
    assert digests[0] == digests[1]
    assert len(digests[0]) > 50


def test_featurize_band_without_a_bin_names_keys(capsys, tmp_path):
    # one-second segments at 512 Hz space the bins 1 Hz apart; 0.5 Hz keeps none
    path = tiny_config(tmp_path, psd={"max_freq_hz": 0.5})
    for stage in ("synth", "preprocess"):
        code, _, err = run_cli([stage, "--config", str(path)], capsys)
        assert code == 0, f"{stage}: {err}"
    code, _, err = run_cli(["featurize", "--config", str(path)], capsys)
    assert code == 2
    payload = json.loads(err)
    assert payload["error"] == "EmptyBand"
    for part in ("psd.max_freq_hz 0.5", "segment_len 512", "fs/seg = 1.0 Hz"):
        assert part in payload["message"]
    assert not (tmp_path / "run" / "features" / "manifest.json").exists()


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


def test_cli_import_loads_no_scipy_signal_or_fft():
    # only the stages that filter or compute spectra pay for scipy.signal
    src = str(Path(affekt.__file__).resolve().parent.parent)
    result = subprocess.run(
        [sys.executable, "-c",
         "import sys, affekt.cli; "
         "print(sorted(m for m in ('scipy.signal', 'scipy.fft') if m in sys.modules))"],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


def test_psd_features_load_no_scipy_signal():
    # the Welch window and frequency grid are built with numpy, so featurize pays
    # for scipy.fft only
    src = str(Path(affekt.__file__).resolve().parent.parent)
    result = subprocess.run(
        [sys.executable, "-c",
         "import sys, numpy as np; from affekt.features import psd_feature_values; "
         "psd_feature_values(np.random.default_rng(0).standard_normal((4, 1500)), 512.0); "
         "print(sorted(m for m in ('scipy.signal', 'scipy.fft') if m in sys.modules))"],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "['scipy.fft']"


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


def test_subject_with_no_samples_named_at_preprocess(capsys, tmp_path):
    # preprocess sizes its row blocks from the recording's length
    path = tiny_config(tmp_path)
    assert run_cli(["synth", "--config", str(path)], capsys)[0] == 0
    subject = tmp_path / "run" / "raw" / "sub-003"
    _rewrite_sidecar(subject, n_samples=0)
    (subject / "eeg.f32").write_bytes(b"")
    code, _, err = run_cli(["preprocess", "--config", str(path)], capsys)
    assert code == 2
    payload = json.loads(err)
    assert payload["error"] == "RecordingTooShort"
    assert f"{subject}: filtering needs more than padlen=27 samples, got 0" in payload["message"]


@pytest.mark.parametrize("rate", [0, -512, float("nan"), float("inf")])
def test_bad_sample_rate_named_at_preprocess(capsys, tmp_path, rate):
    path = tiny_config(tmp_path)
    assert run_cli(["synth", "--config", str(path)], capsys)[0] == 0
    subject = tmp_path / "run" / "raw" / "sub-001"
    _rewrite_sidecar(subject, sample_rate_hz=rate)
    code, _, err = run_cli(["preprocess", "--config", str(path)], capsys)
    assert code == 2
    payload = json.loads(err)
    assert payload["error"] == "InvalidFormat"
    assert payload["message"] == (
        f"{subject / 'eeg.json'}: sample_rate_hz must be finite and > 0, got {rate!r}"
    )


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
    "damage",
    ["missing_key", "unparseable_sidecar", "corrupt_manifest", "fractional_n_samples",
     "string_sample_rate", "numeric_subject_id"],
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
    elif damage == "string_sample_rate":
        # float("512") would read it, but eeg.json holds numbers as JSON numbers
        _rewrite_sidecar(sidecar.parent, sample_rate_hz="512")
        stage, bad_file, expected = "preprocess", sidecar, "sample_rate_hz must be a number"
    elif damage == "numeric_subject_id":
        _rewrite_sidecar(sidecar.parent, subject_id=2)
        stage, bad_file, expected = "preprocess", sidecar, "subject_id must be a string, got 2"
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


def test_repeated_subject_id_named_at_preprocess(capsys, tmp_path):
    # window ids start with the subject id, so a second sub-001 would overwrite
    # the first one's window files and list each id twice in the manifest
    path = tiny_config(tmp_path)
    assert run_cli(["synth", "--config", str(path)], capsys)[0] == 0
    raw = tmp_path / "run" / "raw"
    _rewrite_sidecar(raw / "sub-002", subject_id="sub-001")
    code, _, err = run_cli(["preprocess", "--config", str(path)], capsys)
    assert code == 2
    payload = json.loads(err)
    assert payload["error"] == "InvalidFormat"
    assert payload["message"] == (
        f"{raw / 'sub-002' / 'eeg.json'}: subject_id 'sub-001' is {raw / 'sub-001' / 'eeg.json'}'s too"
    )
    assert not (tmp_path / "run" / "windows" / "windows.json").exists()


def test_cohort_without_a_window_named_at_preprocess(capsys, tmp_path):
    # two 1,000-sample subjects: no event has the 1,500 samples a window takes
    path = tiny_config(tmp_path)
    raw = tmp_path / "run" / "raw"
    rng = np.random.default_rng(3)
    for subject in ("sub-001", "sub-002"):
        events = make_events([(0.1, 7.5, 7.0, "joy"), (0.9, 2.0, 2.5, "sad")])
        write_subject(raw / subject, rng.standard_normal((4, 1000)), 512.0, events)
    code, _, err = run_cli(["preprocess", "--config", str(path)], capsys)
    assert code == 2
    payload = json.loads(err)
    assert payload["error"] == "RecordingTooShort"
    for part in (str(raw), "4 events", "window.length_samples=1500"):
        assert part in payload["message"]
    assert not (tmp_path / "run" / "windows" / "windows.json").exists()


def test_skipped_events_counted_in_manifest_and_report(capsys, tmp_path):
    # 6,000 samples at 512 Hz: the window at 9.0 s would end at sample 6,108
    path = tiny_config(tmp_path)
    run_dir = tmp_path / "run"
    events = make_events([(0.5, 7.5, 7.0, "joy"), (3.6, 2.0, 2.5, "sad"),
                          (6.8, 5.0, 5.0, "neutral"), (9.0, 7.0, 7.5, "joy")])
    data = np.random.default_rng(4).standard_normal((4, 6000))
    write_subject(run_dir / "raw" / "sub-001", data, 512.0, events)
    code, out, err = run_cli(["preprocess", "--config", str(path)], capsys)
    assert code == 0, err
    manifest = json.loads((run_dir / "windows" / "windows.json").read_text())
    assert json.loads(out)["skipped_events"] == 1
    assert manifest["skipped_events"] == 1
    assert [w["id"] for w in manifest["windows"]] == [f"sub-001-e00{i}" for i in range(3)]
    assert not (run_dir / "windows" / "sub-001-e003.f32").exists()


def test_smote_neighbors_beyond_a_train_class_named_at_featurize(capsys, tmp_path):
    path = tiny_config(tmp_path, smote={"k_neighbors": 50})
    for stage in ("synth", "preprocess"):
        assert run_cli([stage, "--config", str(path)], capsys)[0] == 0
    code, _, err = run_cli(["featurize", "--config", str(path)], capsys)
    assert code == 2
    payload = json.loads(err)
    assert payload["error"] == "ClassTooSmall"
    assert re.search(r"^categorical task: train class '(joy|sad|neutral)' has \d+ windows; "
                     r"smote.k_neighbors=50 needs more", payload["message"])
    assert "np.int64(" not in payload["message"]
    assert not (tmp_path / "run" / "features" / "manifest.json").exists()


@pytest.fixture(scope="module")
def complete_run(tmp_path_factory):
    """A tiny workdir after synth, preprocess, augment, featurize and train."""
    root = tmp_path_factory.mktemp("complete")
    path = tiny_config(root)
    for stage in ("synth", "preprocess", "augment", "featurize", "train"):
        assert main([stage, "--config", str(path)]) == 0, stage
    return root / "run"


WINDOWS, FEATURES = "windows/windows.json", "features/manifest.json"


def _first(records_key: str, change):
    """A damage that applies change to the manifest's first record."""
    return lambda manifest: change(manifest[records_key][0])


def _renumber_joy(records_key: str):
    """A damage that moves joy's emotion id from 2 to 7, in the table and in every record."""
    def damage(manifest):
        assert manifest["emotion_table"]["joy"] == 2
        manifest["emotion_table"]["joy"] = 7
        for record in manifest[records_key]:
            if record["categorical"] == 2:
                record["categorical"] = 7
    return damage


# id: (manifest, damage, stage that must refuse it, error, what the message must name)
MANIFEST_DAMAGES = {
    "feature_record_without_file":
        (FEATURES, _first("records", lambda r: r.pop("file")), "train", "InvalidFormat",
         "record 0: missing key 'file'"),
    "feature_record_split_dev":
        (FEATURES, _first("records", lambda r: r.update(split="dev")), "train", "InvalidFormat",
         "record 0: split must be one of ['train', 'val', 'test'], got 'dev'"),
    "feature_record_binary_neutral":
        (FEATURES, _first("records", lambda r: r.update(binary="neutral")), "train",
         "InvalidFormat", "record 0: binary must be one of [None, 'negative', 'positive']"),
    "feature_n_bins_7":
        (FEATURES, lambda m: m.update(n_bins=7), "train", "PayloadSizeMismatch",
         "n_channels x n_bins say 4x7"),
    "feature_without_train_order":
        (FEATURES, lambda m: m.pop("train_order"), "train", "InvalidFormat",
         "missing key 'train_order'"),
    "feature_emotion_table_list":
        (FEATURES, lambda m: m.update(emotion_table=[1]), "train", "InvalidFormat",
         "emotion_table must be an object, got [1]"),
    "feature_joy_id_7":
        (FEATURES, _renumber_joy("records"), "train", "InvalidFormat",
         "emotion_table ids must be 0 to 2, got {'joy': 7, 'neutral': 1, 'sad': 0}"),
    "feature_without_n_channels":
        (FEATURES, lambda m: m.pop("n_channels"), "eval", "InvalidFormat",
         "missing key 'n_channels'"),
    "window_record_without_split":
        (WINDOWS, _first("windows", lambda r: r.pop("split")), "featurize", "InvalidFormat",
         "window 0: missing key 'split'"),
    "window_record_without_id":
        (WINDOWS, _first("windows", lambda r: r.pop("id")), "featurize", "InvalidFormat",
         "window 0: missing key 'id'"),
    "window_record_categorical_x":
        (WINDOWS, _first("windows", lambda r: r.update(categorical="x")), "featurize",
         "InvalidFormat", "window 0: categorical must be one of"),
    "window_joy_id_7":
        (WINDOWS, _renumber_joy("windows"), "featurize", "InvalidFormat",
         "emotion_table ids must be 0 to 2, got {'joy': 7, 'neutral': 1, 'sad': 0}"),
    "window_record_id_repeated":
        (WINDOWS, lambda m: m["windows"][1].update(id=m["windows"][0]["id"]), "featurize",
         "InvalidFormat", "window id 'sub-001-e000' is listed twice"),
    "window_without_split_order":
        (WINDOWS, lambda m: m.pop("split_order"), "featurize", "InvalidFormat",
         "missing key 'split_order'"),
    "window_sample_rate_x":
        (WINDOWS, lambda m: m.update(sample_rate_hz="x"), "featurize", "InvalidFormat",
         "sample_rate_hz must be a number, got 'x'"),
    "window_windows_5":
        (WINDOWS, lambda m: m.update(windows=5), "augment", "InvalidFormat",
         "windows must be a list, got 5"),
    "window_without_window_len":
        (WINDOWS, lambda m: m.pop("window_len"), "entropy", "InvalidFormat",
         "missing key 'window_len'"),
}


@pytest.mark.parametrize(
    "manifest, damage, stage, error, expected", MANIFEST_DAMAGES.values(), ids=MANIFEST_DAMAGES
)
def test_damaged_manifest_named_by_the_stage_that_reads_it(
    capsys, tmp_path, complete_run, manifest, damage, stage, error, expected
):
    # each manifest is checked against its key table once, when a stage reads
    # it, so a damaged key is a usage error naming the file, never a KeyError
    shutil.copytree(complete_run, tmp_path / "run")
    path = tiny_config(tmp_path)
    bad_file = tmp_path / "run" / manifest
    content = json.loads(bad_file.read_text())
    damage(content)
    bad_file.write_text(json.dumps(content))
    code, _, err = run_cli([stage, "--config", str(path)], capsys)
    assert code == 2, err
    payload = json.loads(err)
    assert payload["error"] == error
    assert str(bad_file) in payload["message"]
    assert expected in payload["message"]


@pytest.mark.parametrize(
    "stage, writes",
    [("augment", "windows_noisy/windows.json"),
     ("entropy", "reports/entropy.json"),
     ("featurize", "features/manifest.json")],
)
def test_window_manifest_without_windows_is_usage_error(capsys, tmp_path, stage, writes):
    path = tiny_config(tmp_path)
    run_dir = tmp_path / "run"
    for name in ("synth", "preprocess", "augment"):
        assert run_cli([name, "--config", str(path)], capsys)[0] == 0
    manifest = run_dir / "windows" / "windows.json"
    manifest.write_text(json.dumps({**json.loads(manifest.read_text()), "windows": []}))
    code, _, err = run_cli([stage, "--config", str(path)], capsys)
    assert code == 2
    payload = json.loads(err)
    assert payload["error"] == "InvalidFormat"
    assert payload["message"] == f"{manifest} lists no windows"
    assert not (run_dir / writes).exists()


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


def test_train_reads_each_feature_file_once(capsys, tmp_path, monkeypatch):
    # both tasks train on the real windows, and the stage reads each file for both
    path = tiny_config(tmp_path)
    for stage in ("synth", "preprocess", "featurize"):
        assert run_cli([stage, "--config", str(path)], capsys)[0] == 0
    real, reads = pipeline.read_feature_file, Counter()

    def counted(file, *args):
        reads[file] += 1
        return real(file, *args)

    monkeypatch.setattr(pipeline, "read_feature_file", counted)
    assert run_cli(["train", "--config", str(path)], capsys)[0] == 0
    manifest_path = tmp_path / "run" / "features" / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    wanted = [file for task in ("binary", "categorical")
              for split in ("train", "val")
              for file, _ in pipeline._task_items(manifest_path, manifest, task)[0][split]]
    assert len(set(wanted)) < len(wanted)  # some files serve both tasks
    assert reads == Counter(set(wanted))


def test_entropy_max_scale_too_large_for_windows_names_keys(capsys, tmp_path):
    # the config loads and the other stages run; entropy refuses before reading
    # a window (augment never ran, so there are no noisy windows to read)
    path = tiny_config(tmp_path, entropy={"n_windows": 1, "max_scale": 400})
    for stage in ("synth", "preprocess"):
        code, _, err = run_cli([stage, "--config", str(path)], capsys)
        assert code == 0, f"{stage}: {err}"
    manifest = tmp_path / "run" / "windows" / "windows.json"
    window_len = json.loads(manifest.read_text())["window_len"]
    code, _, err = run_cli(["entropy", "--config", str(path)], capsys)
    assert code == 2
    payload = json.loads(err)
    assert payload["error"] == "ScaleTooLarge"
    for part in ("entropy.max_scale 400", "entropy.m 2", f"{window_len}-sample", str(manifest)):
        assert part in payload["message"]
    assert not (tmp_path / "run" / "reports" / "entropy.json").exists()


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


def test_noisy_windows_equal_the_whole_mask_oracle(complete_run):
    # the artifact, not only the function: each noisy window file holds, byte for byte, the
    # rng.normal oracle's noise on its clean window, seeded as augment seeds that window
    cfg = load_config(complete_run.parent / "cfg.json")
    manifest = json.loads((complete_run / "windows" / "windows.json").read_text())
    windows = manifest["windows"]
    seeds = np.random.SeedSequence(cfg.noise.seed).generate_state(len(windows))
    shape = (len(manifest["channel_names"]), manifest["window_len"])
    for i in (0, len(windows) - 1):
        name = windows[i]["file"]
        clean = np.fromfile(complete_run / "windows" / name, dtype="<f4").reshape(shape)
        spec = replace(cfg.noise, seed=int(seeds[i]))
        expected = noise_by_whole_mask(clean.astype(np.float64), spec).astype("<f4")
        assert (complete_run / "windows_noisy" / name).read_bytes() == expected.tobytes()


def test_window_file_that_is_a_directory_is_named_at_augment(capsys, tmp_path):
    path = tiny_config(tmp_path)
    for stage in ("synth", "preprocess"):
        assert run_cli([stage, "--config", str(path)], capsys)[0] == 0
    window = tmp_path / "run" / "windows" / "sub-001-e000.f32"
    window.unlink()
    window.mkdir()
    code, _, err = run_cli(["augment", "--config", str(path)], capsys)
    assert code == 2, err
    assert json.loads(err) == {"error": "InvalidFormat", "message": f"{window} is not a file"}
    assert not (tmp_path / "run" / "windows_noisy" / "windows.json").exists()


@pytest.mark.parametrize(
    "stage, earlier, rel",
    [("train", ("featurize",), "features/smote-bin-0000.eegf"),
     ("eval", ("featurize", "train"), "model/task1_binary.ckpt")],
    ids=["feature_file_at_train", "checkpoint_at_eval"],
)
def test_binary_input_that_is_a_directory_is_named(capsys, tmp_path, stage, earlier, rel):
    # a feature file or a checkpoint opens through the same reader as a window file
    path = tiny_config(tmp_path)
    for name in ("synth", "preprocess", *earlier):
        assert run_cli([name, "--config", str(path)], capsys)[0] == 0
    target = tmp_path / "run" / rel
    target.unlink()
    target.mkdir()
    code, _, err = run_cli([stage, "--config", str(path)], capsys)
    assert code == 2, err
    assert json.loads(err) == {"error": "InvalidFormat", "message": f"{target} is not a file"}


def test_events_table_that_is_a_directory_is_named_at_preprocess(capsys, tmp_path):
    # the events table opens through the binary readers' opener too
    path = tiny_config(tmp_path)
    assert run_cli(["synth", "--config", str(path)], capsys)[0] == 0
    target = tmp_path / "run" / "raw" / "sub-001" / "events.tsv"
    target.unlink()
    target.mkdir()
    code, _, err = run_cli(["preprocess", "--config", str(path)], capsys)
    assert code == 2, err
    assert json.loads(err) == {"error": "InvalidFormat", "message": f"{target} is not a file"}


def test_events_table_that_is_not_utf8_is_named_at_preprocess(capsys, tmp_path):
    # a table saved as Latin-1: the accent is byte 0xe9, which UTF-8 never starts with
    path = tiny_config(tmp_path)
    assert run_cli(["synth", "--config", str(path)], capsys)[0] == 0
    target = tmp_path / "run" / "raw" / "sub-002" / "events.tsv"
    target.write_bytes(target.read_bytes().replace(b"stimulus", b"stimul\xe9", 1))
    code, _, err = run_cli(["preprocess", "--config", str(path)], capsys)
    assert code == 2, err
    payload = json.loads(err)
    assert payload["error"] == "MalformedEvent"
    assert payload["message"].startswith(f"{target} is not UTF-8")


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
