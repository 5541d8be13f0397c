"""Stage implementations behind the CLI.

Every stage reads only artifacts from earlier stages plus the config, and
writes its outputs under the workdir:

    raw/            synth          subject dirs (eeg.json, eeg.f32, events.tsv)
    windows/        preprocess     filtered+standardized windows, windows.json
    windows_noisy/  augment        perturbed copies of the windows
    features/       featurize      EEGF feature files, manifest.json
    model/          train          checkpoints + epoch logs (JSONL)
    reports/        entropy, eval, stream

Stages are pure functions of (inputs, config): re-running one with the same
seeds rewrites byte-identical artifacts, except wall-clock timing fields,
which are confined to metrics.json's time_per_batch_ms and the separate
stream_timing.json.

JSON objects and float32 payloads are written by the dataset module, JSONL logs
by _write_jsonl; the emotion table is a plain dict from name to id.
"""

from __future__ import annotations

import json
from dataclasses import asdict, replace
from itertools import zip_longest
from pathlib import Path

import numpy as np

from . import dataset as ds
from .checkpoint import load_checkpoint, save_checkpoint
from .config import PipelineConfig, paths_for
from .entropy import EntropyProfile, add_gaussian_noise, complexity_shift_report
from .errors import (
    EmptyEvaluationSet,
    LayoutMismatch,
    MissingFile,
    RecordingTooShort,
    ShapeMismatch,
)
from .features import psd_feature_values, read_feature_file, write_feature_file
from .nn import CnnConfig
from .signals import design_filter, filter_array, zscore_array
from .stream import stream_classify
from .synth import synth_generate
from .training import evaluate, train


def _write_jsonl(path: Path, rows) -> None:
    """One JSON object per line, keys sorted."""
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row, sort_keys=True) + "\n")


def _read_json(path: Path) -> dict:
    return ds.read_json_object(path, "; run the producing stage first")


# --- synth ---


def cmd_synth(cfg: PipelineConfig) -> dict:
    paths = paths_for(cfg)
    report = synth_generate(paths.raw, cfg.synth, cfg.window.length_samples)
    report["stage"] = "synth"
    report["out"] = str(paths.raw)
    return report


# --- preprocess ---


def _check_layout(sidecar: Path, rec, first) -> None:
    """Every subject must share the first subject's sample rate and channel names."""
    if rec.sample_rate_hz != first.sample_rate_hz:
        raise LayoutMismatch(
            f"{sidecar}: sample_rate_hz {rec.sample_rate_hz} differs from "
            f"{first.subject_id}'s {first.sample_rate_hz}"
        )
    for idx, (name, want) in enumerate(zip_longest(rec.channel_names, first.channel_names)):
        if name != want:
            raise LayoutMismatch(
                f"{sidecar}: channel {idx} is {name!r}, {first.subject_id}'s is {want!r}"
            )


def cmd_preprocess(cfg: PipelineConfig) -> dict:
    paths = paths_for(cfg)
    if not paths.raw.exists():
        raise MissingFile(f"{paths.raw} does not exist; run synth or point workdir at a dataset")
    subject_dirs = sorted(p for p in paths.raw.iterdir() if p.is_dir())
    if not subject_dirs:
        raise MissingFile(f"{paths.raw} contains no subject directories")

    table: dict[str, int] = {}
    windows: list[ds.LabeledWindow] = []
    n_events = 0
    first = None
    for subject_dir in subject_dirs:
        rec, events = ds.load_recording(subject_dir)
        if first is None:
            first = rec
            realization = design_filter(cfg.filter.spec(rec.sample_rate_hz))
        else:
            _check_layout(subject_dir / "eeg.json", rec, first)
        try:
            filtered = filter_array(realization, rec.data)
        except RecordingTooShort as exc:
            raise RecordingTooShort(f"{subject_dir}: {exc}") from exc
        cleaned = replace(rec, data=zscore_array(filtered))
        windows.extend(ds.extract_windows(cleaned, events, table, cfg.window))
        n_events += len(events)

    splits = ds.split_windows(windows, cfg.split)
    split_of = {w.window_id: name for name, ws in splits.items() for w in ws}

    paths.windows.mkdir(parents=True, exist_ok=True)
    records = []
    for w in sorted(windows, key=lambda w: w.window_id):
        fname = f"{w.window_id}.f32"
        ds.write_window_file(paths.windows / fname, w.data)
        records.append(
            {
                "id": w.window_id,
                "file": fname,
                "subject_id": w.subject_id,
                "categorical": w.label.categorical,
                "binary": None if w.label.binary is None else w.label.binary.value,
                "emotion": w.emotion,
                "rating": w.rating,
                "split": split_of[w.window_id],
            }
        )
    manifest = {
        "sample_rate_hz": first.sample_rate_hz,
        "window_len": cfg.window.length_samples,
        "channel_names": first.channel_names,
        "rating_dimension": cfg.window.rating_dimension,
        "thresholds": list(cfg.window.thresholds),
        "emotion_table": table,
        "skipped_events": n_events - len(windows),
        "windows": records,
        "split_order": {name: [w.window_id for w in ws] for name, ws in splits.items()},
    }
    ds.write_json_object(paths.windows / "windows.json", manifest)
    class_counts: dict[str, int] = {}
    for r in records:
        class_counts[r["emotion"]] = class_counts.get(r["emotion"], 0) + 1
    return {
        "stage": "preprocess",
        "n_subjects": len(subject_dirs),
        "n_events": n_events,
        "n_windows": len(records),
        "skipped_events": n_events - len(windows),
        "split_counts": {name: len(ws) for name, ws in splits.items()},
        "class_counts": class_counts,
        "out": str(paths.windows),
    }


# --- augment ---


def _load_windows(dir_path: Path) -> tuple[dict, dict[str, np.ndarray]]:
    manifest = _read_json(dir_path / "windows.json")
    n_channels = len(manifest["channel_names"])
    window_len = manifest["window_len"]
    data = {}
    for record in manifest["windows"]:
        data[record["id"]] = ds.read_window_file(
            dir_path / record["file"], n_channels, window_len
        )
    return manifest, data


def cmd_augment(cfg: PipelineConfig) -> dict:
    paths = paths_for(cfg)
    manifest, data = _load_windows(paths.windows)
    paths.windows_noisy.mkdir(parents=True, exist_ok=True)
    # Per-window seeds spawned from noise.seed are independent across windows
    # and across noise seeds; arithmetic like seed ^ idx is not (202^1 == 203^0).
    seeds = np.random.SeedSequence(cfg.noise.seed).generate_state(len(manifest["windows"]))
    for record, seed in zip(manifest["windows"], seeds):
        noisy = add_gaussian_noise(data[record["id"]], replace(cfg.noise, seed=int(seed)))
        ds.write_window_file(paths.windows_noisy / record["file"], noisy)
    manifest = dict(manifest)
    manifest["noise"] = asdict(cfg.noise)
    ds.write_json_object(paths.windows_noisy / "windows.json", manifest)
    return {
        "stage": "augment",
        "n_windows": len(manifest["windows"]),
        "max_magnitude": cfg.noise.max_magnitude,
        "out": str(paths.windows_noisy),
    }


# --- entropy ---


def _profile_json(profile: EntropyProfile) -> dict:
    return {
        "scales": [{"tau": tau, "sampen": value} for tau, value in profile.per_scale],
        "ci": profile.complexity_index,
    }


def cmd_entropy(cfg: PipelineConfig) -> dict:
    paths = paths_for(cfg)
    manifest = _read_json(paths.windows / "windows.json")
    params = cfg.entropy
    names = manifest["channel_names"]
    records = sorted(manifest["windows"], key=lambda r: r["id"])[: params.n_windows]
    windows_out = []
    deltas = []
    for record in records:
        clean, noisy = (
            ds.read_window_file(d / record["file"], len(names), manifest["window_len"])
            for d in (paths.windows, paths.windows_noisy)
        )
        channels = []
        for shift in complexity_shift_report(clean, noisy, params, names):
            deltas.append(shift.delta)
            channels.append(
                {
                    "channel": shift.channel,
                    "clean": _profile_json(shift.profile_clean),
                    "noisy": _profile_json(shift.profile_noisy),
                    "delta": shift.delta,
                }
            )
        windows_out.append({"window_id": record["id"], "channels": channels})
    report = {
        "params": {"m": params.m, "r_factor": params.r_factor, "max_scale": params.max_scale},
        "windows": windows_out,
        "summary": {
            "n_channels": len(deltas),
            "n_delta_positive": int(sum(1 for d in deltas if d > 0)),
            "mean_delta": float(np.mean(deltas)),
        },
    }
    paths.reports.mkdir(parents=True, exist_ok=True)
    ds.write_json_object(paths.reports / "entropy.json", report)
    return {
        "stage": "entropy",
        "n_windows": len(records),
        **report["summary"],
        "out": str(paths.reports / "entropy.json"),
    }


# --- featurize ---


def _task_label(record: dict, task: str) -> int | None:
    """Class index of a feature record for task, None if it has no label there."""
    if record["task"] not in ("both", task) or record[task] is None:
        return None
    if task == "categorical":
        return int(record["categorical"])
    return ds.BINARY_CLASS_NAMES.index(record["binary"])


def _write_smote_records(
    features_dir: Path,
    matrices: dict[str, np.ndarray],
    labeled: list[tuple[str, int]],
    task: str,
    id_prefix: str,
    spec: ds.SmoteSpec,
) -> list[dict]:
    """Balance the (window id, class index) train pairs of one task with SMOTE.

    Writes each synthetic matrix as a feature file and returns its manifest
    records, numbered in the order smote_resample emits them.
    """
    if not labeled:
        return []
    shape = matrices[labeled[0][0]].shape
    vectors = np.stack([matrices[wid].ravel() for wid, _ in labeled])
    labels = np.array([label for _, label in labeled])
    out_x, out_y, synthetic = ds.smote_resample(vectors, labels, spec)
    records = []
    for n, i in enumerate(np.flatnonzero(synthetic)):
        sid = f"{id_prefix}{n:04d}"
        label = int(out_y[i])
        write_feature_file(features_dir / f"{sid}.eegf", out_x[i].reshape(shape), label)
        records.append(
            {
                "id": sid,
                "file": f"{sid}.eegf",
                "window_id": None,
                "split": "train",
                "synthetic": True,
                "task": task,
                "categorical": label if task == "categorical" else None,
                "binary": ds.BINARY_CLASS_NAMES[label] if task == "binary" else None,
            }
        )
    return records


def cmd_featurize(cfg: PipelineConfig) -> dict:
    paths = paths_for(cfg)
    source = cfg.featurize.source
    src_dir = paths.windows if source == "clean" else paths.windows_noisy
    manifest, data = _load_windows(src_dir)
    fs_hz = manifest["sample_rate_hz"]

    paths.features.mkdir(parents=True, exist_ok=True)
    records = []
    matrices: dict[str, np.ndarray] = {}
    bin_freqs = None
    for record in manifest["windows"]:
        values, freqs = psd_feature_values(data[record["id"]], fs_hz, cfg.psd)
        if bin_freqs is None:
            bin_freqs = freqs
        matrices[record["id"]] = values
        fname = f"{record['id']}.eegf"
        write_feature_file(paths.features / fname, values, record["categorical"])
        records.append(
            {
                "id": record["id"],
                "file": fname,
                "window_id": record["id"],
                "split": record["split"],
                "synthetic": False,
                "task": "both",
                "categorical": record["categorical"],
                "binary": record["binary"],
            }
        )

    n_channels, n_bins = next(iter(matrices.values())).shape
    train_ids = manifest["split_order"]["train"]
    by_id = {r["id"]: r for r in records}
    n_synth = {}
    # Categorical balancing over all train windows, binary balancing over the
    # train windows that carry a polarity.
    for task, id_prefix, spec in (
        ("categorical", "smote-cat-", cfg.smote),
        ("binary", "smote-bin-", replace(cfg.smote, seed=cfg.smote.seed + 1)),
    ):
        labeled = [
            (wid, label)
            for wid in train_ids
            if (label := _task_label(by_id[wid], task)) is not None
        ]
        synthetic = _write_smote_records(paths.features, matrices, labeled, task, id_prefix, spec)
        records.extend(synthetic)
        n_synth[task] = len(synthetic)

    feature_manifest = {
        "source": source,
        "fs_hz": fs_hz,
        "n_channels": n_channels,
        "n_bins": n_bins,
        "bin_freqs_hz": [float(f) for f in bin_freqs],
        "emotion_table": manifest["emotion_table"],
        "train_order": train_ids,
        "records": records,
    }
    ds.write_json_object(paths.features / "manifest.json", feature_manifest)
    return {
        "stage": "featurize",
        "source": source,
        "n_real": len(matrices),
        "n_synthetic": n_synth,
        "matrix_shape": [n_channels, n_bins],
        "out": str(paths.features),
    }


# --- train ---


def _task_items(features_dir: Path, manifest: dict, task: str):
    """Per split, the (feature file path, class index) pairs of one task, in train order."""
    n_classes = len(manifest["emotion_table"]) if task == "categorical" else 2
    by_split: dict[str, list] = {"train": [], "val": [], "test": []}
    id_order = {rid: pos for pos, rid in enumerate(manifest["train_order"])}
    records = sorted(
        manifest["records"],
        key=lambda r: (id_order.get(r["id"], len(id_order)), r["id"]),
    )
    for record in records:
        label = _task_label(record, task)
        if label is not None:
            by_split[record["split"]].append((features_dir / record["file"], label))
    return by_split, n_classes


def _as_batches(items, n_classes: int, batch_size: int, rng: np.random.Generator | None):
    """Read the feature files of (path, label) items into (x, onehot) batches."""
    if rng is not None and len(items) > 1:
        items = [items[i] for i in rng.permutation(len(items))]
    batches = []
    for chunk in ds.make_batches(items, batch_size):
        x = np.stack([read_feature_file(path)[0] for path, _ in chunk])
        y = np.zeros((len(chunk), n_classes))
        for row, (_, label) in enumerate(chunk):
            y[row, label] = 1.0
        batches.append((x, y))
    return batches


TASKS = {
    "task1": ("binary", "task1_binary"),
    "task2": ("categorical", "task2_categorical"),
}


def cmd_train(cfg: PipelineConfig) -> dict:
    paths = paths_for(cfg)
    manifest = _read_json(paths.features / "manifest.json")
    paths.model.mkdir(parents=True, exist_ok=True)
    report: dict = {"stage": "train"}
    for task_key, (task, stem) in TASKS.items():
        by_split, n_classes = _task_items(paths.features, manifest, task)
        if not by_split["train"] or not by_split["val"]:
            raise EmptyEvaluationSet(f"{task}: empty train or val split")
        rng = np.random.default_rng(cfg.train.seed + (0 if task == "binary" else 1))
        train_batches = _as_batches(by_split["train"], n_classes, cfg.split.batch_size, rng)
        val_batches = _as_batches(by_split["val"], n_classes, cfg.split.batch_size, None)
        cnn_cfg = CnnConfig(
            input_channels=manifest["n_channels"],
            input_bins=manifest["n_bins"],
            blocks=cfg.model.resolve_blocks(),
            n_classes=n_classes,
            seed=cfg.model.seed + (0 if task == "binary" else 1),
        )
        result = train(cnn_cfg, cfg.train, train_batches, val_batches)
        if task == "binary":
            class_names = list(ds.BINARY_CLASS_NAMES)
        else:
            table = manifest["emotion_table"]
            class_names = [name for name, _ in sorted(table.items(), key=lambda kv: kv[1])]
        save_checkpoint(
            paths.model / f"{stem}.ckpt",
            cnn_cfg,
            result.params,
            meta={"task": task, "class_names": class_names, "source": manifest["source"]},
        )
        _write_jsonl(paths.model / f"{stem}_log.jsonl", map(asdict, result.epoch_log))
        report[task_key] = {
            "task": task,
            "epochs_run": result.stopped_epoch,
            "best_epoch": result.best_epoch,
            "best_val_loss": min(r.val_loss for r in result.epoch_log),
            "final_val_acc": result.epoch_log[-1].val_acc,
            "checkpoint": str(paths.model / f"{stem}.ckpt"),
        }
    report["out"] = str(paths.model)
    return report


# --- eval ---


def cmd_eval(cfg: PipelineConfig) -> dict:
    paths = paths_for(cfg)
    manifest = _read_json(paths.features / "manifest.json")
    metrics: dict = {}
    times = []
    for task_key, (task, stem) in TASKS.items():
        ckpt_path = paths.model / f"{stem}.ckpt"
        if not ckpt_path.exists():
            raise MissingFile(f"{ckpt_path} does not exist; run train first")
        cnn_cfg, params, _meta = load_checkpoint(ckpt_path)
        by_split, n_classes = _task_items(paths.features, manifest, task)
        if n_classes != cnn_cfg.n_classes:
            raise ShapeMismatch(
                f"{task}: checkpoint has {cnn_cfg.n_classes} classes, data has {n_classes}"
            )
        test_batches = _as_batches(by_split["test"], n_classes, cfg.split.batch_size, None)
        loss, accuracy, ms_per_batch = evaluate(params, cnn_cfg, test_batches)
        times.append(ms_per_batch)
        metrics[task_key] = {f"{task}_loss": loss, f"{task}_accuracy": accuracy}
    metrics["time_per_batch_ms"] = float(np.mean(times))
    paths.reports.mkdir(parents=True, exist_ok=True)
    ds.write_json_object(paths.reports / "metrics.json", metrics)
    return {"stage": "eval", **metrics, "out": str(paths.reports / "metrics.json")}


# --- stream ---


def cmd_stream(cfg: PipelineConfig) -> dict:
    paths = paths_for(cfg)
    ckpt_path = paths.model / "task1_binary.ckpt"
    if not ckpt_path.exists():
        raise MissingFile(f"{ckpt_path} does not exist; run train first")
    cnn_cfg, params, meta = load_checkpoint(ckpt_path)
    subject_dir = paths.raw / cfg.stream.source_subject
    rec, _events = ds.load_recording(subject_dir)
    realization = design_filter(cfg.filter.spec(rec.sample_rate_hz))
    spec = cfg.stream.spec(cfg.window.length_samples)
    result = stream_classify(
        rec,
        realization,
        cfg.psd,
        params,
        cnn_cfg,
        tuple(meta.get("class_names", ds.BINARY_CLASS_NAMES)),
        spec,
    )
    paths.reports.mkdir(parents=True, exist_ok=True)
    _write_jsonl(
        paths.reports / "interventions.jsonl",
        (
            {
                "t_s": ev.timestamp_s,
                "window_id": ev.window_index,
                "class": ev.detected_class,
                "confidence": ev.confidence,
                "strategy": ev.strategy,
            }
            for ev in result.events
        ),
    )
    budget_ms = spec.hop_samples / rec.sample_rate_hz * 1e3
    ds.write_json_object(
        paths.reports / "stream_timing.json",
        {
            "mean_proc_ms": result.mean_proc_ms,
            "budget_ms": budget_ms,
            "n_windows": len(result.decisions),
            "realtime_ok": result.mean_proc_ms < budget_ms,
        },
    )
    return {
        "stage": "stream",
        "subject": cfg.stream.source_subject,
        "n_windows": len(result.decisions),
        "n_events": len(result.events),
        "mean_proc_ms": result.mean_proc_ms,
        "budget_ms": budget_ms,
        "out": str(paths.reports / "interventions.jsonl"),
    }
