"""Stage implementations behind the CLI.

STAGES lists the stages in pipeline order with the workdir paths each one
reads and writes (see _stage); a stage reads only artifacts of earlier stages
plus the config. A body opens the paths the runner checked and builds none,
with two exceptions that are not among STAGES' reads. entropy requires
windows_noisy/windows.json only after its ScaleTooLarge check, so a scale too
large for the windows is named even before augment has run; stream requires
raw/<stream.source_subject>/, a path that the config names, so that a missing
subject names that key. A stage's writes are the files it commits last, and
the runner deletes them before the body runs, so a run that fails part way
leaves none for a later stage.
Every artifact is written through dataset.write_artifact, which rewrites an
existing file in place rather than truncating it. A rerun that dies part way
can therefore leave window or feature files half rewritten, and this
delete-first, manifest-last protocol is what keeps a later stage from
reading them: their manifest, checkpoint or report is gone until the stage
that writes them completes.

Stages are pure functions of (inputs, config): re-running one with the same
seeds rewrites byte-identical artifacts, except stream_timing.json, which
holds the stream's wall-clock window times.

The dataset module reads and checks both manifests and writes JSON objects and float32
payloads, _write_jsonl writes JSONL logs; the emotion table maps each name to its id.
"""

from __future__ import annotations

import functools
import json
import os
from collections import Counter
from collections.abc import Callable
from dataclasses import asdict, replace
from itertools import zip_longest
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import dataset as ds
from .checkpoint import load_checkpoint, save_checkpoint
from .config import PipelineConfig
from .entropy import EntropyProfile, add_gaussian_noise, complexity_shift_report
from .errors import (
    ClassTooSmall,
    EmptyEvaluationSet,
    InvalidFormat,
    LayoutMismatch,
    MissingFile,
    RecordingTooShort,
    ScaleTooLarge,
    StaleArtifact,
)
from .features import kept_bins, psd_feature_values, read_feature_file, write_feature_file
from .nn import CnnConfig
from .signals import design_filter, filter_array, zscore_array
from .stream import stream_classify
from .synth import synth_generate
from .training import evaluate, train

# preprocess filters and scores a recording in blocks of rows of at most this many
# float64 bytes; each row is filtered and scored alone, so blocks keep the bits
_ROW_BLOCK_BYTES = 2 << 20


def _write_jsonl(path: Path, rows) -> None:
    """One JSON object per line, keys sorted."""
    ds.write_artifact(path, "".join(json.dumps(r, sort_keys=True) + "\n" for r in rows).encode())


class Stage(NamedTuple):
    """A stage's runner and workdir paths ("x/" is a directory; a read may be a function of cfg)."""

    run: Callable[[PipelineConfig], dict]
    reads: tuple
    writes: tuple[str, ...]


STAGES: dict[str, Stage] = {}


def _require(cfg: PipelineConfig, rel: str, hint: str = "") -> Path:
    """The workdir path rel; MissingFile, saying hint or which stage writes rel, if it is absent."""
    path = Path(cfg.workdir) / rel
    if not path.exists():
        if not hint:
            producer = next(n for n, s in STAGES.items() if rel in s.writes)
            hint = f"run the {producer} stage first"
            if not STAGES[producer].reads:  # a source stage: a dataset can stand in
                hint += " or point workdir at a dataset"
        raise MissingFile(f"{path} does not exist; {hint}")
    return path


def _stage(reads: tuple = (), *, writes: tuple[str, ...]):
    """Register cmd_<name>(cfg, *reads, *writes) in STAGES as cmd_<name>(cfg), which checks
    the reads, deletes the files among the writes, hands the body the workdir path of each
    read and write in declared order and adds "stage" and "out" (writes[0]) to the report."""

    def register(body):
        name = body.__name__.removeprefix("cmd_")

        @functools.wraps(body)
        def run(cfg: PipelineConfig) -> dict:
            inputs = [_require(cfg, rel(cfg) if callable(rel) else rel) for rel in reads]
            outputs = [Path(cfg.workdir) / rel for rel in writes]
            for rel, path in zip(writes, outputs):
                path.parent.mkdir(parents=True, exist_ok=True)
                if not rel.endswith("/"):
                    path.unlink(missing_ok=True)
            return {"stage": name, **body(cfg, *inputs, *outputs), "out": str(outputs[0])}

        STAGES[name] = Stage(run, reads, writes)
        return run

    return register


# --- synth ---


@_stage(writes=("raw/",))
def cmd_synth(cfg: PipelineConfig, raw: Path) -> dict:
    return synth_generate(raw, cfg.synth, cfg.window.length_samples)


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


@_stage(("raw/",), writes=("windows/windows.json",))
def cmd_preprocess(cfg: PipelineConfig, raw: Path, manifest_path: Path) -> dict:
    subject_dirs = sorted(p for p in raw.iterdir() if p.is_dir())
    if not subject_dirs:
        raise MissingFile(f"{raw} contains no subject directories")

    table: dict[str, int] = {}
    records: list[dict] = []  # each window's manifest record; its data is on disk
    n_events = 0
    first = None
    sidecars: dict[str, Path] = {}  # by subject id, which prefixes each window id
    folder = os.fspath(manifest_path.parent)
    for subject_dir in subject_dirs:
        rec, events = ds.load_recording(subject_dir)
        sidecar = subject_dir / "eeg.json"
        if (other := sidecars.setdefault(rec.subject_id, sidecar)) != sidecar:
            raise InvalidFormat(f"{sidecar}: subject_id {rec.subject_id!r} is {other}'s too")
        if first is None:
            first = replace(rec, data=np.empty((rec.n_channels, 0)))  # its layout only
            realization = design_filter(cfg.filter.spec(rec.sample_rate_hz))
        else:
            _check_layout(sidecar, rec, first)
        rows = max(1, _ROW_BLOCK_BYTES // (8 * max(rec.n_samples, 1)))
        try:
            for block in np.split(rec.data, range(rows, rec.n_channels, rows)):
                block[...] = zscore_array(filter_array(realization, block))
        except RecordingTooShort as exc:
            raise RecordingTooShort(f"{subject_dir}: {exc}") from exc
        for record, data in ds.extract_windows(rec, events, table, cfg.window):
            ds.write_window_file(f"{folder}/{record['file']}", data)
            records.append(record)
        n_events += len(events)
    if not records:
        raise RecordingTooShort(f"{raw}: none of its {n_events} events has window.length_samples="
                                f"{cfg.window.length_samples} samples of recording from its onset")

    splits = ds.split_windows(records, cfg.split)
    for name, split in splits.items():
        for record in split:
            record["split"] = name
    records.sort(key=lambda r: r["id"])
    manifest = {
        "sample_rate_hz": first.sample_rate_hz,
        "window_len": cfg.window.length_samples,
        "channel_names": first.channel_names,
        "rating_dimension": cfg.window.rating_dimension,
        "thresholds": list(cfg.window.thresholds),
        "emotion_table": table,
        "skipped_events": n_events - len(records),
        "windows": records,
        "split_order": {name: [r["id"] for r in split] for name, split in splits.items()},
    }
    ds.write_json_object(manifest_path, manifest)
    return {
        "n_subjects": len(subject_dirs),
        "n_events": n_events,
        "n_windows": len(records),
        "skipped_events": n_events - len(records),
        "split_counts": {name: len(ws) for name, ws in splits.items()},
        "class_counts": dict(Counter(r["emotion"] for r in records)),
    }


# --- augment ---


def _window_source(manifest_path: Path, manifest: dict | None = None) -> tuple[dict, Callable]:
    """The window manifest at manifest_path, and a reader of one record's window there;
    a given manifest stands in for the file, whose windows have its shape."""
    manifest = ds.read_window_manifest(manifest_path) if manifest is None else manifest
    shape = (len(manifest["channel_names"]), manifest["window_len"])
    folder = os.fspath(manifest_path.parent)
    return manifest, lambda r: ds.read_window_file(f"{folder}/{r['file']}", *shape)


@_stage(("windows/windows.json",), writes=("windows_noisy/windows.json",))
def cmd_augment(cfg: PipelineConfig, clean_path: Path, noisy_path: Path) -> dict:
    manifest, read = _window_source(clean_path)
    # Per-window seeds spawned from noise.seed are independent across windows
    # and across noise seeds; arithmetic like seed ^ idx is not (202^1 == 203^0).
    seeds = np.random.SeedSequence(cfg.noise.seed).generate_state(len(manifest["windows"]))
    folder = os.fspath(noisy_path.parent)
    for record, seed in zip(manifest["windows"], seeds):
        noisy = add_gaussian_noise(read(record), replace(cfg.noise, seed=int(seed)))
        ds.write_window_file(f"{folder}/{record['file']}", noisy)
    manifest["noise"] = asdict(cfg.noise)
    ds.write_json_object(noisy_path, manifest)
    return {"n_windows": len(manifest["windows"]), "max_magnitude": cfg.noise.max_magnitude}


# --- entropy ---


def _profile_json(profile: EntropyProfile) -> dict:
    return {
        "scales": [{"tau": tau, "sampen": value} for tau, value in profile.per_scale],
        "ci": profile.complexity_index,
    }


@_stage(("windows/windows.json",), writes=("reports/entropy.json",))
def cmd_entropy(cfg: PipelineConfig, clean_path: Path, report_path: Path) -> dict:
    manifest, read_clean = _window_source(clean_path)
    params = cfg.entropy
    window_len = manifest["window_len"]
    if window_len // params.max_scale < params.m + 2:
        raise ScaleTooLarge(
            f"entropy.max_scale {params.max_scale} coarse-grains the {window_len}-sample windows "
            f"of {clean_path} to {window_len // params.max_scale} samples; "
            f"entropy.m {params.m} needs at least {params.m + 2}"
        )
    # augment copies the clean manifest's shape, so its manifest need not be parsed
    _, read_noisy = _window_source(_require(cfg, "windows_noisy/windows.json"), manifest)
    records = sorted(manifest["windows"], key=lambda r: r["id"])[: params.n_windows]
    windows_out = []
    deltas = []
    for record in records:
        channels = []
        for shift in complexity_shift_report(
            read_clean(record), read_noisy(record), params, manifest["channel_names"]
        ):
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
    ds.write_json_object(report_path, report)
    return {"n_windows": len(records), **report["summary"]}


# --- featurize ---


def _task_label(record: dict, task: str) -> int | None:
    """Class index of a feature record for task, None if it has no label there."""
    if record["task"] not in ("both", task) or record[task] is None:
        return None
    return record[task] if task == "categorical" else ds.BINARY_CLASS_NAMES.index(record[task])


def _class_names(table: dict[str, int], task: str) -> list[str]:
    """A task's class names in class index order."""
    return list(ds.BINARY_CLASS_NAMES) if task == "binary" else sorted(table, key=table.get)


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


def _featurize_input(cfg: PipelineConfig) -> str:
    """The manifest featurize reads: preprocess's windows or augment's noisy copies."""
    return ("windows/" if cfg.featurize.source == "clean" else "windows_noisy/") + "windows.json"


@_stage((_featurize_input,), writes=("features/manifest.json",))
def cmd_featurize(cfg: PipelineConfig, windows_path: Path, features_path: Path) -> dict:
    source = cfg.featurize.source
    manifest, read = _window_source(windows_path)
    features_dir = features_path.parent
    fs_hz = manifest["sample_rate_hz"]

    records = []
    matrices: dict[str, np.ndarray] = {}  # the train windows', which SMOTE interpolates
    for record in manifest["windows"]:
        values, bin_freqs = psd_feature_values(read(record), fs_hz, cfg.psd)
        if record["split"] == "train":
            matrices[record["id"]] = values
        fname = f"{record['id']}.eegf"
        write_feature_file(features_dir / fname, values, record["categorical"])
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

    n_channels, n_bins = values.shape
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
        try:
            synthetic = _write_smote_records(features_dir, matrices, labeled, task, id_prefix, spec)
        except ClassTooSmall as exc:
            name = _class_names(manifest["emotion_table"], task)[exc.label]
            raise ClassTooSmall(
                f"{task} task: train class {name!r} has {[c for _, c in labeled].count(exc.label)} "
                f"windows; smote.k_neighbors={spec.k_neighbors} needs more than that"
            ) from None
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
    ds.write_json_object(features_path, feature_manifest)
    return {
        "source": source,
        "n_real": len(manifest["windows"]),
        "n_synthetic": n_synth,
        "matrix_shape": [n_channels, n_bins],
    }


# --- train ---


def _task_items(manifest_path: Path, manifest: dict, task: str):
    """Per split, the (feature file path, class index) pairs of one task, in train
    order; and the task's class names, in class index order."""
    names = _class_names(manifest["emotion_table"], task)
    by_split: dict[str, list] = {"train": [], "val": [], "test": []}
    id_order = {rid: pos for pos, rid in enumerate(manifest["train_order"])}
    records = sorted(
        manifest["records"],
        key=lambda r: (id_order.get(r["id"], len(id_order)), r["id"]),
    )
    for record in records:
        label = _task_label(record, task)
        if label is not None:
            by_split[record["split"]].append((manifest_path.parent / record["file"], label))
    return by_split, names


def _feature_source(manifest_path: Path) -> tuple[dict, Callable]:
    """The feature manifest at manifest_path, and a reader that reads each feature file once
    and keeps its values as the float32 they are; a float64 network casts them back exactly."""
    manifest = ds.read_feature_manifest(manifest_path)
    shape = (manifest["n_channels"], manifest["n_bins"])
    return manifest, functools.cache(
        lambda path: read_feature_file(path, shape, manifest_path)[0].astype(np.float32))


def _as_batches(items, read: Callable, n_classes: int, batch_size: int, rng):
    """Read the feature files of (path, label) items into (x, onehot) batches."""
    if rng is not None and len(items) > 1:
        items = [items[i] for i in rng.permutation(len(items))]
    batches = []
    for chunk in ds.make_batches(items, batch_size):
        x = np.stack([read(path) for path, _ in chunk])
        batches.append((x, np.eye(n_classes)[[label for _, label in chunk]]))
    return batches


TASKS = {
    "task1": ("binary", "task1_binary"),
    "task2": ("categorical", "task2_categorical"),
}


@_stage(
    ("features/manifest.json",),
    writes=(*(f"model/{stem}.ckpt" for _, stem in TASKS.values()),
            *(f"model/{stem}_log.jsonl" for _, stem in TASKS.values())),
)
def cmd_train(
    cfg: PipelineConfig, manifest_path: Path, ckpt1: Path, ckpt2: Path, log1: Path, log2: Path
) -> dict:
    manifest, read = _feature_source(manifest_path)
    report = {}
    for offset, (task_key, (task, _)) in enumerate(TASKS.items()):
        ckpt, log = (ckpt1, ckpt2)[offset], (log1, log2)[offset]
        by_split, class_names = _task_items(manifest_path, manifest, task)
        if not by_split["train"] or not by_split["val"]:
            raise EmptyEvaluationSet(f"{task}: empty train or val split")
        n_classes = len(class_names)
        rng = np.random.default_rng(cfg.train.seed + offset)
        train_batches = _as_batches(by_split["train"], read, n_classes, cfg.split.batch_size, rng)
        val_batches = _as_batches(by_split["val"], read, n_classes, cfg.split.batch_size, None)
        cnn_cfg = CnnConfig(
            input_channels=manifest["n_channels"],
            input_bins=manifest["n_bins"],
            blocks=cfg.model.resolve_blocks(),
            n_classes=n_classes,
            seed=cfg.model.seed + offset,
        )
        result = train(cnn_cfg, cfg.train, train_batches, val_batches)
        save_checkpoint(
            ckpt,
            cnn_cfg,
            result.params,
            meta={"task": task, "class_names": class_names, "source": manifest["source"]},
        )
        _write_jsonl(log, map(asdict, result.epoch_log))
        report[task_key] = {
            "task": task,
            "epochs_run": result.stopped_epoch,
            "best_epoch": result.best_epoch,
            "best_val_loss": min(r.val_loss for r in result.epoch_log),
            "final_val_acc": result.epoch_log[-1].val_acc,
            "checkpoint": str(ckpt),
        }
    return report


# --- eval ---


@_stage(
    ("features/manifest.json", *(f"model/{stem}.ckpt" for _, stem in TASKS.values())),
    writes=("reports/metrics.json",),
)
def cmd_eval(
    cfg: PipelineConfig, manifest_path: Path, ckpt1: Path, ckpt2: Path, metrics_path: Path
) -> dict:
    manifest, read = _feature_source(manifest_path)
    metrics: dict = {}
    for (task_key, (task, _)), ckpt in zip(TASKS.items(), (ckpt1, ckpt2)):
        cnn_cfg, params, meta = load_checkpoint(ckpt)
        by_split, class_names = _task_items(manifest_path, manifest, task)
        n_classes = len(class_names)
        data = (manifest["n_channels"], manifest["n_bins"], n_classes)
        model = (cnn_cfg.input_channels, cnn_cfg.input_bins, cnn_cfg.n_classes)
        if data != model:
            raise StaleArtifact(
                f"{ckpt} takes (channels, bins, classes) {model}, but {manifest_path} "
                f"holds {data}; run the train stage again"
            )
        if meta.get("class_names") != class_names:
            raise StaleArtifact(
                f"{ckpt} orders its classes {meta.get('class_names')}, but {manifest_path} "
                f"orders them {class_names}; run the train stage again"
            )
        test_batches = _as_batches(by_split["test"], read, n_classes, cfg.split.batch_size, None)
        loss, accuracy = evaluate(params, cnn_cfg, test_batches)
        metrics[task_key] = {f"{task}_loss": loss, f"{task}_accuracy": accuracy}
    ds.write_json_object(metrics_path, metrics)
    return metrics


# --- stream ---


@_stage(
    (f"model/{TASKS['task1'][1]}.ckpt", "raw/"),
    writes=("reports/interventions.jsonl", "reports/stream_timing.json"),
)
def cmd_stream(
    cfg: PipelineConfig, ckpt: Path, raw: Path, events_path: Path, timing_path: Path
) -> dict:
    cnn_cfg, params, meta = load_checkpoint(ckpt)
    subject = cfg.stream.source_subject
    subject_dir = _require(
        cfg, f"raw/{subject}", f"stream.source_subject {subject!r} names no subject in {raw}"
    )
    rec, _events = ds.load_recording(subject_dir)
    data = (rec.n_channels, kept_bins(rec.sample_rate_hz, cfg.psd))
    model = (cnn_cfg.input_channels, cnn_cfg.input_bins)
    if data != model:
        raise StaleArtifact(
            f"{ckpt} takes (channels, bins) {model}, but {subject_dir} under the psd section "
            f"at {rec.sample_rate_hz} Hz gives {data}; run the featurize and train stages again"
        )
    realization = design_filter(cfg.filter.spec(rec.sample_rate_hz))
    spec = cfg.stream.spec(cfg.window.length_samples)
    class_names = tuple(meta.get("class_names", ds.BINARY_CLASS_NAMES))
    result = stream_classify(rec, realization, cfg.psd, params, cnn_cfg, class_names, spec)
    _write_jsonl(
        events_path,
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
    p50, p95 = np.percentile([d.proc_ms for d in result.decisions], [50, 95])
    ds.write_json_object(
        timing_path,
        {
            "mean_proc_ms": result.mean_proc_ms,
            "p50_proc_ms": float(p50),
            "p95_proc_ms": float(p95),
            "first_proc_ms": result.decisions[0].proc_ms,
            "budget_ms": budget_ms,
            "n_windows": len(result.decisions),
            "realtime_ok": result.mean_proc_ms < budget_ms,
        },
    )
    return {
        "subject": subject,
        "n_windows": len(result.decisions),
        "n_events": len(result.events),
        "mean_proc_ms": result.mean_proc_ms,
        "budget_ms": budget_ms,
    }
