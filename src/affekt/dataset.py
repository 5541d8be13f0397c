"""Local dataset handling: loading, windowing, labeling, balancing, splitting.

A dataset is a directory of subject subdirectories, each holding an eeg.json
sidecar (subject id, sampling rate, channel names, sample count), an eeg.f32
raw payload (channel-major little-endian float32), and an events.tsv table
with onset / duration / trial_type / valence / arousal / emotion columns.

A window is its manifest record from the moment it is cut: extract_windows pairs
each record (id, file, subject id, emotion, rating and both labels; preprocess adds
the split) with its data. An event has two labels: a categorical id from a
dataset-wide emotion table (a dict from name to id, ids in first-seen order), and a
binary polarity, a name from BINARY_CLASS_NAMES, from a rating dimension against
(low, high) thresholds. Ratings in the closed middle band have no polarity (None).

The writers of JSON objects, events tables and float32 payloads live here too,
beside their readers; eeg.f32 and the window files share one payload format.
The config, eeg.json and both manifests name their keys once, each with the kind
of value it holds; `_check_keys` refuses a missing key or one of another kind.
Files move as whole byte strings: each writer hands its bytes to `write_artifact`, which
rewrites a file in place without truncating it first; each reader parses `read_input`'s.
"""

from __future__ import annotations

import csv
import io
import json
import logging
import math
import os
from dataclasses import astuple, dataclass
from pathlib import Path

import numpy as np

from .errors import (
    ClassTooSmall,
    EmptyClass,
    InvalidFormat,
    MalformedEvent,
    MissingFile,
    NonFiniteSample,
    PayloadSizeMismatch,
    ShapeMismatch,
)
from .signals import Recording

log = logging.getLogger(__name__)

RATING_MIN = 1.0
RATING_MAX = 9.0
DEFAULT_WINDOW_LEN = 1500
EVENT_COLUMNS = ("onset", "duration", "trial_type", "valence", "arousal", "emotion")


# Fixed output order for the two-class head: index 0 detects the negative state.
BINARY_CLASS_NAMES = ("negative", "positive")


@dataclass(frozen=True)
class EmotionEvent:
    onset_s: float
    duration_s: float
    trial_type: str
    valence: float
    arousal: float
    emotion: str


def read_json_object(path: Path) -> dict:
    """Parse a UTF-8 file holding one JSON object; InvalidFormat names the file if it does not."""
    try:
        obj = json.loads(read_input(path).decode("utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise InvalidFormat(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise InvalidFormat(f"{path} must hold a JSON object")
    return obj


# The kinds of JSON value a key may hold, by the type that names each: a float key
# takes an int too, and true and false are neither. A tuple lists the values allowed.
_KINDS = {int: "an integer", float: "a number", str: "a string", list: "a list", dict: "an object"}
_MISSING = object()
_SIDECAR_KEYS = {"channel_names": list, "n_samples": int, "sample_rate_hz": float, "subject_id": str}


def _all_of_kind(values: list, kind) -> bool:
    types = set(map(type, values))
    if isinstance(kind, tuple):
        return types <= set(map(type, kind)) and set(values) <= set(kind)
    return types <= ({int, float} if kind is float else {kind})


def _int_at_least(value, least: int) -> bool:
    """The key tables' integer rule (never a bool) for a value built in Python, and >= least."""
    return _all_of_kind([value], int) and value >= least


def _check_keys(path, objs: list, keys: dict, where: str = "") -> None:
    """InvalidFormat naming path, where (formatted with the object's index) and the key unless
    each of objs holds each key of keys with a value of its kind; one pass per key."""
    if (i := next((i for i, obj in enumerate(objs) if type(obj) is not dict), -1)) >= 0:
        raise InvalidFormat(f"{path}: {where.format(i)}must be an object, got {objs[i]!r}")
    for key, kind in keys.items():
        values = [obj.get(key, _MISSING) for obj in objs]
        if not _all_of_kind(values, kind):
            i, value = next((i, v) for i, v in enumerate(values) if not _all_of_kind([v], kind))
            if value is _MISSING:
                raise InvalidFormat(f"{path}: {where.format(i)}missing key {key!r}")
            want = f"one of {list(kind)}" if isinstance(kind, tuple) else _KINDS[kind]
            raise InvalidFormat(f"{path}: {where.format(i)}{key} must be {want}, got {value!r}")


def read_input(path) -> bytes:
    """The bytes of the file at path, in one read; a missing path is MissingFile and a
    directory InvalidFormat, each naming the path. Every reader in the package reads here."""
    try:
        with open(path, "rb", buffering=0) as fh:
            return fh.readall()
    except FileNotFoundError:
        raise MissingFile(f"{path} does not exist") from None
    except IsADirectoryError:
        raise InvalidFormat(f"{path} is not a file") from None


def write_artifact(path, *parts) -> None:
    """Write the bytes-like parts to path in order from offset 0, without truncating it
    first, and cut the file where they end.

    An existing file ends with the bytes a truncating open would leave but keeps its
    blocks: rewriting 1,024 window files of 12 KB on ext4 took 0.02 s of CPU this way,
    0.07-0.12 s truncated and refilled. A new file gets open()'s permissions. A write
    that fails leaves the file part rewritten (see pipeline).
    """
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    try:
        for part in parts:
            view = memoryview(part).cast("B")
            while view:
                view = view[os.write(fd, view):]
        os.ftruncate(fd, os.lseek(fd, 0, os.SEEK_CUR))
    finally:
        os.close(fd)


def write_json_object(path: Path, obj: dict) -> None:
    """Write obj as indented JSON with sorted keys and a final newline."""
    write_artifact(path, (json.dumps(obj, indent=2, sort_keys=True) + "\n").encode("utf-8"))


def load_recording(subject_dir) -> tuple[Recording, list[EmotionEvent]]:
    """Read one subject directory into a Recording plus its event list."""
    subject_dir = Path(subject_dir)
    sidecar_path = subject_dir / "eeg.json"
    data_path = subject_dir / "eeg.f32"
    events_path = subject_dir / "events.tsv"

    sidecar = read_json_object(sidecar_path)
    _check_keys(sidecar_path, [sidecar], _SIDECAR_KEYS)
    names, n_samples, rate = sidecar["channel_names"], sidecar["n_samples"], sidecar["sample_rate_hz"]
    if n_samples < 0:
        raise InvalidFormat(f"{sidecar_path}: n_samples must be an integer >= 0, got {n_samples!r}")
    if not 0 < rate < math.inf:
        raise InvalidFormat(f"{sidecar_path}: sample_rate_hz must be finite and > 0, got {rate!r}")
    raw = f32_payload(read_input(data_path), data_path, (len(names), n_samples), "sidecar")
    bad = np.flatnonzero(~np.isfinite(raw))
    if bad.size:
        channel, sample = divmod(int(bad[0]), n_samples)
        raise NonFiniteSample(
            f"{data_path}: channel {names[channel]!r} sample {sample} is {raw[channel, sample]}"
        )
    return Recording(sidecar["subject_id"], float(rate), names, raw), _load_events(events_path)


def _load_events(events_path: Path) -> list[EmotionEvent]:
    try:
        text = read_input(events_path).decode("utf-8")
    except UnicodeDecodeError as exc:
        raise MalformedEvent(f"{events_path} is not UTF-8: {exc}") from None
    events = []
    reader = csv.DictReader(io.StringIO(text, newline=""), delimiter="\t")
    header = reader.fieldnames or []
    missing = [c for c in EVENT_COLUMNS if c not in header]
    if missing:
        raise MalformedEvent(f"{events_path}: header missing columns {missing}")
    for row_num, row in enumerate(reader, start=2):
        try:
            ev = EmotionEvent(
                onset_s=float(row["onset"]),
                duration_s=float(row["duration"]),
                trial_type=row["trial_type"],
                valence=float(row["valence"]),
                arousal=float(row["arousal"]),
                emotion=row["emotion"].strip(),
            )
        except (TypeError, ValueError, KeyError, AttributeError) as exc:
            raise MalformedEvent(f"{events_path} row {row_num}: {exc}") from exc
        if not (0 <= ev.onset_s < math.inf and 0 <= ev.duration_s < math.inf):
            raise MalformedEvent(
                f"{events_path} row {row_num}: onset and duration must be finite and >= 0"
            )
        for dim, value in (("valence", ev.valence), ("arousal", ev.arousal)):
            if not (RATING_MIN <= value <= RATING_MAX):
                raise MalformedEvent(
                    f"{events_path} row {row_num}: {dim}={value} outside "
                    f"[{RATING_MIN}, {RATING_MAX}]"
                )
        if not ev.emotion:
            raise MalformedEvent(f"{events_path} row {row_num}: empty emotion name")
        events.append(ev)
    return events


def write_events(path, events: list[EmotionEvent]) -> None:
    """Write an events table that _load_events reads back as the same events."""
    text = io.StringIO(newline="")
    writer = csv.writer(text, delimiter="\t", lineterminator="\n")
    writer.writerows([EVENT_COLUMNS, *map(astuple, events)])
    write_artifact(path, text.getvalue().encode("utf-8"))


@dataclass(frozen=True)
class WindowSpec:
    """Event windows: their length, and the rating rule behind the binary label, whose
    rating_dimension names the EmotionEvent field (the events.tsv column) it reads."""

    length_samples: int = DEFAULT_WINDOW_LEN
    thresholds: tuple = (4.0, 6.0)
    rating_dimension: str = "arousal"

    def __post_init__(self) -> None:
        length = self.length_samples
        if not _int_at_least(length, 1):
            raise InvalidFormat(f"length_samples must be an integer >= 1, got {length!r}")
        if len(self.thresholds) != 2 or not self.thresholds[0] <= self.thresholds[1]:
            raise MalformedEvent(
                f"thresholds must be (low, high) with low <= high, got {self.thresholds}"
            )
        if self.rating_dimension not in ("arousal", "valence"):
            raise MalformedEvent(
                f"rating_dimension must be arousal or valence, got {self.rating_dimension!r}"
            )


def label_from_ratings(
    event: EmotionEvent, table: dict[str, int], spec: WindowSpec = WindowSpec()
) -> tuple[int, str | None]:
    """The categorical id (the next id if the emotion is new) and the binary polarity of one
    rating dimension: BINARY_CLASS_NAMES[0] below the low threshold, [1] above the high one."""
    low, high = spec.thresholds
    rating = getattr(event, spec.rating_dimension)
    binary = (BINARY_CLASS_NAMES[0] if rating < low
              else BINARY_CLASS_NAMES[1] if rating > high else None)
    return table.setdefault(event.emotion, len(table)), binary


def extract_windows(
    rec: Recording,
    events: list[EmotionEvent],
    table: dict[str, int],
    spec: WindowSpec = WindowSpec(),
) -> list[tuple[dict, np.ndarray]]:
    """A (manifest record without its split, data) pair per event, the data a view of
    rec.data from the event's onset; events with too few samples left are skipped."""
    windows = []
    for idx, ev in enumerate(events):
        start = int(round(ev.onset_s * rec.sample_rate_hz))
        if start + spec.length_samples > rec.n_samples:
            continue
        categorical, binary = label_from_ratings(ev, table, spec)
        window_id = f"{rec.subject_id}-e{idx:03d}"
        record = {"id": window_id, "file": f"{window_id}.f32", "subject_id": rec.subject_id,
                  "categorical": categorical, "binary": binary, "emotion": ev.emotion,
                  "rating": getattr(ev, spec.rating_dimension)}
        windows.append((record, rec.data[:, start:start + spec.length_samples]))
    if skipped := len(events) - len(windows):
        log.warning(
            "%s: skipped %d of %d events with fewer than %d samples remaining",
            rec.subject_id, skipped, len(events), spec.length_samples,
        )
    return windows


# --- minority-class oversampling ---


@dataclass(frozen=True)
class SmoteSpec:
    k_neighbors: int = 5
    seed: int = 0

    def __post_init__(self) -> None:
        if self.k_neighbors < 1:
            raise ClassTooSmall(f"k_neighbors must be >= 1, got {self.k_neighbors}")


def smote_resample(
    features: np.ndarray, labels: np.ndarray, spec: SmoteSpec = SmoteSpec()
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Equalize class counts by interpolating between same-class neighbors.

    Every synthetic point is x_i + u * (x_nn - x_i) with u ~ U(0, 1) and x_nn
    one of the k nearest same-class neighbors of x_i (Euclidean). Originals
    are returned first and untouched. Returns (features, labels, synthetic)
    where synthetic is a boolean mask, False for every original row.
    """
    x = np.asarray(features, dtype=np.float64)
    y = np.asarray(labels)
    if x.ndim != 2 or x.shape[0] != y.shape[0]:
        raise ShapeMismatch(f"features {x.shape} vs labels {y.shape}")
    if x.shape[0] == 0:
        raise EmptyClass("cannot resample an empty feature set")
    classes, counts = np.unique(y, return_counts=True)
    target = int(counts.max())
    rng = np.random.default_rng(spec.seed)
    new_rows = []
    new_labels = []
    for cls, count in zip(classes, counts):
        deficit = target - int(count)
        if deficit == 0:
            continue
        if count <= spec.k_neighbors:
            raise ClassTooSmall(
                f"class {cls} has {count} members, needs more than "
                f"k_neighbors={spec.k_neighbors} to interpolate", cls
            )
        idx = np.flatnonzero(y == cls)
        pts = x[idx]
        # Squared Euclidean via the Gram matrix; avoids an (n, n, d) blow-up.
        sq = np.einsum("ij,ij->i", pts, pts)
        d2 = sq[:, None] + sq[None, :] - 2.0 * (pts @ pts.T)
        np.fill_diagonal(d2, np.inf)
        neighbor_ids = np.argsort(d2, axis=1, kind="stable")[:, : spec.k_neighbors]
        for _ in range(deficit):
            i = int(rng.integers(len(idx)))
            nn = int(neighbor_ids[i, int(rng.integers(spec.k_neighbors))])
            u = rng.random()
            new_rows.append(pts[i] + u * (pts[nn] - pts[i]))
            new_labels.append(cls)
    if not new_rows:
        return x.copy(), y.copy(), np.zeros(len(y), dtype=bool)
    out_x = np.vstack([x, np.array(new_rows)])
    out_y = np.concatenate([y, np.array(new_labels, dtype=y.dtype)])
    synthetic = np.zeros(len(out_y), dtype=bool)
    synthetic[len(y):] = True
    return out_x, out_y, synthetic


# --- splitting and batching ---


DEFAULT_BATCH_SIZE = 32
SPLIT_NAMES = ("train", "val", "test")


@dataclass(frozen=True)
class SplitSpec:
    """Train/val/test ratios, batch size, and whether windows or subjects are split."""

    ratios: tuple = (0.70, 0.15, 0.15)
    batch_size: int = DEFAULT_BATCH_SIZE
    seed: int = 0
    level: str = "window"

    def __post_init__(self) -> None:
        ratios = self.ratios
        if len(ratios) != 3 or any(r < 0 for r in ratios) or abs(sum(ratios) - 1.0) > 1e-9:
            raise EmptyClass(f"ratios must be three nonnegative values summing to 1, got {ratios}")
        if not _int_at_least(self.batch_size, 1):
            raise EmptyClass(f"batch_size must be an integer >= 1, got {self.batch_size!r}")
        if self.level not in ("window", "subject"):
            raise EmptyClass(f"level must be window or subject, got {self.level!r}")


def _allocate(n: int, ratios: tuple[float, float, float]) -> tuple[int, int, int]:
    n_train = int(round(ratios[0] * n))
    n_val = int(round(ratios[1] * n))
    n_test = n - n_train - n_val
    if n_test < 0:
        n_val += n_test
        n_test = 0
    return n_train, n_val, n_test


def split_windows(windows: list[dict], spec: SplitSpec = SplitSpec()) -> dict[str, list[dict]]:
    """Seeded train/val/test split of window records, stratified by their "categorical".

    level="subject" keeps each "subject_id"'s windows in a single split instead
    (coarser, no stratification guarantee).
    """
    if not windows:
        raise EmptyClass("no windows to split")
    rng = np.random.default_rng(spec.seed)
    out: dict[str, list[dict]] = {name: [] for name in SPLIT_NAMES}
    if spec.level == "subject":
        subjects = sorted({w["subject_id"] for w in windows})
        order = [subjects[i] for i in rng.permutation(len(subjects))]
        n_train, n_val, _ = _allocate(len(order), spec.ratios)
        assignment = {}
        for pos, subject in enumerate(order):
            assignment[subject] = (
                "train" if pos < n_train else "val" if pos < n_train + n_val else "test"
            )
        for w in windows:
            out[assignment[w["subject_id"]]].append(w)
    else:
        groups: dict[int, list[dict]] = {}
        for w in windows:
            groups.setdefault(w["categorical"], []).append(w)
        for cls in sorted(groups):
            ws = groups[cls]
            shuffled = [ws[i] for i in rng.permutation(len(ws))]
            n_train, n_val, _ = _allocate(len(ws), spec.ratios)
            out["train"].extend(shuffled[:n_train])
            out["val"].extend(shuffled[n_train:n_train + n_val])
            out["test"].extend(shuffled[n_train + n_val:])
    # Mix classes within each split so batches are not class-sorted.
    for name in SPLIT_NAMES:
        items = out[name]
        out[name] = [items[i] for i in rng.permutation(len(items))]
    return out


def make_batches(items: list, batch_size: int = DEFAULT_BATCH_SIZE) -> list[list]:
    """Consecutive chunks of batch_size; the final batch may be short."""
    if batch_size < 1:
        raise EmptyClass(f"batch_size must be >= 1, got {batch_size}")
    return [items[i:i + batch_size] for i in range(0, len(items), batch_size)]


# --- float32 payload files: eeg.f32 recordings and window files ---


def write_window_file(path, data: np.ndarray) -> None:
    """Write a (channels, samples) array as channel-major little-endian float32."""
    write_artifact(path, np.ascontiguousarray(data, dtype="<f4"))


def f32_payload(data, path, shape: tuple[int, int], shape_from: str) -> np.ndarray:
    """The bytes-like data, the payload of the file at path, as a read-only shape array of
    little-endian float32; unless its size fits the shape that shape_from gives,
    PayloadSizeMismatch names path. The checked payload of .f32 files and feature files."""
    size = len(data)
    if size % 4 or size // 4 != shape[0] * shape[1]:
        on_disk = f"{size} bytes" if size % 4 else f"{size // 4} floats"
        raise PayloadSizeMismatch(f"{path}: {on_disk} on disk, "
                                  f"{shape_from} says {shape[0]}x{shape[1]}")
    return np.frombuffer(data, "<f4").reshape(shape)


def read_window_file(path, n_channels: int, window_len: int) -> np.ndarray:
    raw = f32_payload(read_input(path), path, (n_channels, window_len), "manifest")
    return raw.astype(np.float64)


# --- the manifests that preprocess and featurize write for later stages ---

_WINDOW_MANIFEST_KEYS = {"sample_rate_hz": float, "window_len": int, "channel_names": list,
                         "emotion_table": dict, "windows": list, "split_order": dict}
_WINDOW_KEYS = {"id": str, "file": str, "split": SPLIT_NAMES, "binary": (None, *BINARY_CLASS_NAMES)}
_FEATURE_MANIFEST_KEYS = {"source": str, "n_channels": int, "n_bins": int, "emotion_table": dict,
                          "train_order": list, "records": list}
_FEATURE_KEYS = {**_WINDOW_KEYS, "task": ("both", "binary", "categorical")}


def _emotion_ids(path, manifest: dict) -> tuple:
    """The emotion table's ids, once they are checked to be 0 to n-1 (the label indices)."""
    table = manifest["emotion_table"]
    ids = list(table.values())
    if not (_all_of_kind(ids, int) and sorted(ids) == list(range(len(ids)))):
        raise InvalidFormat(f"{path}: emotion_table ids must be 0 to {len(ids) - 1}, got {table}")
    return tuple(ids)


def read_window_manifest(path: Path) -> dict:
    """The window manifest at path, once each key a stage reads is checked (not its files)."""
    manifest = read_json_object(path)
    _check_keys(path, [manifest], _WINDOW_MANIFEST_KEYS)
    windows, train = manifest["windows"], manifest["split_order"].get("train")
    if not windows:
        raise InvalidFormat(f"{path} lists no windows")
    keys = {**_WINDOW_KEYS, "categorical": _emotion_ids(path, manifest)}
    _check_keys(path, windows, keys, "window {}: ")
    ids = [w["id"] for w in windows]
    if len(known := set(ids)) < len(ids):
        raise InvalidFormat(f"{path}: window id {max(ids, key=ids.count)!r} is listed twice")
    if not (type(train) is list and _all_of_kind(train, str) and known.issuperset(train)):
        raise InvalidFormat(f"{path}: split_order: train must be a list of window ids")
    return manifest


def read_feature_manifest(path: Path) -> dict:
    """The feature manifest at path, once each key that a stage reads is checked."""
    manifest = read_json_object(path)
    _check_keys(path, [manifest], _FEATURE_MANIFEST_KEYS)
    keys = {**_FEATURE_KEYS, "categorical": (None, *_emotion_ids(path, manifest))}
    _check_keys(path, manifest["records"], keys, "record {}: ")
    return manifest
