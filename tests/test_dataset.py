"""Recording ingestion, labeling, SMOTE, splitting, and batching tests."""

import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from affekt.dataset import (
    BINARY_CLASS_NAMES,
    EmotionEvent,
    SmoteSpec,
    SplitSpec,
    WindowSpec,
    extract_windows,
    label_from_ratings,
    load_recording,
    make_batches,
    read_window_file,
    smote_resample,
    split_windows,
    write_events,
    write_window_file,
)
from affekt.errors import (
    AffektError,
    ClassTooSmall,
    EmptyClass,
    MalformedEvent,
    MissingFile,
    PayloadSizeMismatch,
    ShapeMismatch,
)
from affekt.features import PsdSpec
from affekt.synth import SynthSpec
from conftest import make_events, write_subject
from oracles import is_convex_combination


def test_load_recording_roundtrip(subject_dir):
    rec, events = load_recording(subject_dir)
    assert rec.subject_id == "sub-001"
    assert rec.sample_rate_hz == 512.0
    assert rec.data.shape == (4, 6000)
    assert rec.data.dtype == np.float64
    assert [ev.emotion for ev in events] == ["joy", "sad", "neutral"]
    assert events[0].onset_s == pytest.approx(0.5)


def test_load_recording_missing_files(tmp_path):
    with pytest.raises(MissingFile):
        load_recording(tmp_path / "nope")
    sdir = tmp_path / "sub-002"
    write_subject(sdir, np.zeros((2, 100)), 512.0, [])
    (sdir / "events.tsv").unlink()
    with pytest.raises(MissingFile):
        load_recording(sdir)


def test_load_recording_payload_size_check(tmp_path):
    sdir = tmp_path / "sub-003"
    write_subject(sdir, np.zeros((2, 100)), 512.0, [])
    payload = (sdir / "eeg.f32").read_bytes()
    (sdir / "eeg.f32").write_bytes(payload[:-8])
    with pytest.raises(ShapeMismatch):
        load_recording(sdir)


@pytest.mark.parametrize(
    "mutate",
    [
        lambda lines: lines[1].replace("joy", ""),  # empty emotion
        lambda lines: lines[1].replace("7.5", "abc"),  # unparseable rating
        lambda lines: lines[1].replace("7.5", "12.0"),  # rating out of range
        lambda lines: lines[1].replace("0.5", "-0.5", 1),  # negative onset
        lambda lines: "\t".join(lines[1].split("\t")[:-1]),  # missing column
        lambda lines: lines[1].replace("0.5", "inf", 1),  # infinite onset
        lambda lines: lines[1].replace("0.5", "nan", 1),  # undefined onset
        lambda lines: lines[1].replace("2.93", "nan", 1),  # undefined duration
    ],
)
def test_malformed_event_rows(tmp_path, mutate):
    sdir = tmp_path / "sub-004"
    write_subject(
        sdir,
        np.zeros((2, 4000)),
        512.0,
        make_events([(0.5, 7.5, 7.0, "joy")]),
    )
    lines = (sdir / "events.tsv").read_text().splitlines()
    lines[1] = mutate(lines)
    (sdir / "events.tsv").write_text("\n".join(lines) + "\n")
    with pytest.raises(MalformedEvent, match=re.escape(f"{sdir / 'events.tsv'} row 2")):
        load_recording(sdir)


def test_written_events_load_back_exactly(tmp_path):
    sdir = tmp_path / "sub-007"
    write_subject(sdir, np.zeros((2, 100)), 512.0, [])
    events = [
        EmotionEvent(0.1 + 0.2, 1500 / 512.0, "stimulus", 7.123456789012345, 1 + 2 / 3, "joy"),
        EmotionEvent(1e-7, 2.93, "rest", 1.0, 9.0, "sad"),
    ]
    write_events(sdir / "events.tsv", events)
    assert load_recording(sdir)[1] == events


def test_label_thresholds():
    table = {}
    events = make_events(
        [
            (0.0, 5.0, 3.0, "calm"),
            (0.0, 5.0, 7.0, "joy"),
            (0.0, 5.0, 5.0, "neutral"),
            (0.0, 5.0, 4.0, "edge-low"),
            (0.0, 5.0, 6.0, "edge-high"),
        ]
    )
    evs = [
        EmotionEvent(
            onset_s=ev["onset"],
            duration_s=ev["duration"],
            trial_type="stimulus",
            valence=ev["valence"],
            arousal=ev["arousal"],
            emotion=ev["emotion"],
        )
        for ev in events
    ]
    spec = WindowSpec(thresholds=(4.0, 6.0), rating_dimension="arousal")
    binaries = [label_from_ratings(ev, table, spec)[1] for ev in evs]
    assert binaries[0] == "negative"
    assert binaries[1] == "positive"
    assert binaries[2] is None
    # thresholds are exclusive: ratings at 4 and 6 stay neutral
    assert binaries[3] is None
    assert binaries[4] is None


def test_label_dimension_switch():
    table = {}
    ev = EmotionEvent(
        onset_s=0.0,
        duration_s=1.0,
        trial_type="stimulus",
        valence=2.0,
        arousal=8.0,
        emotion="mixed",
    )
    arousal = WindowSpec(thresholds=(4.0, 6.0), rating_dimension="arousal")
    valence = WindowSpec(thresholds=(4.0, 6.0), rating_dimension="valence")
    assert label_from_ratings(ev, table, arousal)[1] == "positive"
    assert label_from_ratings(ev, table, valence)[1] == "negative"


@pytest.mark.parametrize(
    "kwargs",
    [
        {"thresholds": (6.0, 4.0)},
        {"thresholds": (4.0,)},
        {"rating_dimension": "dominance"},
    ],
)
def test_window_spec_rejects_bad_label_rule(kwargs):
    with pytest.raises(MalformedEvent, match=next(iter(kwargs))):
        WindowSpec(**kwargs)


def test_emotion_table_ids_first_seen():
    table = {}
    ids = [
        label_from_ratings(EmotionEvent(0.0, 1.0, "stimulus", 5.0, 5.0, name), table)[0]
        for name in ("joy", "sad", "joy", "neutral", "sad")
    ]
    assert ids == [0, 1, 0, 2, 1]
    assert table == {"joy": 0, "sad": 1, "neutral": 2}


def test_extract_windows_onset_and_skip(tmp_path, caplog):
    fs = 512.0
    sdir = tmp_path / "sub-005"
    write_subject(
        sdir,
        np.arange(2 * 4000, dtype=np.float64).reshape(2, 4000),
        fs,
        make_events(
            [
                (1.0, 7.0, 7.0, "joy"),
                (7.5, 2.0, 2.0, "sad"),  # 7.5*512+1500 > 4000: dropped
            ]
        ),
    )
    rec, events = load_recording(sdir)
    table = {}
    import logging

    with caplog.at_level(logging.WARNING):
        windows = extract_windows(rec, events, table, WindowSpec())
    assert len(windows) == 1
    start = round(1.0 * fs)
    record, data = windows[0]
    np.testing.assert_array_equal(data, rec.data[:, start : start + 1500])
    assert record == {"id": "sub-005-e000", "file": "sub-005-e000.f32", "subject_id": "sub-005",
                      "categorical": 0, "binary": "positive", "emotion": "joy", "rating": 7.0}
    assert any("skip" in rec_.message.lower() for rec_ in caplog.records)


def test_smote_equalizes_and_marks_synthetic():
    rng = np.random.default_rng(15)
    x = np.vstack([rng.normal(0, 1, (12, 6)), rng.normal(5, 1, (30, 6))])
    y = np.array([0] * 12 + [1] * 30)
    xb, yb, synthetic = smote_resample(x, y, SmoteSpec(k_neighbors=5, seed=0))
    assert np.bincount(yb).tolist() == [30, 30]
    assert synthetic.sum() == 18
    # originals first and untouched
    np.testing.assert_array_equal(xb[: x.shape[0]], x)
    np.testing.assert_array_equal(yb[: x.shape[0]], y)
    assert not synthetic[: x.shape[0]].any()
    assert synthetic[x.shape[0] :].all()


def test_smote_points_are_convex_combinations():
    rng = np.random.default_rng(16)
    x = np.vstack([rng.normal(0, 1, (10, 4)), rng.normal(3, 1, (25, 4))])
    y = np.array([0] * 10 + [1] * 25)
    xb, yb, synthetic = smote_resample(x, y, SmoteSpec(k_neighbors=5, seed=2))
    for idx in np.flatnonzero(synthetic):
        originals = x[y == yb[idx]]
        assert is_convex_combination(xb[idx], originals, tol=1e-9)


def _neighbour_segments(pts, k) -> tuple[np.ndarray, np.ndarray]:
    """(start, step) of the segment from each row of pts to each of its k nearest
    other rows (Euclidean; a row as far as the k-th counts too)."""
    dist = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=-1)
    np.fill_diagonal(dist, np.inf)
    kth = np.sort(dist, axis=1)[:, k - 1:k]
    i, j = np.nonzero(dist <= kth * (1 + 1e-9))
    return pts[i], pts[j] - pts[i]


@settings(max_examples=60, deadline=None)
@given(
    counts=st.lists(st.integers(2, 14), min_size=2, max_size=3),
    dims=st.integers(1, 6),
    k=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
)
def test_smote_synthetics_lie_between_a_sample_and_its_k_neighbours_property(
    counts, dims, k, seed
):
    assume(all(c > k for c in counts if c < max(counts)))  # the classes SMOTE fills
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((sum(counts), dims)) * rng.uniform(0.1, 10.0, dims)
    y = np.repeat(np.arange(len(counts)), counts)
    xb, yb, synthetic = smote_resample(x, y, SmoteSpec(k_neighbors=k, seed=seed))
    assert np.bincount(yb).tolist() == [max(counts)] * len(counts)
    segments = {c: _neighbour_segments(x[y == c], k) for c in range(len(counts))}
    for idx in np.flatnonzero(synthetic):
        start, step = segments[yb[idx]]
        u = ((xb[idx] - start) * step).sum(axis=1) / (step * step).sum(axis=1)
        off = np.abs(start + u[:, None] * step - xb[idx]).max(axis=1)
        assert np.any((u >= -1e-9) & (u <= 1 + 1e-9) & (off <= 1e-9))


def test_smote_collinear_toy_set():
    # minority on a line: every synthetic point stays on it
    minority = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]])
    majority = np.array([[10.0, 0.0]] * 7)
    x = np.vstack([minority, majority])
    y = np.array([0, 0, 0, 1, 1, 1, 1, 1, 1, 1])
    xb, yb, synthetic = smote_resample(x, y, SmoteSpec(k_neighbors=2, seed=3))
    for idx in np.flatnonzero(synthetic):
        px, py = xb[idx]
        assert px == pytest.approx(py, abs=1e-12)
        assert 0.0 <= px <= 2.0


def test_smote_class_too_small():
    x = np.vstack([np.zeros((4, 3)), np.ones((10, 3))])
    y = np.array([0] * 4 + [1] * 10)
    with pytest.raises(ClassTooSmall):
        smote_resample(x, y, SmoteSpec(k_neighbors=5, seed=0))


def test_smote_deterministic():
    rng = np.random.default_rng(17)
    x = np.vstack([rng.normal(0, 1, (8, 5)), rng.normal(4, 1, (20, 5))])
    y = np.array([0] * 8 + [1] * 20)
    spec = SmoteSpec(k_neighbors=5, seed=9)
    a = smote_resample(x, y, spec)
    b = smote_resample(x, y, spec)
    np.testing.assert_array_equal(a[0], b[0])


def fake_window(window_id, subject_id, categorical):
    return {"id": window_id, "subject_id": subject_id, "categorical": categorical, "binary": None}


def make_fake_windows(n_per_class=20, n_subjects=10):
    windows = []
    idx = 0
    for cat in (0, 1, 2):
        for k in range(n_per_class):
            subject = f"sub-{(idx % n_subjects):03d}"
            windows.append(fake_window(f"{subject}-e{idx:03d}", subject, cat))
            idx += 1
    return windows


def test_split_ratios_and_determinism():
    windows = make_fake_windows()
    a = split_windows(windows, SplitSpec((0.7, 0.15, 0.15), seed=1))
    b = split_windows(windows, SplitSpec((0.7, 0.15, 0.15), seed=1))
    c = split_windows(windows, SplitSpec((0.7, 0.15, 0.15), seed=2))
    assert {k: [w["id"] for w in v] for k, v in a.items()} == {
        k: [w["id"] for w in v] for k, v in b.items()
    }
    assert [w["id"] for w in a["train"]] != [w["id"] for w in c["train"]]
    sizes = {k: len(v) for k, v in a.items()}
    assert sizes == {"train": 42, "val": 9, "test": 9}
    ids = [w["id"] for split in a.values() for w in split]
    assert sorted(ids) == sorted(w["id"] for w in windows)


def test_split_stratified_per_class():
    windows = make_fake_windows()
    splits = split_windows(windows, SplitSpec((0.7, 0.15, 0.15), seed=3))
    for name, expected in (("train", 14), ("val", 3), ("test", 3)):
        counts = {}
        for w in splits[name]:
            counts[w["categorical"]] = counts.get(w["categorical"], 0) + 1
        assert counts == {0: expected, 1: expected, 2: expected}


def test_split_subject_level_keeps_subjects_whole():
    windows = make_fake_windows(n_per_class=20, n_subjects=10)
    splits = split_windows(windows, SplitSpec((0.7, 0.15, 0.15), seed=4, level="subject"))
    seen = {}
    for name, split in splits.items():
        for w in split:
            assert seen.setdefault(w["subject_id"], name) == name


def test_split_errors():
    with pytest.raises(EmptyClass):
        split_windows([], SplitSpec((0.7, 0.15, 0.15), seed=0))
    with pytest.raises(EmptyClass):
        SplitSpec((0.5, 0.25), seed=0)
    with pytest.raises(EmptyClass):
        SplitSpec((0.7, 0.15, 0.15), seed=0, level="trial")


def test_make_batches_ragged_rule():
    items = list(range(33))
    batches = make_batches(items, 32)
    assert [len(b) for b in batches] == [32, 1]
    assert make_batches([], 32) == []


def test_window_file_roundtrip(tmp_path):
    rng = np.random.default_rng(18)
    data = rng.standard_normal((4, 100)).astype(np.float32).astype(np.float64)
    path = tmp_path / "w.f32"
    write_window_file(path, data)
    got = read_window_file(path, 4, 100)
    np.testing.assert_array_equal(got, data)
    with pytest.raises(ShapeMismatch):
        read_window_file(path, 4, 99)


def test_window_file_of_part_floats_or_missing_is_named(tmp_path):
    # a size that is not a whole number of floats is refused, never read short
    path = tmp_path / "w.f32"
    path.write_bytes(bytes(4 * 400 + 2))
    with pytest.raises(PayloadSizeMismatch) as exc:
        read_window_file(path, 4, 100)
    assert str(exc.value) == f"{path}: 1602 bytes on disk, manifest says 4x100"
    missing = tmp_path / "absent.f32"
    with pytest.raises(MissingFile) as exc:
        read_window_file(missing, 4, 100)
    assert str(exc.value) == f"{missing} does not exist"


@pytest.mark.parametrize(
    "build",
    [
        lambda: WindowSpec(length_samples=True),
        lambda: SplitSpec(batch_size=True),
        lambda: PsdSpec(segment_len=True),
        lambda: SynthSpec(n_subjects=True),
        lambda: SynthSpec(class_mix={"joy": True, "sad": 3, "neutral": 4}, events_per_subject=8),
    ],
    ids=["window_length", "split_batch_size", "psd_segment_len", "synth_subjects",
         "synth_class_mix"],
)
def test_spec_integer_is_never_a_bool(build):
    # the key tables' rule, for specs built in Python rather than read from a config
    with pytest.raises(AffektError, match="got .*True"):
        build()


def test_binary_class_name_order():
    assert BINARY_CLASS_NAMES == ("negative", "positive")
