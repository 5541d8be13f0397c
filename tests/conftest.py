"""Shared fixtures: tiny on-disk datasets and small trained-model helpers."""

import json
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

sys.path.insert(0, str(Path(__file__).parent))

# Every run draws the same examples: no random seed and no example database.
settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")

from affekt.dataset import EVENT_COLUMNS


def write_subject(
    subject_dir: Path,
    data: np.ndarray,
    fs_hz: float,
    events: list[dict],
    channel_names: list[str] | None = None,
) -> None:
    """Write one subject directory in the on-disk recording format."""
    subject_dir.mkdir(parents=True, exist_ok=True)
    n_channels, n_samples = data.shape
    if channel_names is None:
        channel_names = [f"ch{idx:03d}" for idx in range(n_channels)]
    sidecar = {
        "subject_id": subject_dir.name,
        "sample_rate_hz": fs_hz,
        "channel_names": channel_names,
        "n_samples": n_samples,
    }
    (subject_dir / "eeg.json").write_text(json.dumps(sidecar, sort_keys=True) + "\n")
    data.astype("<f4").tofile(subject_dir / "eeg.f32")
    lines = ["\t".join(EVENT_COLUMNS)]
    for ev in events:
        lines.append(
            "\t".join(
                [
                    repr(float(ev["onset"])),
                    repr(float(ev["duration"])),
                    str(ev.get("trial_type", "stimulus")),
                    repr(float(ev["valence"])),
                    repr(float(ev["arousal"])),
                    str(ev["emotion"]),
                ]
            )
        )
    (subject_dir / "events.tsv").write_text("\n".join(lines) + "\n")


LAYOUTS = ("contiguous", "reversed", "slice")


def laid_out(rng, shape: tuple, layout: str) -> np.ndarray:
    """Standard normal data of shape: a contiguous array, a reversed view (the
    layout filter_array returns) or a column slice of a wider array."""
    if layout == "contiguous":
        return rng.standard_normal(shape)
    if layout == "reversed":
        return rng.standard_normal(shape)[..., ::-1]
    wide = rng.standard_normal(shape[:-1] + (shape[-1] + 37,))
    return wide[..., 21:21 + shape[-1]]


def make_events(specs: list[tuple[float, float, float, str]]) -> list[dict]:
    """specs rows: (onset, valence, arousal, emotion)."""
    return [
        {
            "onset": onset,
            "duration": 2.93,
            "valence": valence,
            "arousal": arousal,
            "emotion": emotion,
        }
        for onset, valence, arousal, emotion in specs
    ]


@pytest.fixture()
def subject_dir(tmp_path):
    """One 4-channel subject with three labeled events, fs=512."""
    fs = 512.0
    rng = np.random.default_rng(42)
    data = rng.standard_normal((4, 6000))
    events = make_events(
        [
            (0.5, 7.5, 7.0, "joy"),
            (3.6, 2.0, 2.5, "sad"),
            (6.8, 5.0, 5.0, "neutral"),
        ]
    )
    sdir = tmp_path / "sub-001"
    write_subject(sdir, data, fs, events)
    return sdir
