"""Separable synthetic EEG dataset generator.

Each subject directory gets a pink-noise background recording with event
spans whose spectral content depends on the emotion class: high-rated events
carry a broad 15-40 Hz shelf, low-rated events carry sharp narrowband ridges
near 6 and 10 Hz, neutral events are background only. Class is therefore
recoverable from spectral shape, and positive windows keep mean 15-40 Hz
power above mean 4-12 Hz power.

Generation is bit-exact for a given (seed, layout): every subject draws from
its own generator, seeded by the subject's child of SeedSequence(seed), in a
fixed order. Files go through the dataset writers that match load_recording's readers.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .dataset import EmotionEvent, write_events, write_json_object, write_window_file
from .errors import ShapeMismatch, StaleArtifact

MUSE_CHANNELS = ("TP9", "AF7", "AF8", "TP10")


@dataclass(frozen=True)
class EmotionTemplate:
    arousal_range: tuple[float, float]
    valence_range: tuple[float, float]
    band: str  # "high" (15-40 shelf), "low" (6/10 Hz ridges), "none"


EMOTION_TEMPLATES = {
    "joy": EmotionTemplate((6.6, 8.4), (6.6, 8.4), "high"),
    "sad": EmotionTemplate((1.6, 3.4), (1.6, 3.4), "low"),
    "neutral": EmotionTemplate((4.6, 5.4), (4.6, 5.4), "none"),
}

DEFAULT_CLASS_MIX = {"joy": 3, "sad": 2, "neutral": 3}

LEAD_SAMPLES = 256
GAP_SAMPLES = 100
SHELF_BAND = (15.0, 40.0)
SHELF_RMS = 1.2
RIDGE_FREQS = (6.0, 10.0)
RIDGE_AMP = (1.2, 1.8)
RIDGE_JITTER = 0.15


@dataclass(frozen=True)
class SynthSpec:
    """Cohort layout and seed; class_mix counts events per subject by emotion."""

    n_subjects: int = 4
    events_per_subject: int = 8
    channels: int = 8
    fs_hz: float = 512.0
    class_mix: dict = field(default_factory=lambda: dict(DEFAULT_CLASS_MIX))
    seed: int = 0

    def __post_init__(self) -> None:
        for key in ("n_subjects", "events_per_subject", "channels"):
            value = getattr(self, key)
            if not isinstance(value, int) or value < 1:
                raise ShapeMismatch(f"{key} must be an integer >= 1, got {value!r}")
        if not self.fs_hz > 0:
            raise ShapeMismatch(f"fs_hz must be > 0, got {self.fs_hz}")
        unknown = sorted(set(self.class_mix) - set(EMOTION_TEMPLATES))
        if unknown:
            raise ShapeMismatch(f"class_mix has unknown emotion classes {unknown}")
        counts = self.class_mix.values()
        if any(isinstance(c, bool) or not isinstance(c, int) or c < 0 for c in counts):
            raise ShapeMismatch(f"class_mix counts must be integers >= 0, got {self.class_mix}")
        if sum(self.class_mix.values()) != self.events_per_subject:
            raise ShapeMismatch(
                f"class_mix sums to {sum(self.class_mix.values())}, "
                f"expected events_per_subject={self.events_per_subject}"
            )


def _pink_noise(rng: np.random.Generator, n_channels: int, n_samples: int) -> np.ndarray:
    white = rng.standard_normal((n_channels, n_samples))
    spectrum = np.fft.rfft(white, axis=1)
    freqs = np.fft.rfftfreq(n_samples, d=1.0)
    shaping = 1.0 / np.sqrt(np.maximum(freqs, freqs[1]))
    shaped = np.fft.irfft(spectrum * shaping, n=n_samples, axis=1)
    return shaped / shaped.std(axis=1, keepdims=True)


def _band_noise(
    rng: np.random.Generator, n_channels: int, n_samples: int, fs_hz: float,
    band: tuple[float, float], rms: float,
) -> np.ndarray:
    white = rng.standard_normal((n_channels, n_samples))
    spectrum = np.fft.rfft(white, axis=1)
    freqs = np.fft.rfftfreq(n_samples, d=1.0 / fs_hz)
    mask = (freqs >= band[0]) & (freqs <= band[1])
    shaped = np.fft.irfft(spectrum * mask, n=n_samples, axis=1)
    return rms * shaped / shaped.std(axis=1, keepdims=True)


def _ridges(
    rng: np.random.Generator, n_channels: int, n_samples: int, fs_hz: float
) -> np.ndarray:
    t = np.arange(n_samples) / fs_hz
    out = np.zeros((n_channels, n_samples))
    for f0 in RIDGE_FREQS:
        amps = rng.uniform(RIDGE_AMP[0], RIDGE_AMP[1], size=(n_channels, 1))
        phases = rng.uniform(0.0, 2.0 * np.pi, size=(n_channels, 1))
        jitter = rng.uniform(-RIDGE_JITTER, RIDGE_JITTER, size=(n_channels, 1))
        out += amps * np.sin(2.0 * np.pi * (f0 + jitter) * t[None, :] + phases)
    return out


def _channel_names(n_channels: int) -> list[str]:
    if n_channels == len(MUSE_CHANNELS):
        return list(MUSE_CHANNELS)
    return [f"ch{idx:03d}" for idx in range(n_channels)]


def synth_generate(out_dir, spec: SynthSpec, window_len: int) -> dict:
    """Write spec.n_subjects subject directories under out_dir, which may hold no other
    directory (StaleArtifact: synth leaves alone what it did not write); returns a report."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    subject_ids = [f"sub-{idx + 1:03d}" for idx in range(spec.n_subjects)]
    for path in sorted(out_dir.iterdir()):
        if path.is_dir() and path.name not in subject_ids:
            raise StaleArtifact(f"{path} is not one of the {spec.n_subjects} subjects that synth "
                                "writes; remove it or choose another workdir")
    channels, fs_hz = spec.channels, spec.fs_hz
    names = _channel_names(channels)
    slot = window_len + GAP_SAMPLES
    n_samples = LEAD_SAMPLES + spec.events_per_subject * slot

    # SeedSequence children are independent across subjects and across seeds;
    # arithmetic like seed ^ subject index is not (2 ^ 0 == 3 ^ 1).
    subject_seeds = np.random.SeedSequence(spec.seed).spawn(spec.n_subjects)
    for subject_id, subject_seed in zip(subject_ids, subject_seeds):
        rng = np.random.default_rng(subject_seed)
        roster = [name for name, count in sorted(spec.class_mix.items()) for _ in range(count)]
        roster = [roster[i] for i in rng.permutation(len(roster))]

        data = _pink_noise(rng, channels, n_samples)
        events = []
        for ev_idx, emotion in enumerate(roster):
            template = EMOTION_TEMPLATES[emotion]
            arousal = rng.uniform(*template.arousal_range)
            valence = rng.uniform(*template.valence_range)
            start = LEAD_SAMPLES + ev_idx * slot
            span = slice(start, start + window_len)
            if template.band == "high":
                data[:, span] += _band_noise(rng, channels, window_len, fs_hz, SHELF_BAND, SHELF_RMS)
            elif template.band == "low":
                data[:, span] += _ridges(rng, channels, window_len, fs_hz)
            onset, duration = start / fs_hz, window_len / fs_hz
            events.append(EmotionEvent(onset, duration, "stimulus", valence, arousal, emotion))

        subject_dir = out_dir / subject_id
        subject_dir.mkdir(parents=True, exist_ok=True)
        write_json_object(
            subject_dir / "eeg.json",
            {
                "subject_id": subject_id,
                "sample_rate_hz": fs_hz,
                "channel_names": names,
                "n_samples": n_samples,
            },
        )
        write_window_file(subject_dir / "eeg.f32", data)
        write_events(subject_dir / "events.tsv", events)

    return {**asdict(spec), "n_samples_per_subject": n_samples}
