"""Streaming inference over a sliding window with intervention triggers.

A window of window_len samples slides by hop_samples; every position runs
the same chain as offline preprocessing (zero-phase filter, per-channel
standard score, PSD feature matrix) and a forward pass. When the negative
class wins argmax for trigger_consecutive windows in a row, one intervention
event is emitted and the run counter resets, so non-overlapping runs map to
distinct events. Per-window wall time is measured so callers can check the
real-time budget hop_samples / fs.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from .dataset import DEFAULT_WINDOW_LEN, BinaryClass
from .errors import RecordingTooShort, ShapeMismatch
from .features import PsdSpec, psd_feature_values
from .nn import CnnConfig, Workspace, forward
from .signals import FilterRealization, Recording, filter_array, zscore_array

STRATEGIES = ("calming_stimuli", "breathing_exercise", "positive_affirmation")


@dataclass(frozen=True)
class StreamSpec:
    window_len: int = DEFAULT_WINDOW_LEN
    hop_samples: int = 375
    trigger_consecutive: int = 1
    strategy_policy: str = "round_robin"

    def __post_init__(self) -> None:
        if self.window_len < 2:
            raise RecordingTooShort(f"window_len must be >= 2, got {self.window_len}")
        if self.hop_samples < 1:
            raise RecordingTooShort(f"hop_samples must be >= 1, got {self.hop_samples}")
        if self.trigger_consecutive < 1:
            raise ShapeMismatch(
                f"trigger_consecutive must be >= 1, got {self.trigger_consecutive}"
            )
        if self.strategy_policy != "round_robin":
            fixed = self.strategy_policy.removeprefix("fixed:")
            if fixed == self.strategy_policy or fixed not in STRATEGIES:
                raise ShapeMismatch(
                    f"strategy_policy must be 'round_robin' or 'fixed:<one of {STRATEGIES}>', "
                    f"got {self.strategy_policy!r}"
                )


@dataclass
class WindowDecision:
    window_index: int
    start_sample: int
    timestamp_s: float
    class_index: int
    class_name: str
    confidence: float
    proc_ms: float


@dataclass
class InterventionEvent:
    timestamp_s: float
    window_index: int
    detected_class: str
    confidence: float
    strategy: str


@dataclass
class StreamResult:
    decisions: list[WindowDecision]
    events: list[InterventionEvent]
    mean_proc_ms: float


def _pick_strategy(policy: str, emitted: int) -> str:
    if policy == "round_robin":
        return STRATEGIES[emitted % len(STRATEGIES)]
    return policy.removeprefix("fixed:")


def stream_classify(
    rec: Recording,
    filt: FilterRealization,
    psd_spec: PsdSpec,
    params: dict,
    cnn_cfg: CnnConfig,
    class_names: tuple[str, ...],
    spec: StreamSpec = StreamSpec(),
) -> StreamResult:
    """Classify every window position and emit intervention events."""
    if rec.n_samples < spec.window_len:
        raise RecordingTooShort(
            f"recording has {rec.n_samples} samples, window needs {spec.window_len}"
        )
    if spec.window_len <= filt.padlen:
        raise RecordingTooShort(
            f"window of {spec.window_len} samples is too short to filter: "
            f"it must be longer than the filter's padlen={filt.padlen}"
        )
    if rec.n_channels != cnn_cfg.input_channels:
        raise ShapeMismatch(
            f"recording has {rec.n_channels} channels, model expects {cnn_cfg.input_channels}"
        )
    if filt.spec.fs_hz != rec.sample_rate_hz:
        raise ShapeMismatch(
            f"filter designed for {filt.spec.fs_hz} Hz, recording is {rec.sample_rate_hz} Hz"
        )
    if len(class_names) != cnn_cfg.n_classes:
        raise ShapeMismatch(
            f"{len(class_names)} class names for a {cnn_cfg.n_classes}-class head"
        )
    workspace = Workspace(cnn_cfg)
    decisions: list[WindowDecision] = []
    events: list[InterventionEvent] = []
    run = 0
    start = 0
    index = 0
    while start + spec.window_len <= rec.n_samples:
        t0 = time.perf_counter()
        chunk = rec.data[:, start:start + spec.window_len]
        cleaned = zscore_array(filter_array(filt, chunk))
        values, _ = psd_feature_values(cleaned, rec.sample_rate_hz, psd_spec)
        probs = forward(params, cnn_cfg, values[None, :, :], workspace)[0]
        proc_ms = (time.perf_counter() - t0) * 1e3
        cls = int(probs.argmax())
        name = class_names[cls]
        timestamp = (start + spec.window_len) / rec.sample_rate_hz
        decisions.append(
            WindowDecision(
                window_index=index,
                start_sample=start,
                timestamp_s=timestamp,
                class_index=cls,
                class_name=name,
                confidence=float(probs[cls]),
                proc_ms=proc_ms,
            )
        )
        if name == BinaryClass.NEGATIVE.value:
            run += 1
            if run == spec.trigger_consecutive:
                events.append(
                    InterventionEvent(
                        timestamp_s=timestamp,
                        window_index=index,
                        detected_class=name,
                        confidence=float(probs[cls]),
                        strategy=_pick_strategy(spec.strategy_policy, len(events)),
                    )
                )
                run = 0
        else:
            run = 0
        start += spec.hop_samples
        index += 1
    mean_ms = sum(d.proc_ms for d in decisions) / len(decisions)
    return StreamResult(decisions=decisions, events=events, mean_proc_ms=mean_ms)
