"""Pipeline configuration: one JSON file drives every CLI stage.

Every stage seed lives in the file (there is no wall-clock fallback), so a
config fully determines every artifact. `--seed N` on the command line
replaces all stage seeds with N plus fixed offsets; `--out DIR` replaces the
workdir. Unknown keys are rejected to catch typos early.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from pathlib import Path

from .errors import InvalidFormat, MissingFile
from .nn import BlockSpec
from .synth import DEFAULT_CLASS_MIX

# Named block stacks so differently shaped classifiers can be compared by
# flipping one config key, mirroring a three-architecture comparison at toy
# scale.
MODEL_PRESETS: dict[str, tuple[dict, ...]] = {
    "cnn-small": (
        {"out_width": 8, "stride": 2, "residual": False},
        {"out_width": 16, "stride": 2, "residual": False},
    ),
    "cnn-small-residual": (
        {"out_width": 8, "stride": 2, "residual": False},
        {"out_width": 8, "stride": 1, "residual": True},
        {"out_width": 16, "stride": 2, "residual": False},
    ),
    "cnn-small-narrow": (
        {"out_width": 4, "stride": 2, "residual": False},
        {"out_width": 8, "stride": 2, "residual": False},
    ),
}


@dataclass
class SynthSection:
    n_subjects: int = 4
    events_per_subject: int = 8
    channels: int = 8
    fs_hz: float = 512.0
    class_mix: dict = field(default_factory=lambda: dict(DEFAULT_CLASS_MIX))
    seed: int = 101


@dataclass
class FilterSection:
    kind: str = "bandstop"
    order_n: int = 4
    edges_hz: tuple = (48.0, 52.0)


@dataclass
class WindowSection:
    length_samples: int = 1500
    thresholds: tuple = (4.0, 6.0)
    rating_dimension: str = "arousal"


@dataclass
class NoiseSection:
    max_magnitude: float = 4.0
    seed: int = 202


@dataclass
class EntropySection:
    m: int = 2
    r_factor: float = 0.15
    max_scale: int = 10
    n_windows: int = 1

    def __post_init__(self) -> None:
        if self.n_windows < 1:
            raise InvalidFormat(f"entropy.n_windows must be >= 1, got {self.n_windows}")


@dataclass
class PsdSection:
    segment_len: int | None = None
    overlap_fraction: float = 0.5
    max_freq_hz: float = 128.0


@dataclass
class SmoteSection:
    k_neighbors: int = 5
    seed: int = 303


@dataclass
class SplitSection:
    ratios: tuple = (0.70, 0.15, 0.15)
    batch_size: int = 32
    seed: int = 404
    level: str = "window"


@dataclass
class FeaturizeSection:
    source: str = "clean"  # or "augmented"

    def __post_init__(self) -> None:
        if self.source not in ("clean", "augmented"):
            raise InvalidFormat(
                f"featurize.source must be clean or augmented, got {self.source!r}"
            )


@dataclass
class ModelSection:
    preset: str | None = "cnn-small"
    blocks: tuple | None = None
    seed: int = 505

    def resolve_blocks(self) -> tuple[BlockSpec, ...]:
        if self.blocks is not None:
            return tuple(BlockSpec(**dict(b)) for b in self.blocks)
        if self.preset not in MODEL_PRESETS:
            raise InvalidFormat(
                f"unknown model preset {self.preset!r}; known: {sorted(MODEL_PRESETS)}"
            )
        return tuple(BlockSpec(**dict(b)) for b in MODEL_PRESETS[self.preset])


@dataclass
class TrainSection:
    max_epochs: int = 400
    lr0: float = 1e-3
    lr_decay: float = 0.99
    patience: int = 20
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    seed: int = 606


@dataclass
class StreamSection:
    hop_samples: int = 375
    trigger_consecutive: int = 1
    strategy_policy: str = "round_robin"
    source_subject: str = "sub-001"


_SECTIONS = {
    "synth": SynthSection,
    "filter": FilterSection,
    "window": WindowSection,
    "noise": NoiseSection,
    "entropy": EntropySection,
    "psd": PsdSection,
    "smote": SmoteSection,
    "split": SplitSection,
    "featurize": FeaturizeSection,
    "model": ModelSection,
    "train": TrainSection,
    "stream": StreamSection,
}


@dataclass
class PipelineConfig:
    workdir: str
    synth: SynthSection = field(default_factory=SynthSection)
    filter: FilterSection = field(default_factory=FilterSection)
    window: WindowSection = field(default_factory=WindowSection)
    noise: NoiseSection = field(default_factory=NoiseSection)
    entropy: EntropySection = field(default_factory=EntropySection)
    psd: PsdSection = field(default_factory=PsdSection)
    smote: SmoteSection = field(default_factory=SmoteSection)
    split: SplitSection = field(default_factory=SplitSection)
    featurize: FeaturizeSection = field(default_factory=FeaturizeSection)
    model: ModelSection = field(default_factory=ModelSection)
    train: TrainSection = field(default_factory=TrainSection)
    stream: StreamSection = field(default_factory=StreamSection)


@dataclass
class Paths:
    root: Path

    @property
    def raw(self) -> Path:
        return self.root / "raw"

    @property
    def windows(self) -> Path:
        return self.root / "windows"

    @property
    def windows_noisy(self) -> Path:
        return self.root / "windows_noisy"

    @property
    def features(self) -> Path:
        return self.root / "features"

    @property
    def model(self) -> Path:
        return self.root / "model"

    @property
    def reports(self) -> Path:
        return self.root / "reports"


def _build_section(cls, data: dict, where: str):
    fields = {f.name: f for f in dataclasses.fields(cls)}
    unknown = sorted(set(data) - set(fields))
    if unknown:
        raise InvalidFormat(f"config section {where!r}: unknown keys {unknown}")
    coerced = {}
    for key, value in data.items():
        if isinstance(value, list):
            value = tuple(tuple(v) if isinstance(v, list) else v for v in value)
        coerced[key] = value
    try:
        return cls(**coerced)
    except TypeError as exc:
        raise InvalidFormat(f"config section {where!r}: {exc}") from exc


def config_from_dict(data: dict) -> PipelineConfig:
    if "workdir" not in data:
        raise InvalidFormat("config is missing required key 'workdir'")
    unknown = sorted(set(data) - set(_SECTIONS) - {"workdir"})
    if unknown:
        raise InvalidFormat(f"config: unknown top-level keys {unknown}")
    sections = {
        name: _build_section(cls, data.get(name, {}) or {}, name)
        for name, cls in _SECTIONS.items()
    }
    # Model blocks given as lists of dicts stay dicts for resolve_blocks.
    if isinstance(data.get("model", {}).get("blocks"), list):
        sections["model"].blocks = tuple(data["model"]["blocks"])
    return PipelineConfig(workdir=str(data["workdir"]), **sections)


def load_config(path, seed_override: int | None = None, out_override: str | None = None) -> PipelineConfig:
    path = Path(path)
    if not path.exists():
        raise MissingFile(f"config file {path} does not exist")
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except json.JSONDecodeError as exc:
        raise InvalidFormat(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise InvalidFormat(f"config file {path} must hold a JSON object")
    cfg = config_from_dict(data)
    if out_override is not None:
        cfg.workdir = str(out_override)
    if seed_override is not None:
        apply_seed_override(cfg, seed_override)
    return cfg


def apply_seed_override(cfg: PipelineConfig, seed: int) -> None:
    """Rewrite every stage seed as seed + fixed offset."""
    cfg.synth.seed = seed + 1
    cfg.noise.seed = seed + 2
    cfg.smote.seed = seed + 3
    cfg.split.seed = seed + 4
    cfg.model.seed = seed + 5
    cfg.train.seed = seed + 6


def paths_for(cfg: PipelineConfig) -> Paths:
    return Paths(root=Path(cfg.workdir))


def default_config_dict(workdir: str = "runs/demo") -> dict:
    """A complete config with every key explicit; handy as a starting file."""
    cfg = PipelineConfig(workdir=workdir)
    out: dict = {"workdir": workdir}
    for name in _SECTIONS:
        section = getattr(cfg, name)
        entry = dataclasses.asdict(section)
        for key, value in entry.items():
            if isinstance(value, tuple):
                entry[key] = list(value)
        out[name] = entry
    return out
