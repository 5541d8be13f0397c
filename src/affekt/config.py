"""Pipeline configuration: one JSON file drives every CLI stage.

Every stage seed lives in the file (there is no wall-clock fallback), so a
config fully determines every artifact. `--seed N` on the command line
replaces all stage seeds with N plus fixed offsets; `--out DIR` replaces the
workdir. Unknown keys are rejected to catch typos early.

A section whose stage has a spec class (synth, window, noise, entropy, psd,
smote, split, train) is an instance of that class, so each section is
validated by its stage's own rules when the file is loaded: a bad value fails
as InvalidFormat naming the section before any stage runs. The filter, model
and stream sections run their spec's rules on the values they hold. First, a
key whose default is an int, float, str or dict takes only a value of that
JSON kind (dataset's kinds: an int for a float; never a bool), one whose default
is a tuple of numbers takes only a list of numbers, every seed must be >= 0, and
no number may be NaN or infinite (json.load accepts both).
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

from .dataset import (_KINDS, DEFAULT_WINDOW_LEN, SmoteSpec, SplitSpec, WindowSpec, _all_of_kind,
                      _check_keys, read_json_object)
from .entropy import EntropyParams, NoiseSpec
from .errors import AffektError, InvalidFormat
from .features import PsdSpec
from .nn import BlockSpec
from .signals import FilterKind, FilterSpec
from .stream import StreamSpec
from .synth import SynthSpec
from .training import TrainConfig

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


@dataclass(frozen=True)
class FilterSection:
    """FilterSpec without fs_hz, which comes from the recording."""

    kind: str = "bandstop"
    order_n: int = 4
    edges_hz: tuple = (48.0, 52.0)

    def __post_init__(self) -> None:
        kinds = [k.value for k in FilterKind]
        if self.kind not in kinds:
            raise InvalidFormat(f"kind must be one of {kinds}, got {self.kind!r}")
        # Every rule but the Nyquist bound, which waits for the recording's rate.
        self.spec(math.inf)

    def spec(self, fs_hz: float) -> FilterSpec:
        return FilterSpec(self.kind, self.order_n, self.edges_hz, fs_hz)


@dataclass(frozen=True)
class EntropySection(EntropyParams):
    n_windows: int = 1

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.n_windows < 1:
            raise InvalidFormat(f"entropy.n_windows must be >= 1, got {self.n_windows}")


@dataclass(frozen=True)
class FeaturizeSection:
    source: str = "clean"  # or "augmented"

    def __post_init__(self) -> None:
        if self.source not in ("clean", "augmented"):
            raise InvalidFormat(
                f"featurize.source must be clean or augmented, got {self.source!r}"
            )


@dataclass(frozen=True)
class ModelSection:
    preset: str = "cnn-small"
    blocks: tuple | None = None
    seed: int = 505

    def __post_init__(self) -> None:
        self.resolve_blocks()

    def resolve_blocks(self) -> tuple[BlockSpec, ...]:
        if self.blocks is not None:
            return tuple(BlockSpec(**dict(b)) for b in self.blocks)
        if self.preset not in MODEL_PRESETS:
            raise InvalidFormat(
                f"unknown model preset {self.preset!r}; known: {sorted(MODEL_PRESETS)}"
            )
        return tuple(BlockSpec(**dict(b)) for b in MODEL_PRESETS[self.preset])


@dataclass(frozen=True)
class StreamSection:
    """StreamSpec without window_len, which comes from window.length_samples."""

    hop_samples: int = 375
    trigger_consecutive: int = 1
    strategy_policy: str = "round_robin"
    source_subject: str = "sub-001"

    def __post_init__(self) -> None:
        self.spec()

    def spec(self, window_len: int = DEFAULT_WINDOW_LEN) -> StreamSpec:
        return StreamSpec(
            window_len, self.hop_samples, self.trigger_consecutive, self.strategy_policy
        )


@dataclass
class PipelineConfig:
    """Sections whose stage has a spec class are instances of it, with config seeds."""

    workdir: str
    synth: SynthSpec = field(default_factory=lambda: SynthSpec(seed=101))
    filter: FilterSection = FilterSection()
    window: WindowSpec = WindowSpec()
    noise: NoiseSpec = NoiseSpec(seed=202)
    entropy: EntropySection = EntropySection()
    psd: PsdSpec = PsdSpec()
    smote: SmoteSpec = SmoteSpec(seed=303)
    split: SplitSpec = SplitSpec(seed=404)
    featurize: FeaturizeSection = FeaturizeSection()
    model: ModelSection = ModelSection()
    train: TrainConfig = TrainConfig(seed=606)
    stream: StreamSection = StreamSection()


_SECTIONS = tuple(f.name for f in dataclasses.fields(PipelineConfig) if f.name != "workdir")


def _finite(value) -> bool:
    """False if value is, or a list or object in it holds, a NaN or infinite float."""
    if isinstance(value, float):
        return math.isfinite(value)
    if isinstance(value, dict):
        value = list(value.values())
    return not isinstance(value, list) or all(_finite(v) for v in value)


def _build_section(default, data, where: str):
    """The default section with data's keys replaced, validated by the section's own rules."""
    if not isinstance(data, dict):
        raise InvalidFormat(f"config section {where!r} must be a JSON object")
    unknown = sorted(set(data) - {f.name for f in dataclasses.fields(default)})
    if unknown:
        raise InvalidFormat(f"config section {where!r}: unknown keys {unknown}")
    # a key whose default is of no kind (None, a bool, a tuple) is left to the rules below
    kinds = {key: kind for key in data if (kind := type(getattr(default, key))) in _KINDS}
    _check_keys(f"config section {where!r}", [data], kinds)
    coerced = {}
    for key, value in data.items():
        if key == "seed" and value < 0:
            raise InvalidFormat(f"config section {where!r}: seed must be >= 0, got {value!r}")
        numbers = getattr(default, key)  # a tuple of numbers takes a list of numbers
        if type(numbers) is tuple and _all_of_kind(numbers, float) and not (
                type(value) is list and _all_of_kind(value, float)):
            raise InvalidFormat(f"config section {where!r}: {key} must be a list of numbers, got {value!r}")
        if not _finite(value):
            raise InvalidFormat(f"config section {where!r}: {key} must be finite, got {value!r}")
        if isinstance(value, list):
            value = tuple(tuple(v) if isinstance(v, list) else v for v in value)
        coerced[key] = value
    try:
        return dataclasses.replace(default, **coerced)
    except (AffektError, ValueError, TypeError) as exc:
        raise InvalidFormat(f"config section {where!r}: {exc}") from exc


def config_from_dict(data: dict) -> PipelineConfig:
    _check_keys("config", [data], {"workdir": str})
    unknown = sorted(set(data) - set(_SECTIONS) - {"workdir"})
    if unknown:
        raise InvalidFormat(f"config: unknown top-level keys {unknown}")
    cfg = PipelineConfig(workdir=data["workdir"])
    for name in _SECTIONS:
        setattr(cfg, name, _build_section(getattr(cfg, name), data.get(name, {}), name))
    return cfg


def load_config(path, seed_override: int | None = None, out_override: str | None = None) -> PipelineConfig:
    cfg = config_from_dict(read_json_object(Path(path)))
    if out_override is not None:
        cfg.workdir = str(out_override)
    if seed_override is not None:
        apply_seed_override(cfg, seed_override)
    return cfg


def apply_seed_override(cfg: PipelineConfig, seed: int) -> None:
    """Rewrite every stage seed as seed + fixed offset."""
    for offset, name in enumerate(("synth", "noise", "smote", "split", "model", "train"), 1):
        setattr(cfg, name, _build_section(getattr(cfg, name), {"seed": seed + offset}, name))


def default_config_dict(workdir: str = "runs/demo") -> dict:
    """A complete config with every key explicit; handy as a starting file."""
    return json.loads(json.dumps(dataclasses.asdict(PipelineConfig(workdir=workdir))))
