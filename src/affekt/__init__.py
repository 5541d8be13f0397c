"""EEG emotion recognition pipeline.

Signal cleanup (Butterworth band-stop, standard score), disorder simulation
with entropy validation, Welch PSD feature matrices, a from-scratch CNN with
exact gradients, and a streaming intervention mode, all behind one CLI.
"""

from .dataset import (
    BINARY_CLASS_NAMES,
    BinaryClass,
    ClassLabel,
    EmotionEvent,
    LabeledWindow,
    SmoteSpec,
    SplitSpec,
    WindowSpec,
    extract_windows,
    label_from_ratings,
    load_recording,
    make_batches,
    smote_resample,
    split_windows,
)
from .entropy import (
    ChannelShift,
    EntropyParams,
    EntropyProfile,
    NoiseSpec,
    add_gaussian_noise,
    coarse_grain,
    complexity_shift_report,
    multiscale_entropy,
    sample_entropy,
    sample_entropy_abs,
    template_match_counts,
)
from .features import (
    PsdSpec,
    psd_feature_values,
    read_feature_file,
    welch_psd,
    write_feature_file,
)
from .nn import BlockSpec, CnnConfig, backward, cross_entropy, forward, init_params, softmax
from .signals import (
    FilterKind,
    FilterRealization,
    FilterSpec,
    Recording,
    design_filter,
    powerline_notch,
)
from .stream import STRATEGIES, InterventionEvent, StreamSpec, stream_classify
from .synth import SynthSpec, synth_generate
from .training import (
    AdamState,
    TrainConfig,
    TrainResult,
    adam_init,
    adam_step,
    evaluate,
    lr_at,
    train,
)

__version__ = "0.1.0"
