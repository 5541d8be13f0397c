"""Every per-layer metric that BENCHMARK.json names after a function names a public one,
and every work count that the bench tracer reads off a layer's result still counts.

The bench traces `<layer>.<function>` by wrapping affekt.<layer>.<function>; a metric
whose function is renamed or deleted would silently stop being emitted. Its counters
read fields of layer results, so a change to a result type could silently zero them.
"""

import importlib
import inspect
import json
import sys
import warnings
from collections import defaultdict
from pathlib import Path

import numpy as np
import pytest

from affekt.dataset import BINARY_CLASS_NAMES, SmoteSpec, smote_resample
from affekt.entropy import EntropyParams, multiscale_entropy
from affekt.features import PsdSpec
from affekt.nn import BlockSpec, CnnConfig, backward, forward, init_params
from affekt.signals import Recording, design_filter, powerline_notch
from affekt.stream import StreamSpec, stream_classify
from affekt.training import TrainConfig, train

sys.path.append(str(Path(__file__).resolve().parent.parent / "bench"))

from tracing import COUNTERS  # noqa: E402

SPAN_FIELDS = ("s", "calls", "self_s", "samples", "gflop", "gflop_per_s")
BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
TRACED = sorted({tuple(m["name"].split(".")[:2]) for m in BENCHMARK["per_layer"]
                 if m["name"].count(".") == 2 and m["name"].rsplit(".", 1)[1] in SPAN_FIELDS})


def test_benchmark_names_traced_functions():
    assert ("dataset", "extract_windows") in TRACED
    assert ("pipeline", "cmd_preprocess") in TRACED


@pytest.mark.parametrize("layer, function", TRACED)
def test_traced_function_is_public_in_its_module(layer, function):
    module = importlib.import_module(f"affekt.{layer}")
    obj = getattr(module, function, None)
    assert not function.startswith("_")
    assert inspect.isfunction(obj), f"affekt.{layer}.{function} is not a function"
    assert obj.__module__ == module.__name__, f"{function} is defined in {obj.__module__}"


def _count(layer: str, *args):
    """Run the layer on args, feed its result to the layer's bench counter; the counts."""
    module, function = layer.split(".")
    result = getattr(importlib.import_module(f"affekt.{module}"), function)(*args)
    counts = defaultdict(float)
    COUNTERS[layer](counts, args, result)
    return counts, result


def test_every_counter_is_checked_below():
    assert sorted(COUNTERS) == ["dataset.smote_resample", "entropy.multiscale_entropy",
                                "nn.backward", "nn.forward", "stream.stream_classify",
                                "training.train"]


def test_network_counters_count_samples_and_conv_flop():
    # one stride-2 block of width 3 on 4x8 inputs: 2x4 output pixels, 1 input channel, 9 taps
    cfg = CnnConfig(4, 8, (BlockSpec(3, 2),), 2, seed=0)
    params = init_params(cfg)
    x = np.random.default_rng(0).standard_normal((5, 4, 8))
    counts, _ = _count("nn.backward", params, cfg, x, np.eye(2)[[0, 1, 0, 1, 0]])
    assert counts["nn.backward.samples"] == 5
    assert counts["nn.backward.flop"] == 3 * 2 * (5 * 2 * 4 * 3 * 1 * 9)
    counts, _ = _count("nn.forward", params, cfg, x)
    assert counts["nn.forward.samples"] == 5


def test_smote_counter_counts_synthetics():
    features = np.random.default_rng(1).standard_normal((9, 3))
    labels = np.array([0] * 7 + [1] * 2)
    counts, (out_x, _, _) = _count("dataset.smote_resample", features, labels, SmoteSpec(1, 0))
    assert counts["dataset.smote_synthetics"] == 5 == len(out_x) - len(features)


def test_entropy_counter_counts_undefined_scales():
    # a ramp of unit steps: within r = 0.15 sigma only at scale 1, where steps are 1
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        counts, profile = _count("entropy.multiscale_entropy", np.arange(40.0),
                                 EntropyParams(m=2, r_factor=0.15, max_scale=5))
    assert [tau for tau, v in profile.per_scale if v is None] == [2, 3, 4, 5]
    assert counts["entropy.undefined_scales"] == 4


def test_train_counter_counts_epochs_run():
    # the validation set is of the other class, so its loss only worsens and training stops
    cfg = CnnConfig(1, 2, (), 2, seed=0)
    x = np.tile(np.array([[[1.0, -1.0]]]), (4, 1, 1))
    batches = [(x, np.tile([1.0, 0.0], (4, 1)))], [(x, np.tile([0.0, 1.0], (4, 1)))]
    counts, result = _count("training.train", cfg, TrainConfig(max_epochs=50, patience=3),
                            *batches)
    assert result.stopped_epoch == 4 < 50
    assert counts["training.epochs"] == result.stopped_epoch


def test_stream_counter_counts_windows_and_their_times():
    rng = np.random.default_rng(2)
    rec = Recording("sub-001", 512.0, ["a", "b"], rng.standard_normal((2, 1500 + 3 * 375)))
    cfg = CnnConfig(2, 128, (), 2, seed=0)
    counts, result = _count("stream.stream_classify", rec, design_filter(powerline_notch(512.0)),
                            PsdSpec(), init_params(cfg), cfg, BINARY_CLASS_NAMES, StreamSpec())
    assert counts["stream.windows"] == len(result.decisions) == 4
    assert counts["stream.proc_ms"] == [d.proc_ms for d in result.decisions]
