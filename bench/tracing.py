"""Span tracer that instruments affekt from outside the package.

`Tracer.install()` replaces every public function defined in one of the
layer modules with a wrapper that records a span, at every name that
function is bound to anywhere in the package. `affekt.pipeline` imports
`psd_feature_values` by name, so the wrapper goes into both
`affekt.features.psd_feature_values` and `affekt.pipeline.psd_feature_values`;
wrapping only the defining module would miss every call made through the
importer's binding.

A span is (name, parent, start, end, phase); work counts are kept per phase. Spans stay in memory and are
written as JSONL by `write_jsonl` once the run is over. Self time is a span's
duration minus the durations of its direct children; the program is single
threaded, so children never overlap.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from collections import defaultdict

LAYERS = (
    "signals", "dataset", "features", "entropy", "nn",
    "training", "checkpoint", "stream", "synth", "pipeline",
)


def _conv_backward_flop(args) -> float:
    """FLOP of one nn.backward call, computed from layer shapes (not counted).

    Per conv block the forward contraction, the weight gradient and the input
    gradient are each one multiply-add per (sample, output pixel, output
    channel, input channel, tap); the dense head is ignored.
    """
    cfg, x = args[1], args[2]
    batch, h, w = x.shape
    width = 1
    macs = 0
    for block in cfg.blocks:
        h = (h - 1) // block.stride + 1
        w = (w - 1) // block.stride + 1
        macs += batch * h * w * block.out_width * width * 9
        width = block.out_width
    return 3 * 2 * macs


def _count_backward(counts, args, result):
    counts["nn.backward.samples"] += args[2].shape[0]
    counts["nn.backward.flop"] += _conv_backward_flop(args)


def _count_forward(counts, args, result):
    counts["nn.forward.samples"] += args[2].shape[0]


def _count_smote(counts, args, result):
    counts["dataset.smote_synthetics"] += int(result[2].sum())


def _count_mse(counts, args, result):
    counts["entropy.undefined_scales"] += result.n_undefined


def _count_train(counts, args, result):
    counts["training.epochs"] += len(result.epoch_log)


def _count_stream(counts, args, result):
    counts["stream.windows"] += len(result.decisions)
    counts.setdefault("stream.proc_ms", []).extend(d.proc_ms for d in result.decisions)


# Work counts read off a layer's arguments or result at its boundary.
COUNTERS = {
    "nn.backward": _count_backward,
    "nn.forward": _count_forward,
    "dataset.smote_resample": _count_smote,
    "entropy.multiscale_entropy": _count_mse,
    "training.train": _count_train,
    "stream.stream_classify": _count_stream,
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple | None] = []
        self.counts: dict = defaultdict(lambda: defaultdict(float))
        self.phase = "setup"
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append(None)
            self._stack.append(idx)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                self._stack.pop()
                self.spans[idx] = (name, parent, t0, t1, self.phase)
            if counter is not None:
                counter(self.counts[self.phase], args, result)
            return result

        return traced

    def install(self) -> None:
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"affekt.{layer}")
            for attr, obj in vars(module).items():
                if (
                    not attr.startswith("_")
                    and inspect.isfunction(obj)
                    and obj.__module__ == module.__name__
                ):
                    wrappers[obj] = self._wrap(f"{layer}.{attr}", obj)
        for modname, module in list(sys.modules.items()):
            if modname != "affekt" and not modname.startswith("affekt."):
                continue
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._restore.append((module, attr, obj))
                    setattr(module, attr, wrappers[obj])

    def uninstall(self) -> None:
        for module, attr, obj in reversed(self._restore):
            setattr(module, attr, obj)
        self._restore.clear()

    def totals(self, phase: str) -> dict[str, dict[str, float]]:
        """Per span name: total seconds, self seconds and call count in a phase."""
        child_s = defaultdict(float)
        for name, parent, t0, t1, _ in self.spans:
            if parent >= 0:
                child_s[parent] += t1 - t0
        out: dict[str, dict[str, float]] = defaultdict(lambda: {"s": 0.0, "self_s": 0.0, "calls": 0})
        for idx, (name, _, t0, t1, span_phase) in enumerate(self.spans):
            if span_phase != phase:
                continue
            entry = out[name]
            entry["s"] += t1 - t0
            entry["self_s"] += t1 - t0 - child_s[idx]
            entry["calls"] += 1
        return out

    def stage_seconds(self, phase: str) -> float:
        """Time inside top-level pipeline.cmd_* spans of a phase."""
        return sum(
            t1 - t0
            for name, parent, t0, t1, span_phase in self.spans
            if span_phase == phase and parent < 0 and name.startswith("pipeline.cmd_")
        )

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for idx, (name, parent, t0, t1, phase) in enumerate(self.spans):
                fh.write(
                    json.dumps(
                        {"id": idx, "name": name, "parent": parent, "phase": phase,
                         "start_s": t0, "end_s": t1}
                    )
                    + "\n"
                )
