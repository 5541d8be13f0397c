"""Every per-layer metric that BENCHMARK.json names after a function names a public one.

The bench traces `<layer>.<function>` by wrapping affekt.<layer>.<function>; a metric
whose function is renamed or deleted would silently stop being emitted.
"""

import importlib
import inspect
import json
from pathlib import Path

import pytest

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
