"""Artifact writers: in-place rewrites that leave exactly the new bytes, and one
way of opening a file for writing in the package."""

import ast
import os
from pathlib import Path

import numpy as np
import pytest

import affekt
from affekt import pipeline
from affekt.checkpoint import save_checkpoint
from affekt.dataset import (
    EmotionEvent,
    open_artifact,
    write_events,
    write_json_object,
    write_window_file,
)
from affekt.features import write_feature_file
from affekt.nn import BlockSpec, CnnConfig, init_params


def _window(path, n):
    write_window_file(path, np.arange(4 * n, dtype=np.float64).reshape(4, n))


def _json(path, n):
    write_json_object(path, {"values": list(range(n)), "n": n})


def _events(path, n):
    write_events(path, [EmotionEvent(float(i), 2.5, "stimulus", 5.0, 6.0, "joy") for i in range(n)])


def _features(path, n):
    write_feature_file(path, np.linspace(-1.0, 1.0, 4 * n).reshape(4, n), label_id=3)


def _checkpoint(path, n):
    cfg = CnnConfig(input_channels=4, input_bins=8, blocks=(BlockSpec(3, 2, False),),
                    n_classes=n, seed=1)
    save_checkpoint(path, cfg, init_params(cfg), meta={"task": "binary"})


def _jsonl(path, n):
    pipeline._write_jsonl(path, ({"row": i, "loss": 1.0 / (i + 1)} for i in range(n)))


WRITERS = {
    "window_file": _window,
    "json_object": _json,
    "events": _events,
    "feature_file": _features,
    "checkpoint": _checkpoint,
    "jsonl": _jsonl,
}


@pytest.mark.parametrize("write", WRITERS.values(), ids=WRITERS.keys())
def test_rewrite_over_a_longer_file_holds_exactly_the_new_bytes(tmp_path, write):
    fresh, rewritten = tmp_path / "fresh", tmp_path / "rewritten"
    write(fresh, 50)
    write(rewritten, 100)
    longer = rewritten.read_bytes()
    write(rewritten, 50)
    assert len(longer) > len(fresh.read_bytes())
    assert rewritten.read_bytes() == fresh.read_bytes()


def test_new_artifact_gets_the_permissions_of_open(tmp_path):
    old = os.umask(0o027)
    try:
        with open_artifact(tmp_path / "helper", "w") as fh:
            fh.write("x")
        with open(tmp_path / "builtin", "w") as fh:
            fh.write("x")
    finally:
        os.umask(old)
    helper, builtin = (os.stat(tmp_path / name).st_mode for name in ("helper", "builtin"))
    assert helper == builtin
    assert helper & 0o777 == 0o640


HELPER = ("dataset.py", "open_artifact")
WRITE_METHODS = {"tofile", "write_text", "write_bytes"}


def _write_opens(tree: ast.AST, helper: str | None, in_helper: bool = False):
    """(line, what) of each call in tree, outside the function named helper, that
    opens a path for writing."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, ast.FunctionDef):
            yield from _write_opens(node, helper, in_helper or node.name == helper)
            continue
        if isinstance(node, ast.Call) and not in_helper:
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name == "open":
                # open(path, mode), os.open(path, flags), io.open(path, mode); path.open(mode)
                at = 0 if isinstance(func, ast.Attribute) and not (
                    isinstance(func.value, ast.Name) and func.value.id in ("os", "io")) else 1
                mode = node.args[at] if len(node.args) > at else next(
                    (kw.value for kw in node.keywords if kw.arg == "mode"), ast.Constant("r"))
                if not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)
                        and not set(mode.value) & set("wax+")):
                    yield node.lineno, ast.unparse(node)
            elif isinstance(func, ast.Attribute) and name in WRITE_METHODS:
                yield node.lineno, ast.unparse(node)
        yield from _write_opens(node, helper, in_helper)


def test_every_write_goes_through_open_artifact():
    package = Path(affekt.__file__).parent
    assert f"def {HELPER[1]}(" in (package / HELPER[0]).read_text()
    found = [
        f"{path.name}:{line}: {call}"
        for path in sorted(package.glob("*.py"))
        for line, call in _write_opens(ast.parse(path.read_text(), str(path)),
                                       HELPER[1] if path.name == HELPER[0] else None)
    ]
    assert not found, "open files for writing through dataset.open_artifact:\n" + "\n".join(found)


def test_every_manifest_read_goes_through_its_reader():
    # dataset.read_window_manifest and read_feature_manifest check each key a
    # stage reads; a stage that parsed a manifest itself would skip the checks
    tree = ast.parse(Path(pipeline.__file__).read_text())
    found = [
        f"pipeline.py:{node.lineno}: {ast.unparse(node)}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and (getattr(node.func, "attr", None) or getattr(node.func, "id", None))
        in ("read_json_object", "load", "loads")
    ]
    assert not found, "read manifests through their dataset readers:\n" + "\n".join(found)
