"""Artifact writers: in-place rewrites that leave exactly the new bytes, also when
the system writes a few bytes per call; and one way each of opening a file for
writing and for reading in the package."""

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
    write_artifact,
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


@pytest.mark.parametrize("write", WRITERS.values(), ids=WRITERS.keys())
def test_short_writes_leave_the_bytes_of_a_normal_write(tmp_path, monkeypatch, write):
    normal, short = tmp_path / "normal", tmp_path / "short"
    write(normal, 50)
    write(short, 100)
    real_write = os.write
    monkeypatch.setattr(os, "write", lambda fd, data: real_write(fd, data[:7]))
    write(short, 50)
    assert short.read_bytes() == normal.read_bytes()


def test_new_artifact_gets_the_permissions_of_open(tmp_path):
    old = os.umask(0o027)
    try:
        write_artifact(tmp_path / "helper", b"x")
        with open(tmp_path / "builtin", "w") as fh:
            fh.write("x")
    finally:
        os.umask(old)
    helper, builtin = (os.stat(tmp_path / name).st_mode for name in ("helper", "builtin"))
    assert helper == builtin
    assert helper & 0o777 == 0o640


HELPER = ("dataset.py", "write_artifact")
READER = ("dataset.py", "read_input")
WRITE_METHODS = {"tofile", "write_text", "write_bytes"}
READ_METHODS = {"fromfile", "read_text", "read_bytes"}


def _opens(tree: ast.AST, helper: str | None, writes: bool, in_helper: bool = False):
    """(line, what) of each call in tree, outside the function named helper, that
    opens a path for writing (writes) or for reading (not writes). An open whose
    mode is not a constant read-only one counts as a write."""
    methods = WRITE_METHODS if writes else READ_METHODS
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, ast.FunctionDef):
            yield from _opens(node, helper, writes, in_helper or node.name == helper)
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
                reads = (isinstance(mode, ast.Constant) and isinstance(mode.value, str)
                         and not set(mode.value) & set("wax+"))
                if reads != writes:
                    yield node.lineno, ast.unparse(node)
            elif isinstance(func, ast.Attribute) and name in methods:
                yield node.lineno, ast.unparse(node)
        yield from _opens(node, helper, writes, in_helper)


def _package_opens(helper: tuple[str, str], writes: bool) -> list[str]:
    package = Path(affekt.__file__).parent
    assert f"def {helper[1]}(" in (package / helper[0]).read_text()
    return [
        f"{path.name}:{line}: {call}"
        for path in sorted(package.glob("*.py"))
        for line, call in _opens(ast.parse(path.read_text(), str(path)),
                                 helper[1] if path.name == helper[0] else None, writes)
    ]


def test_every_write_goes_through_write_artifact():
    found = _package_opens(HELPER, writes=True)
    assert not found, "write files through dataset.write_artifact:\n" + "\n".join(found)


def test_every_read_goes_through_read_input():
    found = _package_opens(READER, writes=False)
    assert not found, "read files through dataset.read_input:\n" + "\n".join(found)


def test_read_scanner_flags_a_bare_open_and_fromfile():
    snippet = "open(p)\nnp.fromfile(p)\nopen(p, 'wb')\n"
    assert [line for line, _ in _opens(ast.parse(snippet), None, writes=False)] == [1, 2]


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
