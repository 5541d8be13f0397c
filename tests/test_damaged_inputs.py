"""Every JSON value of the files that stages read, swapped for a damaged one in turn.

The sidecar, both manifests and the checkpoint's config header (its meta included)
each get every value replaced by 2.5, true, "x", null, [], {}, -1, 0 and 10^12, and
each integer also by the same number as a float. Each reader must then either refuse
the file with a UsageError that names it, or return values of the kinds it declares.
"""

import json
import math
import struct
import sys

import numpy as np
import pytest

from affekt import nn, training
from affekt.checkpoint import load_checkpoint, save_checkpoint
from affekt.dataset import (
    BINARY_CLASS_NAMES,
    EVENT_COLUMNS,
    SPLIT_NAMES,
    load_recording,
    read_feature_manifest,
    read_window_manifest,
    write_events,
    write_json_object,
    write_window_file,
)
from affekt.errors import UsageError
from affekt.nn import BlockSpec, CnnConfig, init_params, param_shapes

SWAPS = {"2.5": 2.5, "true": True, "x": "x", "null": None, "list": [], "object": {},
         "-1": -1, "0": 0, "1e12": 10**12}

SIDECAR = {"subject_id": "sub-001", "sample_rate_hz": 512.0, "channel_names": ["TP9", "AF7"],
           "n_samples": 4}

WINDOW_MANIFEST = {
    "channel_names": ["TP9", "AF7"],
    "emotion_table": {"neutral": 1, "sad": 0},
    "rating_dimension": "arousal",
    "sample_rate_hz": 512.0,
    "skipped_events": 0,
    "split_order": {"test": ["sub-001-e001"], "train": ["sub-001-e000"], "val": []},
    "thresholds": [4.0, 6.0],
    "window_len": 4,
    "windows": [
        {"binary": "negative", "categorical": 0, "emotion": "sad", "file": "sub-001-e000.f32",
         "id": "sub-001-e000", "rating": 2.5, "split": "train", "subject_id": "sub-001"},
        {"binary": None, "categorical": 1, "emotion": "neutral", "file": "sub-001-e001.f32",
         "id": "sub-001-e001", "rating": 4.5, "split": "test", "subject_id": "sub-001"},
    ],
}

FEATURE_MANIFEST = {
    "bin_freqs_hz": [1.0, 2.0],
    "emotion_table": {"neutral": 1, "sad": 0},
    "fs_hz": 512.0,
    "n_bins": 2,
    "n_channels": 2,
    "records": [
        {"binary": "negative", "categorical": 0, "file": "sub-001-e000.eegf", "id": "sub-001-e000",
         "split": "train", "synthetic": False, "task": "both", "window_id": "sub-001-e000"},
        {"binary": "positive", "categorical": None, "file": "smote-bin-0000.eegf",
         "id": "smote-bin-0000", "split": "train", "synthetic": True, "task": "binary",
         "window_id": None},
    ],
    "source": "clean",
    "train_order": ["sub-001-e000"],
}

CNN = CnnConfig(input_channels=2, input_bins=3, blocks=(BlockSpec(2, 2, False),), n_classes=2,
                seed=505)
META = {"class_names": list(BINARY_CLASS_NAMES), "source": "clean", "task": "binary"}
CHECKPOINT_HEADER = {"blocks": [{"out_width": 2, "residual": False, "stride": 2}],
                     "input_bins": 3, "input_channels": 2, "meta": META, "n_classes": 2,
                     "seed": 505}


def _paths(doc, at=()):
    """The path of every value inside doc, depth first."""
    for key, value in doc.items() if isinstance(doc, dict) else enumerate(doc):
        yield (*at, key)
        if isinstance(value, (dict, list)):
            yield from _paths(value, (*at, key))


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def _swapped(doc, path, value):
    """A copy of doc with the value at path replaced by value."""
    doc = json.loads(json.dumps(doc))
    _at(doc, path[:-1])[path[-1]] = value
    return doc


def _load_sidecar(path, sidecar):
    subject = path.parent
    subject.mkdir()
    write_json_object(path, sidecar)
    write_window_file(subject / "eeg.f32", np.zeros((2, 4)))
    write_events(subject / "events.tsv",
                 [dict(zip(EVENT_COLUMNS, (0.0, 1.0, "stimulus", 5.0, 7.0, "sad")))])
    rec, events = load_recording(subject)
    assert type(rec.subject_id) is str
    assert type(rec.sample_rate_hz) is float and 0 < rec.sample_rate_hz < math.inf
    assert type(rec.channel_names) is list
    assert rec.data.dtype == np.float64
    assert rec.data.shape == (len(rec.channel_names), sidecar["n_samples"])
    assert [ev["emotion"] for ev in events] == ["sad"]


def _check_table(manifest) -> tuple:
    table = manifest["emotion_table"]
    assert type(table) is dict
    ids = list(table.values())
    assert all(type(i) is int for i in ids) and sorted(ids) == list(range(len(ids)))
    return tuple(ids)


def _check_records(records, ids, categorical_kinds, keys):
    assert type(records) is list
    for record in records:
        assert type(record) is dict
        assert type(record["id"]) is str and type(record["file"]) is str
        assert record["split"] in SPLIT_NAMES
        assert record["binary"] in (None, *BINARY_CLASS_NAMES)
        assert type(record["categorical"]) in (int, type(None))
        assert record["categorical"] in categorical_kinds
        for key, allowed in keys.items():
            assert record[key] in allowed


def _load_window_manifest(path, manifest):
    write_json_object(path, manifest)
    got = read_window_manifest(path)
    assert type(got["sample_rate_hz"]) in (int, float) and type(got["window_len"]) is int
    assert type(got["channel_names"]) is list and type(got["split_order"]) is dict
    ids = _check_table(got)
    assert got["windows"]
    _check_records(got["windows"], ids, ids, {})
    known = {w["id"] for w in got["windows"]}
    assert len(known) == len(got["windows"])
    train = got["split_order"]["train"]
    assert type(train) is list and all(type(i) is str and i in known for i in train)


def _load_feature_manifest(path, manifest):
    write_json_object(path, manifest)
    got = read_feature_manifest(path)
    assert type(got["source"]) is str
    assert type(got["train_order"]) is list and all(type(i) is str for i in got["train_order"])
    assert type(got["n_channels"]) is int and type(got["n_bins"]) is int
    ids = _check_table(got)
    _check_records(got["records"], ids, (None, *ids), {"task": ("both", "binary", "categorical")})


def _load_checkpoint(path, header):
    save_checkpoint(path, CNN, init_params(CNN), META)
    raw = path.read_bytes()
    (blob_len,) = struct.unpack_from("<I", raw, 8)
    assert json.loads(raw[12:12 + blob_len]) == CHECKPOINT_HEADER
    blob = json.dumps(header, sort_keys=True).encode()
    path.write_bytes(raw[:8] + struct.pack("<I", len(blob)) + blob + raw[12 + blob_len:])
    cfg, params, meta = load_checkpoint(path)
    for name, least in (("input_channels", 1), ("input_bins", 1), ("n_classes", 2), ("seed", 0)):
        value = getattr(cfg, name)
        assert type(value) is int and value >= least, (name, value)
    for block in cfg.blocks:
        assert type(block.out_width) is int and block.out_width >= 1
        assert type(block.stride) is int and block.stride in (1, 2)
        assert type(block.residual) is bool
    assert type(meta) is dict
    names = meta.get("class_names", [])
    assert type(names) is list and all(type(n) is str for n in names)
    assert {name: p.shape for name, p in params.items()} == param_shapes(cfg)
    assert all(p.dtype == np.float64 for p in params.values())


# name: (document, the file it is written to, the reader with its checks of the result)
DOCUMENTS = {
    "sidecar": (SIDECAR, "sub-001/eeg.json", _load_sidecar),
    "window_manifest": (WINDOW_MANIFEST, "windows.json", _load_window_manifest),
    "feature_manifest": (FEATURE_MANIFEST, "manifest.json", _load_feature_manifest),
    "checkpoint_header": (CHECKPOINT_HEADER, "model.ckpt", _load_checkpoint),
}


def _swap_cases():
    for name, (doc, _, _) in DOCUMENTS.items():
        for path in _paths(doc):
            swaps = dict(SWAPS)
            if type(value := _at(doc, path)) is int:
                swaps["as_float"] = float(value)
            for label, swap in swaps.items():
                yield pytest.param(name, path, swap,
                                   id=f"{name}:{'.'.join(map(str, path))}={label}")


@pytest.mark.parametrize("document, at, swap", list(_swap_cases()))
def test_swapped_value_is_refused_naming_the_file_or_read_as_declared(tmp_path, document, at,
                                                                      swap):
    doc, rel, load = DOCUMENTS[document]
    path = tmp_path / rel
    try:
        load(path, _swapped(doc, at, swap))
    except UsageError as exc:
        # a sidecar's n_samples sizes the eeg.f32 beside it, which the message may name instead
        named = path.parent if document == "sidecar" else path
        assert str(named) in str(exc)


def test_checkpoints_are_read_and_written_without_drawing_a_network(tmp_path, monkeypatch):
    params = init_params(CNN)
    assert list(params) == list(param_shapes(CNN))
    assert {name: p.shape for name, p in params.items()} == param_shapes(CNN)

    def refuse(cfg):
        raise AssertionError("init_params called")

    real = nn.init_params
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "affekt" and getattr(module, "init_params", None) is real:
            monkeypatch.setattr(module, "init_params", refuse)
    assert training.init_params is refuse
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, CNN, params, META)
    cfg, loaded, meta = load_checkpoint(path)
    assert (cfg, meta) == (CNN, META)
    assert all(np.array_equal(loaded[n], params[n].astype("<f4")) for n in params)
