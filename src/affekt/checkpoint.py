"""Model checkpoint container.

Layout: 4-byte magic "EEGM", u32 version, u32 config length, config JSON
(UTF-8), then tensor records until end of file. Each record is u32 name
length, name bytes, u32 rank, u32 dims, then the row-major payload as
little-endian float32. Tensors are written in sorted-name order so identical
models produce identical bytes. A checkpoint is written as one list of parts and
read as one byte string, parsed field by field at offsets checked against its
length.

The config JSON holds CnnConfig's fields, whose dimensions, class count and seed
are integers (never a float or a bool), and an optional "meta" object whose
class_names, if present, is a list of strings. Tensor names and shapes are checked
against nn.param_shapes of the config: computed, not drawn, so neither reading nor
writing a checkpoint builds a network.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import asdict

import numpy as np

from .dataset import _all_of_kind, read_input, write_artifact
from .errors import InvalidFormat, ShapeMismatch
from .nn import CnnConfig, param_shapes

CHECKPOINT_MAGIC = b"EEGM"
CHECKPOINT_VERSION = 1
MAX_RANK = 8


def _misfit(cfg: CnnConfig, params: dict[str, np.ndarray]) -> str | None:
    """How params differ in tensor names or shapes from cfg's network; None if they fit."""
    expected = param_shapes(cfg)
    for name in sorted(expected.keys() | params.keys()):
        if name not in params:
            return f"tensor {name} is missing"
        if name not in expected:
            return f"tensor {name} is not part of the model"
        shape = np.shape(params[name])
        if shape != expected[name]:
            return f"tensor {name} has shape {shape}, the model needs {expected[name]}"
    return None


def save_checkpoint(path, cfg: CnnConfig, params: dict[str, np.ndarray], meta: dict | None = None) -> None:
    """Write params under cfg's header; params that do not fit cfg are ShapeMismatch, unwritten."""
    misfit = _misfit(cfg, params)
    if misfit:
        raise ShapeMismatch(f"{path}: {misfit}")
    header = asdict(cfg)
    if meta:
        header["meta"] = meta
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    parts = [CHECKPOINT_MAGIC + struct.pack("<II", CHECKPOINT_VERSION, len(blob)) + blob]
    for name in sorted(params):
        tensor = np.asarray(params[name])
        encoded = name.encode("utf-8")
        parts.append(struct.pack("<I", len(encoded)) + encoded
                     + struct.pack(f"<I{tensor.ndim}I", tensor.ndim, *tensor.shape))
        parts.append(np.ascontiguousarray(tensor, dtype="<f4"))
    write_artifact(path, *parts)


def _span(raw: bytes, at: int, count: int, path, what: str) -> slice:
    """The count bytes of raw from offset at; InvalidFormat if the file ends first."""
    if count > len(raw) - at:
        raise InvalidFormat(f"{path}: file ended inside {what}")
    return slice(at, at + count)


def load_checkpoint(path) -> tuple[CnnConfig, dict[str, np.ndarray], dict]:
    """Returns (config, params as float64, meta dict).

    A missing path is MissingFile. A directory, a header that is not a valid
    config or whose meta is not an object with a list of strings as class_names,
    and tensors whose names or shapes differ from the ones that config's network
    has, are InvalidFormat.
    """
    raw = read_input(path)
    if raw[:4] != CHECKPOINT_MAGIC:
        raise InvalidFormat(f"{path}: bad magic {raw[:4]!r}")
    version, blob_len = struct.unpack("<II", raw[_span(raw, 4, 8, path, "header")])
    if version != CHECKPOINT_VERSION:
        raise InvalidFormat(f"{path}: unsupported version {version}")
    blob = _span(raw, 12, blob_len, path, "config")
    try:
        header = json.loads(raw[blob].decode("utf-8"))
        meta = header.pop("meta", {})
        cfg = CnnConfig(**header)
    except (ValueError, TypeError, AttributeError, ShapeMismatch) as exc:
        raise InvalidFormat(f"{path}: bad config header: {exc}") from None
    names = meta.get("class_names", []) if type(meta) is dict else None
    if type(names) is not list or not _all_of_kind(names, str):
        raise InvalidFormat(f"{path}: meta must be an object holding class_names as a list "
                            f"of strings, got {meta!r}")
    params: dict[str, np.ndarray] = {}
    at = blob.stop
    while at < len(raw):
        (name_len,) = struct.unpack("<I", raw[_span(raw, at, 4, path, "a record header")])
        encoded = raw[_span(raw, at + 4, name_len, path, "tensor name")]
        try:
            name = encoded.decode("utf-8")
        except UnicodeDecodeError:
            raise InvalidFormat(f"{path}: tensor name {encoded!r} is not UTF-8") from None
        at += 4 + name_len
        (rank,) = struct.unpack("<I", raw[_span(raw, at, 4, path, "tensor rank")])
        if rank > MAX_RANK:
            raise InvalidFormat(f"{path}: implausible rank {rank} for {name}")
        dims = struct.unpack(f"<{rank}I", raw[_span(raw, at + 4, 4 * rank, path, "tensor dims")])
        at += 4 + 4 * rank
        payload = _span(raw, at, 4 * math.prod(dims), path, f"payload of {name}")
        params[name] = np.frombuffer(raw[payload], "<f4").reshape(dims).astype(np.float64)
        at = payload.stop
    misfit = _misfit(cfg, params)
    if misfit:
        raise InvalidFormat(f"{path}: {misfit}")
    return cfg, params, meta
