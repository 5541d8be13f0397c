"""Model checkpoint container.

Layout: 4-byte magic "EEGM", u32 version, u32 config length, config JSON
(UTF-8), then tensor records until end of file. Each record is u32 name
length, name bytes, u32 rank, u32 dims, then the row-major payload as
little-endian float32. Tensors are written in sorted-name order so identical
models produce identical bytes.
"""

from __future__ import annotations

import json
import struct
from dataclasses import asdict

import numpy as np

from .dataset import open_artifact, open_input
from .errors import InvalidFormat, ShapeMismatch
from .nn import CnnConfig, init_params

CHECKPOINT_MAGIC = b"EEGM"
CHECKPOINT_VERSION = 1
MAX_RANK = 8


def _misfit(cfg: CnnConfig, params: dict[str, np.ndarray]) -> str | None:
    """How params differ in tensor names or shapes from cfg's network; None if they fit."""
    expected = {name: p.shape for name, p in init_params(cfg).items()}
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
    with open_artifact(path) as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<II", CHECKPOINT_VERSION, len(blob)))
        fh.write(blob)
        for name in sorted(params):
            tensor = np.asarray(params[name])
            encoded = name.encode("utf-8")
            fh.write(struct.pack("<I", len(encoded)))
            fh.write(encoded)
            fh.write(struct.pack("<I", tensor.ndim))
            for dim in tensor.shape:
                fh.write(struct.pack("<I", dim))
            fh.write(np.ascontiguousarray(tensor, dtype="<f4"))


def _read_exact(fh, count: int, path, what: str) -> bytes:
    data = fh.read(count)
    if len(data) != count:
        raise InvalidFormat(f"{path}: file ended inside {what}")
    return data


def load_checkpoint(path) -> tuple[CnnConfig, dict[str, np.ndarray], dict]:
    """Returns (config, params as float64, meta dict).

    A missing path is MissingFile. A directory, a header that is not a valid
    config, and tensors whose names or shapes differ from the ones that
    config's network has, are InvalidFormat.
    """
    with open_input(path) as fh:
        magic = fh.read(4)
        if magic != CHECKPOINT_MAGIC:
            raise InvalidFormat(f"{path}: bad magic {magic!r}")
        version, blob_len = struct.unpack("<II", _read_exact(fh, 8, path, "header"))
        if version != CHECKPOINT_VERSION:
            raise InvalidFormat(f"{path}: unsupported version {version}")
        blob = _read_exact(fh, blob_len, path, "config")
        try:
            header = json.loads(blob.decode("utf-8"))
            meta = header.pop("meta", {})
            cfg = CnnConfig(**header)
        except (ValueError, TypeError, AttributeError, ShapeMismatch) as exc:
            raise InvalidFormat(f"{path}: bad config header: {exc}") from None
        params: dict[str, np.ndarray] = {}
        while True:
            lead = fh.read(4)
            if not lead:
                break
            if len(lead) != 4:
                raise InvalidFormat(f"{path}: file ended inside a record header")
            (name_len,) = struct.unpack("<I", lead)
            name = _read_exact(fh, name_len, path, "tensor name").decode("utf-8")
            (rank,) = struct.unpack("<I", _read_exact(fh, 4, path, "tensor rank"))
            if rank > MAX_RANK:
                raise InvalidFormat(f"{path}: implausible rank {rank} for {name}")
            dims = struct.unpack(
                f"<{rank}I", _read_exact(fh, 4 * rank, path, "tensor dims")
            )
            count = int(np.prod(dims, dtype=np.int64)) if rank else 1
            payload = _read_exact(fh, 4 * count, path, f"payload of {name}")
            params[name] = np.frombuffer(payload, dtype="<f4").reshape(dims).astype(np.float64)
    misfit = _misfit(cfg, params)
    if misfit:
        raise InvalidFormat(f"{path}: {misfit}")
    return cfg, params, meta
