"""Reference checks on the artifacts of each workload, computed apart from affekt.

Every check recomputes a stage's output on a route of its own: scipy filter
design and one vectorised Welch call, pdist pair counts, a sliding-window CNN
forward pass, and readers of the binary formats written from their documented
layouts. A check raises CheckFailed on the first disagreement. None of them
runs inside a timed region.
"""

from __future__ import annotations

import csv
import json
import math
import struct
from collections import Counter
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy import signal as sps
from scipy.spatial.distance import pdist

# Window and feature payloads are stored as float32; values stay within a few
# units, so float32 rounding is below 1e-6.
F32_ATOL = 1e-5
# Probabilities from two float64 forward passes that sum in different orders.
PROB_ATOL = 1e-9
# Standard deviation of a Gaussian truncated at +-3 sigma, in units of sigma.
TRUNCATED_STD = math.sqrt(
    1.0 - 6.0 * math.exp(-4.5) / math.sqrt(2.0 * math.pi) / math.erf(3.0 / math.sqrt(2.0))
)
LOG_FLOOR = 1e-12


class CheckFailed(Exception):
    pass


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


# --- readers of the on-disk formats ---


def read_json(path) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def read_jsonl(path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def read_subject(subject_dir: Path) -> tuple[dict, np.ndarray, list[dict]]:
    sidecar = read_json(subject_dir / "eeg.json")
    shape = (len(sidecar["channel_names"]), sidecar["n_samples"])
    data = np.fromfile(subject_dir / "eeg.f32", dtype="<f4").reshape(shape).astype(np.float64)
    with open(subject_dir / "events.tsv", encoding="utf-8", newline="") as fh:
        events = list(csv.DictReader(fh, delimiter="\t"))
    return sidecar, data, events


def read_window(path: Path, shape: tuple[int, int]) -> np.ndarray:
    raw = np.fromfile(path, dtype="<f4")
    _require(raw.size == shape[0] * shape[1], f"{path.name}: {raw.size} floats, expected {shape}")
    return raw.reshape(shape).astype(np.float64)


def read_feature(path: Path) -> np.ndarray:
    """EEGF file: magic, u32 version, channels, bins, label, float32 payload."""
    blob = path.read_bytes()
    magic, _version, n_channels, n_bins, _label = struct.unpack_from("<4sIIII", blob)
    _require(magic == b"EEGF", f"{path.name}: bad magic {magic!r}")
    return np.frombuffer(blob, dtype="<f4", offset=20).reshape(n_channels, n_bins).astype(np.float64)


def read_checkpoint(path: Path) -> tuple[dict, dict[str, np.ndarray]]:
    """EEGM file: magic, u32 version, u32 header length, JSON header, tensor records."""
    blob = path.read_bytes()
    magic, _version, n = struct.unpack_from("<4sII", blob)
    _require(magic == b"EEGM", f"{path.name}: bad magic {magic!r}")
    header = json.loads(blob[12:12 + n])
    pos = 12 + n
    params = {}
    while pos < len(blob):
        (name_len,) = struct.unpack_from("<I", blob, pos)
        name = blob[pos + 4:pos + 4 + name_len].decode("utf-8")
        pos += 4 + name_len
        (rank,) = struct.unpack_from("<I", blob, pos)
        dims = struct.unpack_from(f"<{rank}I", blob, pos + 4)
        pos += 4 + 4 * rank
        count = int(np.prod(dims))
        params[name] = np.frombuffer(blob, "<f4", count, pos).reshape(dims).astype(np.float64)
        pos += 4 * count
    return header, params


# --- reference computations ---


def notch_sos(filt: dict, fs_hz: float) -> np.ndarray:
    edges = filt["edges_hz"]
    wn = edges[0] if len(edges) == 1 else list(edges)
    return sps.butter(filt["order_n"], wn, btype=filt["kind"], fs=fs_hz, output="sos")


def reference_clean(sos: np.ndarray, data: np.ndarray) -> np.ndarray:
    """Zero-phase filter, then population z-score per channel."""
    y = sps.sosfiltfilt(sos, data, axis=-1)
    return (y - y.mean(axis=-1, keepdims=True)) / y.std(axis=-1, keepdims=True)


def reference_psd(x: np.ndarray, fs_hz: float, psd: dict) -> np.ndarray:
    """Standardised log Welch power of every channel, from one welch call."""
    seg = psd["segment_len"] or int(round(fs_hz))
    freqs, power = sps.welch(
        x, fs=fs_hz, window="hann", nperseg=seg,
        noverlap=int(round(seg * psd["overlap_fraction"])),
        detrend="constant", scaling="density", axis=-1,
    )
    keep = (freqs > 0.0) & (freqs <= psd["max_freq_hz"])
    logp = np.log(power[..., keep] + LOG_FLOOR)
    axes = tuple(range(logp.ndim - 2, logp.ndim))
    return (logp - logp.mean(axis=axes, keepdims=True)) / logp.std(axis=axes, keepdims=True)


def reference_forward(header: dict, params: dict, x: np.ndarray) -> np.ndarray:
    """CNN class probabilities via sliding-window views instead of im2col."""
    a = x[:, None, :, :]
    for idx, block in enumerate(header["blocks"]):
        stride = block["stride"]
        padded = np.pad(a, ((0, 0), (0, 0), (1, 1), (1, 1)))
        taps = sliding_window_view(padded, (3, 3), axis=(2, 3))[:, :, ::stride, ::stride]
        pre = np.einsum("bchwuv,ocuv->bohw", taps, params[f"conv{idx}.w"], optimize=True)
        act = np.maximum(pre + params[f"conv{idx}.b"][None, :, None, None], 0.0)
        a = act + a if block["residual"] else act
    logits = a.mean(axis=(2, 3)) @ params["dense.w"] + params["dense.b"]
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def pair_counts(x: np.ndarray, m: int, r: float) -> tuple[int, int]:
    """(A, B): template pairs within Chebyshev distance r at lengths m+1 and m."""
    b = int(np.count_nonzero(pdist(sliding_window_view(x, m), "chebyshev") <= r))
    a = int(np.count_nonzero(pdist(sliding_window_view(x, m + 1), "chebyshev") <= r))
    return a, b


def mse_counts(x: np.ndarray, params: dict, count=pair_counts) -> list[tuple[int, int]]:
    """Per-scale (A, B) by `count(series, m, r)`, with r fixed from the scale-1 series."""
    r = params["r_factor"] * float(x.std())
    out = []
    for tau in range(1, params["max_scale"] + 1):
        n = x.size // tau
        out.append(count(x[: n * tau].reshape(n, tau).mean(axis=1), params["m"], r))
    return out


# --- offline-train ---


def check_windows(raw_dir: Path, windows_dir: Path, filt: dict, window_len: int) -> None:
    """Window files equal notch + z-score recomputed from the raw recordings."""
    for subject_dir in sorted(p for p in raw_dir.iterdir() if p.is_dir()):
        sidecar, data, events = read_subject(subject_dir)
        clean = reference_clean(notch_sos(filt, sidecar["sample_rate_hz"]), data)
        for idx, event in enumerate(events):
            start = int(round(float(event["onset"]) * sidecar["sample_rate_hz"]))
            want = clean[:, start:start + window_len]
            name = f"{sidecar['subject_id']}-e{idx:03d}.f32"
            got = read_window(windows_dir / name, want.shape)
            err = float(np.abs(got - want).max())
            _require(err <= F32_ATOL, f"{name}: max |diff| {err:.3g} from reference notch + z-score")


def check_psd(windows_dir: Path, features_dir: Path, psd: dict, window_ids: list[str]) -> None:
    """Feature matrices equal one welch(axis=-1) call, log and standardisation."""
    manifest = read_json(windows_dir / "windows.json")
    shape = (len(manifest["channel_names"]), manifest["window_len"])
    for wid in window_ids:
        want = reference_psd(read_window(windows_dir / f"{wid}.f32", shape),
                             manifest["sample_rate_hz"], psd)
        got = read_feature(features_dir / f"{wid}.eegf")
        _require(got.shape == want.shape, f"{wid}: feature shape {got.shape}, expected {want.shape}")
        err = float(np.abs(got - want).max())
        _require(err <= F32_ATOL, f"{wid}: max |diff| {err:.3g} from reference Welch matrix")


def train_records(manifest: dict, task: str) -> list[dict]:
    return [
        r for r in manifest["records"]
        if r["split"] == "train" and r["task"] in ("both", task) and r[task] is not None
    ]


def on_segment(point: np.ndarray, originals: np.ndarray, tol: float) -> bool:
    """True when point = x_i + u (x_j - x_i) for some originals i != j and u in [0, 1]."""
    for i in range(len(originals)):
        v = originals - originals[i]
        d = point - originals[i]
        vv = np.einsum("ij,ij->i", v, v)
        u = (v @ d) / np.where(vv > 0.0, vv, 1.0)
        resid = np.linalg.norm(d[None, :] - u[:, None] * v, axis=1)
        if np.any((vv > 0.0) & (u >= -1e-6) & (u <= 1.0 + 1e-6) & (resid <= tol)):
            return True
    return False


def check_smote(features_dir: Path) -> int:
    """Balanced train classes per task; every synthetic row on a same-class segment.

    Returns the number of synthetic rows checked.
    """
    manifest = read_json(features_dir / "manifest.json")
    checked = 0
    for task in ("categorical", "binary"):
        records = train_records(manifest, task)
        counts = Counter(r[task] for r in records)
        _require(len(set(counts.values())) == 1, f"{task}: train classes unbalanced {dict(counts)}")
        rows = {r["id"]: read_feature(features_dir / r["file"]).ravel() for r in records}
        tol = F32_ATOL * math.sqrt(next(iter(rows.values())).size)
        for label in counts:
            originals = np.stack(
                [rows[r["id"]] for r in records if r[task] == label and not r["synthetic"]]
            )
            for r in records:
                if r[task] == label and r["synthetic"]:
                    _require(on_segment(rows[r["id"]], originals, tol),
                             f"{task}: synthetic {r['id']} lies on no segment of class {label!r}")
                    checked += 1
    return checked


def check_loss_falls(model_dir: Path, stems: tuple[str, ...]) -> None:
    for stem in stems:
        log = read_jsonl(model_dir / f"{stem}_log.jsonl")
        first, last = log[0]["train_loss"], log[-1]["train_loss"]
        _require(last < first, f"{stem}: train loss {first:.4f} at epoch 1, {last:.4f} at the end")


EVAL_TASKS = (("task1", "binary", "task1_binary"), ("task2", "categorical", "task2_categorical"))


def check_eval(features_dir: Path, model_dir: Path, metrics_path: Path) -> None:
    """Reported test accuracy and loss equal a forward pass of our own."""
    manifest = read_json(features_dir / "manifest.json")
    metrics = read_json(metrics_path)
    for key, task, stem in EVAL_TASKS:
        header, params = read_checkpoint(model_dir / f"{stem}.ckpt")
        names = header["meta"]["class_names"]
        test = [r for r in manifest["records"] if r["split"] == "test" and r[task] is not None]
        x = np.stack([read_feature(features_dir / r["file"]) for r in test])
        labels = np.array([names.index(r[task]) if task == "binary" else r[task] for r in test])
        probs = reference_forward(header, params, x)
        acc = float((probs.argmax(axis=1) == labels).mean())
        loss = float(-np.log(np.maximum(probs[np.arange(len(labels)), labels], 1e-12)).mean())
        got_acc = metrics[key][f"{task}_accuracy"]
        got_loss = metrics[key][f"{task}_loss"]
        _require(abs(got_acc - acc) < 1e-12, f"{stem}: reported accuracy {got_acc}, reference {acc}")
        _require(abs(got_loss - loss) < 1e-9, f"{stem}: reported loss {got_loss}, reference {loss}")


# --- entropy-mse ---


def check_noise(windows_dir: Path, noisy_dir: Path, max_magnitude: float) -> None:
    """Every delta within +-max, and their spread that of the truncated Gaussian."""
    manifest = read_json(windows_dir / "windows.json")
    shape = (len(manifest["channel_names"]), manifest["window_len"])
    sq_sum = 0.0
    count = 0
    for record in manifest["windows"]:
        delta = (read_window(noisy_dir / record["file"], shape)
                 - read_window(windows_dir / record["file"], shape))
        worst = float(np.abs(delta).max())
        _require(worst <= max_magnitude + F32_ATOL,
                 f"{record['id']}: noise delta {worst:.4f} beyond max {max_magnitude}")
        sq_sum += float((delta ** 2).sum())
        count += delta.size
    std = math.sqrt(sq_sum / count)
    want = TRUNCATED_STD * max_magnitude / 3.0
    _require(abs(std / want - 1.0) < 0.02, f"noise std {std:.4f}, truncated Gaussian gives {want:.4f}")


def check_pair_counts(label: str, got: list[tuple[int, int]], want: list[tuple[int, int]]) -> None:
    for tau, (g, w) in enumerate(zip(got, want, strict=True), start=1):
        _require(tuple(g) == tuple(w), f"{label} scale {tau}: (A, B) {tuple(g)}, pdist gives {tuple(w)}")


def check_entropy_report(report: dict, windows: dict[str, dict[str, np.ndarray]],
                         params: dict, n_windows: int) -> None:
    """Every reported sample entropy equals -ln(A/B) from pdist pair counts.

    windows maps "clean"/"noisy" to {window id: (channels, samples) array}.
    """
    ids = sorted(windows["clean"])[:n_windows]
    _require([w["window_id"] for w in report["windows"]] == ids,
             f"report windows {[w['window_id'] for w in report['windows']]}, expected {ids}")
    for entry in report["windows"]:
        for ch_idx, channel in enumerate(entry["channels"]):
            for kind in ("clean", "noisy"):
                counts = mse_counts(windows[kind][entry["window_id"]][ch_idx], params)
                want = [None if a == 0 or b == 0 else -math.log(a / b) for a, b in counts]
                got = [s["sampen"] for s in channel[kind]["scales"]]
                label = f"{entry['window_id']}/{channel['channel']}/{kind}"
                _require(len(got) == len(want), f"{label}: {len(got)} scales, expected {len(want)}")
                for tau, (g, w) in enumerate(zip(got, want), start=1):
                    _require((g is None) == (w is None) and (w is None or abs(g - w) < 1e-9),
                             f"{label} scale {tau}: sampen {g}, pdist counts give {w}")


# --- stream-replay ---


def check_stream_grid(decisions, n_samples: int, window_len: int, hop: int, fs_hz: float) -> None:
    want = (n_samples - window_len) // hop + 1
    _require(len(decisions) == want, f"{len(decisions)} windows, expected {want}")
    for i, d in enumerate(decisions):
        start = i * hop
        _require(d.window_index == i and d.start_sample == start,
                 f"window {i}: index {d.window_index}, start {d.start_sample}")
        _require(d.timestamp_s == (start + window_len) / fs_hz,
                 f"window {i}: timestamp {d.timestamp_s}, expected {(start + window_len) / fs_hz}")


def reference_stream_probs(data: np.ndarray, fs_hz: float, filt: dict, psd: dict,
                           header: dict, params: dict, window_len: int, hop: int) -> np.ndarray:
    sos = notch_sos(filt, fs_hz)
    starts = range(0, data.shape[1] - window_len + 1, hop)
    chunks = np.stack([data[:, s:s + window_len] for s in starts])
    return reference_forward(header, params, reference_psd(reference_clean(sos, chunks), fs_hz, psd))


def check_stream_decisions(decisions, probs: np.ndarray, class_names: list[str]) -> None:
    for d, p in zip(decisions, probs, strict=True):
        cls = int(p.argmax())
        _require(d.class_index == cls and d.class_name == class_names[cls],
                 f"window {d.window_index}: class {d.class_name}, reference {class_names[cls]}")
        _require(abs(d.confidence - p[cls]) < PROB_ATOL,
                 f"window {d.window_index}: confidence {d.confidence}, reference {p[cls]}")


def expected_triggers(class_names_seq: list[str], consecutive: int) -> list[int]:
    """Window indices where the M-th negative in a row fires; the run then resets."""
    out = []
    run = 0
    for i, name in enumerate(class_names_seq):
        run = run + 1 if name == "negative" else 0
        if run == consecutive:
            out.append(i)
            run = 0
    return out


def check_triggers(decisions, events: list[dict], consecutive: int) -> None:
    want = expected_triggers([d.class_name for d in decisions], consecutive)
    got = [e["window_id"] for e in events]
    _require(got == want, f"events at windows {got[:8]}..., rule gives {want[:8]}... "
                          f"({len(got)} vs {len(want)})")
    for e in events:
        d = decisions[e["window_id"]]
        _require(e["t_s"] == d.timestamp_s and e["class"] == d.class_name
                 and e["confidence"] == d.confidence,
                 f"event at window {e['window_id']} disagrees with its decision")


def check_strategies(events: list[dict], strategies: tuple[str, ...]) -> None:
    for k, e in enumerate(events):
        want = strategies[k % len(strategies)]
        _require(e["strategy"] == want, f"event {k}: strategy {e['strategy']}, round robin gives {want}")


def check_proc_time(decisions, wall_s: float) -> None:
    total = sum(d.proc_ms for d in decisions) / 1e3
    _require(total <= wall_s, f"sum of proc_ms {total:.4f} s exceeds the stream's wall time {wall_s:.4f} s")
