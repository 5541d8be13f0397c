"""The three benchmark workloads.

Each workload is a config for affekt's own stage functions (`affekt.pipeline.cmd_*`),
the stages that build its inputs (set-up, not timed in run_s), the stages of
one timed round, the end-to-end metrics of a round, and its reference checks.
Inputs come from `affekt.synth` under the benchmark seed, passed through the
same seed override as the CLI's `--seed`.

Every workload reports the same three end-to-end metrics; what a unit of work
is depends on the workload (see README.md):

    setup_s     set-up time
    run_s       time of one round of the timed stages
    work_per_s  units per second of the compute stage

They are CPU times here; run.py brings them to a fixed host speed with the
reference clock of calibrate.py.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import asdict
from pathlib import Path

import numpy as np

import checks


def _stage_seconds(round_result: dict, stage: str) -> float:
    """CPU seconds of a stage (see calibrate.py)."""
    return round_result["stages"][stage][0]


def _stage_wall_seconds(round_result: dict, stage: str) -> float:
    return round_result["stages"][stage][1]


def _stage_report(round_result: dict, stage: str) -> dict:
    return round_result["stages"][stage][2]


class Workload:
    name = ""
    sections: dict = {}
    setup_stages: tuple[str, ...] = ()
    round_stages: tuple[str, ...] = ()

    @contextmanager
    def capture(self, pipeline):
        """Hook around the timed loop; the stream workload keeps its decisions."""
        yield

    def round_metrics(self, cfg, result: dict) -> dict[str, float]:
        raise NotImplementedError

    def checks(self, cfg, result: dict, seed: int) -> list[tuple[str, object]]:
        """(name, zero-argument callable) pairs run after the timed loop."""
        raise NotImplementedError

    def inputs(self, cfg) -> dict:
        s = cfg.synth
        return {"subjects": s.n_subjects, "events_per_subject": s.events_per_subject,
                "channels": s.channels, "fs_hz": s.fs_hz, "class_mix": s.class_mix,
                "window_len": cfg.window.length_samples}


def _paths(cfg):
    root = Path(cfg.workdir)
    return {name: root / name for name in
            ("raw", "windows", "windows_noisy", "features", "model", "reports")}


class OfflineTrain(Workload):
    """Raw recordings to an evaluated classifier on a 128-channel cohort."""

    name = "offline-train"
    sections = {
        "synth": {"n_subjects": 4, "events_per_subject": 8, "channels": 128},
        "train": {"max_epochs": 5},
    }
    setup_stages = ("synth",)
    round_stages = ("preprocess", "featurize", "train", "eval")

    def round_metrics(self, cfg, result):
        manifest = checks.read_json(_paths(cfg)["features"] / "manifest.json")
        train_report = _stage_report(result, "train")
        samples = sum(
            len(checks.train_records(manifest, task)) * train_report[key]["epochs_run"]
            for key, task, _ in checks.EVAL_TASKS
        )
        return {
            "run_s": result["cpu_s"],
            "work_per_s": samples / _stage_seconds(result, "train"),
        }

    def checks(self, cfg, result, seed):
        p = _paths(cfg)
        filt, psd = asdict(cfg.filter), asdict(cfg.psd)
        ids = [r["id"] for r in checks.read_json(p["windows"] / "windows.json")["windows"]]
        sample = sorted(np.random.default_rng(seed).choice(ids, size=4, replace=False).tolist())
        return [
            ("notch_zscore", lambda: checks.check_windows(
                p["raw"], p["windows"], filt, cfg.window.length_samples)),
            ("welch_psd", lambda: checks.check_psd(p["windows"], p["features"], psd, sample)),
            ("smote", lambda: checks.check_smote(p["features"])),
            ("loss_falls", lambda: checks.check_loss_falls(
                p["model"], tuple(stem for _, _, stem in checks.EVAL_TASKS))),
            ("eval_accuracy", lambda: checks.check_eval(
                p["features"], p["model"], p["reports"] / "metrics.json")),
        ]


class EntropyMse(Workload):
    """Noise injection and its multiscale-entropy validation on a 2-channel cohort."""

    name = "entropy-mse"
    sections = {
        "synth": {"n_subjects": 128, "events_per_subject": 8, "channels": 2},
        "entropy": {"n_windows": 2},
    }
    setup_stages = ("synth", "preprocess")
    round_stages = ("augment", "entropy")

    def round_metrics(self, cfg, result):
        profiles = 2 * _stage_report(result, "entropy")["n_channels"]
        return {
            "run_s": result["cpu_s"],
            "work_per_s": profiles / _stage_seconds(result, "entropy"),
        }

    def checks(self, cfg, result, seed):
        from affekt.entropy import template_match_counts

        p = _paths(cfg)
        params = asdict(cfg.entropy)
        manifest = checks.read_json(p["windows"] / "windows.json")
        shape = (len(manifest["channel_names"]), manifest["window_len"])
        windows = {
            kind: {r["id"]: checks.read_window(p[folder] / r["file"], shape)
                   for r in manifest["windows"]}
            for kind, folder in (("clean", "windows"), ("noisy", "windows_noisy"))
        }
        report = checks.read_json(p["reports"] / "entropy.json")
        rng = np.random.default_rng(seed)
        wid = sorted(windows["clean"])[int(rng.integers(cfg.entropy.n_windows))]
        ch = int(rng.integers(shape[0]))

        def counts_match():
            for kind in ("clean", "noisy"):
                x = windows[kind][wid][ch]
                checks.check_pair_counts(f"{wid}/ch{ch}/{kind}",
                                         checks.mse_counts(x, params, template_match_counts),
                                         checks.mse_counts(x, params))

        return [
            ("noise_bounds", lambda: checks.check_noise(
                p["windows"], p["windows_noisy"], cfg.noise.max_magnitude)),
            ("pair_counts", counts_match),
            ("entropy_report", lambda: checks.check_entropy_report(
                report, windows, params, cfg.entropy.n_windows)),
        ]


class StreamReplay(Workload):
    """Sliding-window classification of one long 32-channel recording."""

    name = "stream-replay"
    sections = {
        "synth": {"n_subjects": 1, "events_per_subject": 48, "channels": 32,
                  "class_mix": {"joy": 18, "sad": 18, "neutral": 12}},
        "split": {"batch_size": 8},
        "train": {"max_epochs": 4, "lr0": 0.01},
        "stream": {"trigger_consecutive": 3},
    }
    setup_stages = ("synth", "preprocess", "featurize", "train")
    round_stages = ("stream",)

    def __init__(self) -> None:
        self.results: list = []

    @contextmanager
    def capture(self, pipeline):
        inner = pipeline.stream_classify

        def keep(*args, **kwargs):
            result = inner(*args, **kwargs)
            self.results.append(result)
            return result

        pipeline.stream_classify = keep
        try:
            yield
        finally:
            pipeline.stream_classify = inner

    def round_metrics(self, cfg, result):
        decisions = self.results[-1].decisions
        result["decisions"] = decisions
        return {
            "run_s": result["cpu_s"],
            "work_per_s": len(decisions) / _stage_seconds(result, "stream"),
        }

    def checks(self, cfg, result, seed):
        from affekt.stream import STRATEGIES

        p = _paths(cfg)
        decisions = result["decisions"]
        subject = p["raw"] / cfg.stream.source_subject
        sidecar, data, events_tsv = checks.read_subject(subject)
        fs = sidecar["sample_rate_hz"]
        header, params = checks.read_checkpoint(p["model"] / "task1_binary.ckpt")
        events = checks.read_jsonl(p["reports"] / "interventions.jsonl")
        filt, psd = asdict(cfg.filter), asdict(cfg.psd)
        lo, hi = cfg.window.thresholds
        ratings = [float(e[cfg.window.rating_dimension]) for e in events_tsv]

        def both_classes():
            if not (any(r < lo for r in ratings) and any(r > hi for r in ratings)):
                raise checks.CheckFailed("stream recording lacks a negative or a positive event")

        return [
            ("recording_classes", both_classes),
            ("window_grid", lambda: checks.check_stream_grid(
                decisions, sidecar["n_samples"], cfg.window.length_samples,
                cfg.stream.hop_samples, fs)),
            ("window_decisions", lambda: checks.check_stream_decisions(
                decisions,
                checks.reference_stream_probs(data, fs, filt, psd, header, params,
                                              cfg.window.length_samples, cfg.stream.hop_samples),
                header["meta"]["class_names"])),
            ("triggers", lambda: checks.check_triggers(
                decisions, events, cfg.stream.trigger_consecutive)),
            ("strategies", lambda: checks.check_strategies(events, STRATEGIES)),
            ("proc_time", lambda: checks.check_proc_time(
                decisions, _stage_wall_seconds(result, "stream"))),
        ]


WORKLOADS = {w.name: w for w in (OfflineTrain, EntropyMse, StreamReplay)}


def timed_stage(clock, pipeline, stage: str, cfg) -> tuple[float, float, dict]:
    """(CPU seconds, wall seconds, report) of one stage call; the clock probes the host after it."""
    return clock.time(getattr(pipeline, f"cmd_{stage}"), cfg)
