"""Fresh-process runs of one CLI stage from two trees, paired.

    python3 cold_stage.py --parent OLD_TREE --change NEW_TREE --workdir DIR \
        [--stage train|preprocess|augment|entropy|featurize|stream] [--preset cnn-small] \
        [--repeats 3]

Each tree is a source checkout (its src/ is put on PYTHONPATH). The stage's
inputs are built once with the change's tree and shared by both trees:

- train: the acceptance end-to-end cohort (40 subjects x 8 events x 128
  channels, synth seed 101, 100 epochs, as in tests/test_acceptance.py)
  through synth, preprocess and featurize; --preset picks the model.
- preprocess, augment, featurize: the same cohort through synth (and
  preprocess, for augment and featurize).
- entropy: the default config with 128 channels through synth, preprocess
  and augment.
- stream: the same cohort through synth, preprocess, featurize and a train of
  3 epochs; the stream replays one 128-channel recording (sub-001).

Each timed run then starts a new interpreter, as the CLI stage does, with one
BLAS thread. Wall time comes from perf_counter around the child; user and
system time, minor faults and max RSS come from the child's own rusage
(os.wait4, the figures getrusage(RUSAGE_CHILDREN) reports for one child). The
trees alternate which runs first, and after every pair the stage's artifacts
of both (checkpoints and epoch logs; every file under windows/,
windows_noisy/ or features/; reports/entropy.json; reports/interventions.jsonl,
but not the stream's timing report) are compared byte for byte. A stream run
also records its reports/stream_timing.json (first, median and mean window
times). Prints one JSON object.
"""

from __future__ import annotations

import argparse
import filecmp
import json
import os
import subprocess
import sys
import time
from pathlib import Path

E2E_COHORT = {"n_subjects": 40, "events_per_subject": 8, "channels": 128, "fs_hz": 512.0,
              "seed": 101}

STAGES = {
    "train": {
        "config": {"synth": E2E_COHORT, "train": {"max_epochs": 100}},
        "inputs": ("synth", "preprocess", "featurize"),
        "ready": "features/manifest.json",
        "shared": ("features",),
        "artifacts": ("model/task1_binary.ckpt", "model/task2_categorical.ckpt",
                      "model/task1_binary_log.jsonl", "model/task2_categorical_log.jsonl"),
    },
    "preprocess": {
        "config": {"synth": E2E_COHORT},
        "inputs": ("synth",),
        "ready": "raw/sub-040/events.tsv",  # the last file synth writes
        "shared": ("raw",),
        "artifacts": ("windows",),
    },
    "augment": {
        "config": {"synth": E2E_COHORT},
        "inputs": ("synth", "preprocess"),
        "ready": "windows/windows.json",
        "shared": ("windows",),
        "artifacts": ("windows_noisy",),
    },
    "entropy": {
        "config": {"synth": {"channels": 128}},
        "inputs": ("synth", "preprocess", "augment"),
        "ready": "windows_noisy/windows.json",
        "shared": ("windows", "windows_noisy"),
        "artifacts": ("reports/entropy.json",),
    },
    "featurize": {
        "config": {"synth": E2E_COHORT},
        "inputs": ("synth", "preprocess"),
        "ready": "windows/windows.json",
        "shared": ("windows",),
        "artifacts": ("features",),
    },
    "stream": {
        "config": {"synth": E2E_COHORT, "train": {"max_epochs": 3}},
        "inputs": ("synth", "preprocess", "featurize", "train"),
        "ready": "model/task2_categorical_log.jsonl",  # the last file train writes
        "shared": ("raw", "model"),
        "artifacts": ("reports/interventions.jsonl",),
        "timing": "reports/stream_timing.json",
    },
}


def cli(tree: Path, stage: str, config: Path, out: Path) -> tuple[list[str], dict]:
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "OPENBLAS_NUM_THREADS": "1",
           "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
    return [sys.executable, "-m", "affekt.cli", stage, "--config", str(config),
            "--out", str(out)], env


def same_bytes(a: Path, b: Path) -> bool:
    """True if files a and b, or every file under directories a and b, are identical."""
    if not a.is_dir():
        return filecmp.cmp(a, b, shallow=False)
    names = sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file())
    return names == sorted(p.relative_to(b) for p in b.rglob("*") if p.is_file()) and all(
        filecmp.cmp(a / n, b / n, shallow=False) for n in names)


def timed(cmd: list[str], env: dict) -> dict:
    t0 = time.perf_counter()
    child = subprocess.Popen(cmd, env=env, stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(child.pid, 0)
    wall = time.perf_counter() - t0
    child.returncode = os.waitstatus_to_exitcode(status)  # reaped by wait4
    if child.returncode:
        raise SystemExit(f"{' '.join(cmd)} exited {child.returncode}")
    return {"wall_s": round(wall, 3), "user_s": round(usage.ru_utime, 3),
            "system_s": round(usage.ru_stime, 3), "minor_faults": usage.ru_minflt,
            "max_rss_kib": usage.ru_maxrss}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--parent", type=Path, required=True)
    ap.add_argument("--change", type=Path, required=True)
    ap.add_argument("--workdir", type=Path, required=True)
    ap.add_argument("--stage", choices=sorted(STAGES), default="train")
    ap.add_argument("--preset", default="cnn-small", help="model preset (train only)")
    ap.add_argument("--repeats", type=int, default=3)
    args = ap.parse_args()
    stage = STAGES[args.stage]
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    work = args.workdir.resolve()
    work.mkdir(parents=True, exist_ok=True)
    label = args.preset if args.stage == "train" else args.stage
    config = work / f"{label}.json"
    shared = work / f"cohort-{args.stage}"
    sections = dict(stage["config"])
    if args.stage == "train":
        sections["model"] = {"preset": args.preset}
    config.write_text(json.dumps({**sections, "workdir": str(shared)}, indent=2))
    if not (shared / stage["ready"]).exists():
        for name in stage["inputs"]:
            cmd, env = cli(trees["change"], name, config, shared)
            subprocess.run(cmd, env=env, stdout=subprocess.DEVNULL, check=True)
    commands, runs, identical = {}, {name: [] for name in trees}, []
    for name in trees:
        out = work / f"{label}-{name}"
        out.mkdir(exist_ok=True)
        for folder in stage["shared"]:
            if not (out / folder).exists():
                (out / folder).symlink_to(shared / folder)
        commands[name] = cli(trees[name], args.stage, config, out)
    for rep in range(args.repeats):
        order = ("parent", "change") if rep % 2 == 0 else ("change", "parent")
        for name in order:
            runs[name].append(timed(*commands[name]))
            if "timing" in stage:
                report = work / f"{label}-{name}" / stage["timing"]
                runs[name][-1]["timing"] = json.loads(report.read_text())
        identical.append(all(
            same_bytes(work / f"{label}-parent" / f, work / f"{label}-change" / f)
            for f in stage["artifacts"]))
    print(json.dumps({
        "stage": args.stage,
        "preset": args.preset if args.stage == "train" else None,
        "commands": {name: {"argv": cmd,
                            "env": {k: env[k] for k in ("PYTHONPATH", "OPENBLAS_NUM_THREADS")}}
                     for name, (cmd, env) in commands.items()},
        "runs": runs,
        "artifacts_identical_per_pair": identical,
    }, indent=1))


if __name__ == "__main__":
    main()
