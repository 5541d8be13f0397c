"""Fresh-process `affekt train` on the acceptance end-to-end cohort, two trees paired.

    python3 cold_train.py --parent OLD_TREE --change NEW_TREE --workdir DIR \
        [--preset cnn-small] [--repeats 3]

Each tree is a source checkout (its src/ is put on PYTHONPATH). The features
of the cohort (40 subjects x 8 events x 128 channels, synth seed 101, as in
tests/test_acceptance.py) are built once with the change's tree; each train
run then starts a new interpreter, as the CLI stage does, with one BLAS
thread. Wall time comes from perf_counter around the child; user and system
time, minor faults and max RSS come from the child's own rusage (os.wait4,
the figures getrusage(RUSAGE_CHILDREN) reports for one child). The trees
alternate which runs first, and after every pair the checkpoints and epoch
logs of both are compared byte for byte. Prints one JSON object.
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

COHORT = {
    "synth": {"n_subjects": 40, "events_per_subject": 8, "channels": 128,
              "fs_hz": 512.0, "seed": 101},
    "train": {"max_epochs": 100},
}
ARTIFACTS = ("task1_binary.ckpt", "task2_categorical.ckpt",
             "task1_binary_log.jsonl", "task2_categorical_log.jsonl")


def cli(tree: Path, stage: str, config: Path, out: Path) -> tuple[list[str], dict]:
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "OPENBLAS_NUM_THREADS": "1",
           "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
    return [sys.executable, "-m", "affekt.cli", stage, "--config", str(config),
            "--out", str(out)], env


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
    ap.add_argument("--preset", default="cnn-small")
    ap.add_argument("--repeats", type=int, default=3)
    args = ap.parse_args()
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    work = args.workdir.resolve()
    work.mkdir(parents=True, exist_ok=True)
    config = work / f"{args.preset}.json"
    shared = work / "cohort"
    config.write_text(json.dumps(
        {**COHORT, "workdir": str(shared), "model": {"preset": args.preset}}, indent=2))
    if not (shared / "features" / "manifest.json").exists():
        for stage in ("synth", "preprocess", "featurize"):
            cmd, env = cli(trees["change"], stage, config, shared)
            subprocess.run(cmd, env=env, stdout=subprocess.DEVNULL, check=True)
    commands, runs, identical = {}, {name: [] for name in trees}, []
    for name in trees:
        out = work / f"{args.preset}-{name}"
        out.mkdir(exist_ok=True)
        if not (out / "features").exists():
            (out / "features").symlink_to(shared / "features")
        commands[name] = cli(trees[name], "train", config, out)
    for rep in range(args.repeats):
        order = ("parent", "change") if rep % 2 == 0 else ("change", "parent")
        for name in order:
            runs[name].append(timed(*commands[name]))
        identical.append(all(
            filecmp.cmp(work / f"{args.preset}-parent" / "model" / f,
                        work / f"{args.preset}-change" / "model" / f, shallow=False)
            for f in ARTIFACTS))
    print(json.dumps({
        "preset": args.preset,
        "commands": {name: {"argv": cmd,
                            "env": {k: env[k] for k in ("PYTHONPATH", "OPENBLAS_NUM_THREADS")}}
                     for name, (cmd, env) in commands.items()},
        "runs": runs,
        "artifacts_identical_per_pair": identical,
    }, indent=1))


if __name__ == "__main__":
    main()
