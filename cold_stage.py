"""Fresh-process runs of one CLI stage from two trees, paired.

    python3 cold_stage.py --parent OLD_TREE --change NEW_TREE --workdir DIR \
        [--stage STAGE] [--preset cnn-small] [--repeats 3]

Each tree is a source checkout (its src/ is put on PYTHONPATH). STAGE is any
name in affekt.pipeline.STAGES, imported from the change's tree. Every stage
before it, in STAGES order, is run once per preset with the change's tree into
one cohort directory: the acceptance end-to-end cohort (40 subjects x 8 events
x 128 channels, synth seed 101, 100 epochs, as in tests/test_acceptance.py),
whose model is --preset. A stamp file marks each of these set-up stages that
exited 0. Every earlier stage runs, not only the declared reads, because
entropy and stream also open paths that STAGES does not list.

Each tree's output directory links the cohort's top-level directories that
the set-up stages write, except those that STAGE writes into. Each timed run
then starts a new interpreter, as the CLI stage does, with one BLAS thread.
Wall time comes from perf_counter around the child; user and system time,
minor faults and max RSS come from the child's own rusage (os.wait4, the
figures getrusage(RUSAGE_CHILDREN) reports for one child). The trees alternate
which runs first, and after every pair each regular file that both wrote
outside the links is compared byte for byte, except reports/stream_timing.json,
the wall-clock file named in README's Determinism section, which is recorded
per run instead (first, median and mean window times). Prints one JSON object.
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
TIMING = Path("reports/stream_timing.json")


def setup_stages(stages: dict, stage: str) -> list[str]:
    """The stages that run before stage, in pipeline order."""
    return list(stages)[: list(stages).index(stage)]


def linked_dirs(stages: dict, stage: str) -> list[str]:
    """The top-level workdir directories that the set-up stages write and stage does not."""
    def top(name):
        return {rel.split("/")[0] for rel in stages[name].writes}

    return sorted(set().union(*map(top, setup_stages(stages, stage))) - top(stage))


def cli(tree: Path, stage: str, config: Path, out: Path) -> tuple[list[str], dict]:
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "OPENBLAS_NUM_THREADS": "1",
           "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
    return [sys.executable, "-m", "affekt.cli", stage, "--config", str(config),
            "--out", str(out)], env


def written(out: Path) -> list[Path]:
    """The regular files under out, relative to it; os.walk does not enter the links."""
    return sorted(Path(d, f).relative_to(out) for d, _, files in os.walk(out) for f in files)


def same_outputs(a: Path, b: Path) -> bool:
    """True if a and b hold the same files, identical but for the stream's timing."""
    def same(name: Path) -> bool:
        return name == TIMING or filecmp.cmp(a / name, b / name, shallow=False)

    names = written(a)
    return names == written(b) and all(map(same, names))


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
    ap.add_argument("--stage", default="train", help="a name in affekt.pipeline.STAGES")
    ap.add_argument("--preset", default="cnn-small", help="model preset of the cohort")
    ap.add_argument("--repeats", type=int, default=3)
    args = ap.parse_args()
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    sys.path.insert(0, str(trees["change"] / "src"))
    from affekt.pipeline import STAGES

    if args.stage not in STAGES:
        ap.error(f"--stage must be one of {list(STAGES)}, got {args.stage!r}")
    work = args.workdir.resolve()
    work.mkdir(parents=True, exist_ok=True)
    config = work / f"{args.preset}.json"
    cohort = work / f"cohort-{args.preset}"
    config.write_text(json.dumps({"synth": E2E_COHORT, "train": {"max_epochs": 100},
                                  "model": {"preset": args.preset}, "workdir": str(cohort)},
                                 indent=2))
    for name in setup_stages(STAGES, args.stage):
        stamp = cohort / f"{name}.done"
        if not stamp.exists():
            cmd, env = cli(trees["change"], name, config, cohort)
            subprocess.run(cmd, env=env, stdout=subprocess.DEVNULL, check=True)
            stamp.touch()
    commands, runs, identical, outs = {}, {name: [] for name in trees}, [], {}
    for name in trees:
        outs[name] = out = work / f"{args.stage}-{args.preset}-{name}"
        out.mkdir(exist_ok=True)
        for folder in linked_dirs(STAGES, args.stage):
            if not (out / folder).exists():
                (out / folder).symlink_to(cohort / folder)
        commands[name] = cli(trees[name], args.stage, config, out)
    for rep in range(args.repeats):
        order = ("parent", "change") if rep % 2 == 0 else ("change", "parent")
        for name in order:
            runs[name].append(timed(*commands[name]))
            if str(TIMING) in STAGES[args.stage].writes:
                runs[name][-1]["timing"] = json.loads((outs[name] / TIMING).read_text())
        identical.append(same_outputs(outs["parent"], outs["change"]))
    print(json.dumps({
        "stage": args.stage,
        "preset": args.preset,
        "commands": {name: {"argv": cmd,
                            "env": {k: env[k] for k in ("PYTHONPATH", "OPENBLAS_NUM_THREADS")}}
                     for name, (cmd, env) in commands.items()},
        "runs": runs,
        "artifacts_identical_per_pair": identical,
    }, indent=1))


if __name__ == "__main__":
    main()
