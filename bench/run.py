"""Benchmark of the affekt pipeline: one command, three workloads.

    python3 bench/run.py --workload offline-train --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout; affekt is imported from ./src. The
workload's inputs are generated from --seed and set up SETUP_REPEATS times
(set-up is timed as setup_s, median). Whole rounds of the workload's timed
stages then run until --seconds have passed, and each end-to-end metric is
the median over rounds. Stages are timed in CPU seconds, and each set-up and
round is brought to a fixed host speed with the reference clock of
calibrate.py. Reference checks run after
the timed loop. BLAS runs one thread.

With --trace 1 the public functions of every affekt layer are wrapped (see
tracing.py) and the per-layer metrics are printed instead; spans go to
.bench_work/trace-<workload>-seed<seed>.jsonl. The last line of standard
output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SETUP_REPEATS = 3
# One BLAS thread: the program is single threaded outside BLAS, and its
# matrices are small, so a second thread adds scheduling noise, not speed.
BLAS_THREADS = "1"


def _import_program():
    """Import numpy, scipy and affekt from this checkout's src/; exit 2 without them."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    src = ROOT / "src"
    if not (src / "affekt" / "__init__.py").is_file():
        print(f"error: {src / 'affekt'} not found; run from a source checkout", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(src))
    import affekt

    if Path(affekt.__file__).resolve().parent != (src / "affekt").resolve():
        print(f"error: affekt imported from {affekt.__file__}, not {src}", file=sys.stderr)
        raise SystemExit(2)


def _blas_threads():
    import numpy as np

    libs = glob.glob(str(Path(np.__file__).parent.parent / "numpy.libs" / "*openblas*"))
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                return int(getattr(handle, symbol)())
    return None


def environment() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def per_layer_metrics(tracer, names: list[str], whole: list[dict]) -> dict:
    """Per-round values of the traced run; synth.* is per set-up.

    Spans are wall times; trace.run_s is CPU time like run_s."""
    n_rounds = len(whole)
    run = tracer.totals("run")
    setup = tracer.totals("setup")
    counts = tracer.counts["run"]
    proc_ms = counts.get("stream.proc_ms") or [0.0]
    gflop = counts["nn.backward.flop"] / 1e9
    backward_s = run["nn.backward"]["s"]
    derived = {
        "nn.backward.gflop": gflop / n_rounds,
        "nn.backward.gflop_per_s": gflop / backward_s if backward_s else 0.0,
        "stream.window_ms_p50": statistics.median(proc_ms),
        "stream.window_ms_p95": statistics.quantiles(proc_ms, n=20)[-1] if len(proc_ms) > 1 else 0.0,
        "trace.run_s": statistics.median(r["cpu_s"] for r in whole),
        "trace.stage_coverage": tracer.stage_seconds("run") / sum(r["wall_s"] for r in whole),
    }
    out = {}
    for name in names:
        if name in derived:
            out[name] = derived[name]
            continue
        span, _, field = name.rpartition(".")
        if name.startswith("synth.") and span in setup:
            out[name] = setup[span][field] / SETUP_REPEATS
        elif span in run and field in ("s", "self_s", "calls"):
            out[name] = run[span][field] / n_rounds
        else:
            out[name] = counts.get(name, 0.0) / n_rounds
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _import_program()
    spec = load_spec()
    from affekt import pipeline
    from affekt.config import apply_seed_override, config_from_dict
    from affekt.errors import AffektError

    import workloads
    from calibrate import ReferenceClock, scaled
    from tracing import Tracer

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"known: {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]()
    work = ROOT / ".bench_work"
    workdir = work / workload.name
    cfg = config_from_dict({"workdir": str(workdir), **workload.sections})
    apply_seed_override(cfg, args.seed)

    clock = ReferenceClock()
    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install()
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    setup_cpu_s, setup_s = [], []
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(workdir, ignore_errors=True)
        mark = clock.mark()
        setup_cpu_s.append(sum(workloads.timed_stage(clock, pipeline, s, cfg)[0]
                               for s in workload.setup_stages))
        setup_s.append(scaled(setup_cpu_s[-1], "s", clock.scale_since(mark)))

    if tracer:
        tracer.phase = "run"
    run_mark = clock.mark()
    rounds = []
    attempted = failed = 0
    t_start = time.perf_counter()
    with workload.capture(pipeline):
        while not rounds or time.perf_counter() - t_start < args.seconds:
            result = {"stages": {}}
            mark = clock.mark()
            attempted += len(workload.round_stages)
            for i, stage in enumerate(workload.round_stages):
                try:
                    result["stages"][stage] = workloads.timed_stage(clock, pipeline, stage, cfg)
                except (AffektError, OSError):
                    # Later stages would read this stage's missing or stale output.
                    traceback.print_exc(file=sys.stderr)
                    failed += len(workload.round_stages) - i
                    break
            # Stage times only: the clock's probes between stages are not the program's.
            result["cpu_s"] = sum(t[0] for t in result["stages"].values())
            result["wall_s"] = sum(t[1] for t in result["stages"].values())
            result["scale"] = clock.scale_since(mark)
            if len(result["stages"]) == len(workload.round_stages):
                result["cpu_metrics"] = workload.round_metrics(cfg, result)
                result["metrics"] = {k: scaled(v, units[k], result["scale"])
                                     for k, v in result["cpu_metrics"].items()}
            rounds.append(result)
    if tracer:
        tracer.uninstall()
    run_scale = clock.scale_since(run_mark)

    whole = [r for r in rounds if "metrics" in r]
    per_round = [r["metrics"] for r in whole]
    correct = bool(whole)
    for name, check in (workload.checks(cfg, whole[-1], args.seed) if whole else []):
        try:
            check()
        except Exception as exc:  # a check that crashes has not passed
            correct = False
            print(f"check {workload.name}/{name} failed: {type(exc).__name__}: {exc}",
                  file=sys.stderr)

    info = {"workload": workload.name, "seed": args.seed, "rounds": len(rounds),
            "setup_repeats": SETUP_REPEATS, "setup_cpu_s": setup_cpu_s, "setup_s": setup_s,
            "per_round": per_round, "per_round_cpu": [r["cpu_metrics"] for r in whole],
            "round_scale": [r["scale"] for r in rounds], "run_scale": run_scale,
            "round_wall_s": [r["wall_s"] for r in rounds],
            "reference_ms": {"median": 1e3 * statistics.median(clock.probes),
                             "min": 1e3 * min(clock.probes), "max": 1e3 * max(clock.probes),
                             "calls": len(clock.probes)},
            "inputs": workload.inputs(cfg),
            "env": environment()}
    if tracer:
        trace_path = work / f"trace-{workload.name}-seed{args.seed}.jsonl"
        tracer.write_jsonl(trace_path)
        info["trace"] = str(trace_path.relative_to(ROOT))
        # Per-layer times and rates share the timed part's scale.
        values = {name: scaled(value, units[name], run_scale) for name, value in
                  (per_layer_metrics(tracer, [m["name"] for m in spec["per_layer"]], whole)
                   if whole else {}).items()}
        metric_specs = spec["per_layer"]
    else:
        values = {"setup_s": statistics.median(setup_s)}
        for name in per_round[0] if per_round else ():
            values[name] = statistics.median(r[name] for r in per_round)
        metric_specs = spec["end_to_end"]
    print(json.dumps(info, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]}
                    for m in metric_specs},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
