"""Command-line interface.

    affekt <stage> --config CONFIG.json [--seed N] [--out DIR]

The stages are pipeline.STAGES, in pipeline order. Each stage prints a JSON
report to stdout on success. Failures print a JSON object
{"error": ..., "message": ...} to stderr and exit 2 for usage problems
(missing inputs, malformed config or artifacts) or 1 for runtime errors.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import pipeline
from .config import load_config
from .errors import AffektError, UsageError

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_USAGE = 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="affekt",
        description="EEG emotion pipeline: synthesis, preprocessing, features, training, streaming.",
    )
    sub = parser.add_subparsers(dest="stage", required=True)
    for name in pipeline.STAGES:
        stage = sub.add_parser(name, help=name)
        stage.add_argument("--config", required=True, help="path to the pipeline JSON config")
        stage.add_argument("--seed", type=int, default=None, help="override all stage seeds")
        stage.add_argument("--out", default=None, help="override the configured workdir")
    return parser


def _fail(exc: Exception, code: int) -> int:
    payload = {"error": type(exc).__name__, "message": str(exc)}
    print(json.dumps(payload, sort_keys=True), file=sys.stderr)
    return code


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad usage and 0 on --help; pass both through.
        return int(exc.code or 0)
    try:
        cfg = load_config(args.config, seed_override=args.seed, out_override=args.out)
        report = pipeline.STAGES[args.stage].run(cfg)
    except UsageError as exc:
        return _fail(exc, EXIT_USAGE)
    except AffektError as exc:
        return _fail(exc, EXIT_RUNTIME)
    except OSError as exc:
        return _fail(exc, EXIT_RUNTIME)
    print(json.dumps(report, indent=2, sort_keys=True))
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
