"""Command-line interface.

    pqaslab run --config cfg.json [--out results.csv] [--format csv|json]
                [--threads 4] [--no-timing]
    pqaslab selftest [--criterion N [N ...]]   (N from 1 to 10; any other N exits 2)

Exit codes: 0 success, 2 configuration/validation error, 3 acceptance failure.
The config alone decides a run's rows: its ``seed`` is the master seed, and
no option or environment variable overrides it or the qubit cap.  A config
that sets a field its experiment does not read (``harness.EXPERIMENTS``) to
anything but its default, or whose sweep holds a point that breaks one of
that table's rules, is a configuration error and exits 2.
"""

from __future__ import annotations

import argparse
import sys

from . import harness, selftest

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_ACCEPTANCE = 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="pqaslab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    runp = sub.add_parser("run", help="run a configured experiment sweep")
    runp.add_argument("--config", required=True, help="path to a flat JSON config")
    runp.add_argument("--out", default=None, help="output path (stdout when omitted)")
    runp.add_argument("--format", choices=("csv", "json"), default="csv")
    runp.add_argument("--threads", type=int, default=1)
    runp.add_argument(
        "--no-timing",
        action="store_true",
        help="omit wall-clock telemetry so repeated runs are byte-identical",
    )

    selfp = sub.add_parser("selftest", help="run the acceptance criteria")
    numbers = range(1, len(selftest.ALL_CRITERIA) + 1)
    selfp.add_argument("--criterion", type=int, nargs="*", choices=numbers, metavar="N", help="subset of criteria to run")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "run":
        try:
            config = harness.load_config(args.config)
            records = harness.run(config, threads=max(1, args.threads), record_timing=not args.no_timing)
            text = harness.emit(records, fmt=args.format, path=args.out)
        except (harness.ConfigError, OSError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_CONFIG
        if not args.out:
            sys.stdout.write(text)
        return EXIT_OK
    if args.command == "selftest":
        results = selftest.run_selftest(indices=args.criterion or None)
        return EXIT_OK if all(r.passed for r in results) else EXIT_ACCEPTANCE
    return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
