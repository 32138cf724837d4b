"""Command line entry point.

    verify run --config cfg.json [--suite NAME ...] [--out report.json|csv]
               [--seed S] [--timings]
    verify list-suites
    verify explain SUITE

Exit codes: 0 all checks pass, 1 some check fails, 2 configuration error.
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import ConfigInvalid
from .harness import SUITE_NAMES, SUITES, emit, run_suite


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="verify",
        description="Exact verification suites for gamma trace-function "
        "identities over small finite fields.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="run suites from a JSON config")
    run.add_argument("--config", required=True, help="path to a JSON config")
    run.add_argument(
        "--suite",
        action="append",
        default=None,
        help="override the config's suite list (repeatable)",
    )
    run.add_argument("--out", default=None, help="report path (.json or .csv)")
    run.add_argument("--seed", type=int, default=None, help="override the seed")
    run.add_argument(
        "--timings",
        action="store_true",
        help="include wall times (makes reports non-reproducible)",
    )
    sub.add_parser("list-suites", help="list the available suites")
    explain = sub.add_parser(
        "explain", help="print the statement a suite certifies"
    )
    explain.add_argument("suite", choices=SUITE_NAMES)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "list-suites":
        for name in SUITE_NAMES:
            print(name)
        return 0
    if args.command == "explain":
        print(SUITES[args.suite].statement)
        return 0
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    if args.seed is not None and isinstance(raw, dict):
        raw = dict(raw, seed=args.seed)
    try:
        reports = run_suite(
            raw, suites=args.suite, include_timings=args.timings
        )
    except ConfigInvalid as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    fmt = "csv" if (args.out or "").endswith(".csv") else "json"
    payload = emit(reports, fmt=fmt)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)
    for report in reports:
        status = "pass" if report.passed else "FAIL"
        print(f"[{status}] {report.suite}", file=sys.stderr)
    return 0 if all(r.passed for r in reports) else 1


if __name__ == "__main__":
    raise SystemExit(main())
