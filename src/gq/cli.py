"""Command-line driver.

    gq run FILE [--report out.json] [--steps N] [--tolerance T] [--seed S]
    gq check NAME [-s SOURCE] [ARG ...]
    gq checks

Exit codes: 0 all checks pass (degraded-mode counts as a non-failure),
1 at least one check failed, 2 parse or semantic error or an out-of-range
option (--steps below 1, --tolerance not a positive finite number).
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

from . import dsl
from .errors import ParseError, SemanticError
from .session import CHECKS, Options, execute, report_render


def positive_int(text) -> int:
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {n}")
    return n


def positive_float(text) -> float:
    x = float(text)
    if not (math.isfinite(x) and x > 0):
        raise argparse.ArgumentTypeError(f"must be positive and finite, got {text}")
    return x


def _options_from(args) -> Options:
    return Options(steps=args.steps, tolerance=args.tolerance, seed=args.seed)


def _run_program(program, options, report_path, source=None):
    """Execute and print the report; errors at a line name the `source` file."""
    try:
        report = execute(program, options)
    except (ParseError, SemanticError) as exc:
        where = f"{source}:" if source and exc.line is not None else ""
        print(f"error: {where}{exc}", file=sys.stderr)
        return 2
    sys.stdout.write(report_render(report, "text").decode())
    if report_path:
        Path(report_path).write_bytes(report_render(report, "machine"))
    return 0 if report.all_ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="gq", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute a DSL program")
    run.add_argument("file", help="program file")

    check = sub.add_parser("check", help="run a single named check")
    check.add_argument("name", help="check name (see `gq checks`)")
    check.add_argument("args", nargs="*", help="check arguments, in the form `gq checks` lists")
    check.add_argument("-s", "--source", default="",
                       help="DSL statements that set up the bindings")

    for command in (run, check):
        command.add_argument("--report", help="write the machine (JSON) report here")
        command.add_argument("--steps", type=positive_int, default=10_000)
        command.add_argument("--tolerance", type=positive_float, default=1e-6)
        command.add_argument("--seed", type=int, default=0)

    sub.add_parser("checks", help="list available checks")

    args = parser.parse_args(argv)

    if args.command == "checks":
        width = max(len(n) for n in CHECKS)
        form_width = max(len(entry[1]) for entry in CHECKS.values())
        for name, (_, form, description) in sorted(CHECKS.items()):
            print(f"{name:<{width}}  {form:<{form_width}}  {description}")
        return 0

    if args.command == "run":
        path = Path(args.file)
        try:
            source = path.read_text()
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        try:
            program = dsl.parse(source)
        except ParseError as exc:
            print(f"error: {args.file}:{exc}", file=sys.stderr)
            return 2
        options = _options_from(args)
        options.base_dir = path.parent
        return _run_program(program, options, args.report, args.file)

    if args.command == "check":
        if args.name not in CHECKS:
            print(f"error: unknown check {args.name!r}", file=sys.stderr)
            return 2
        source = args.source + f"\ncheck {args.name} {' '.join(args.args)};\n"
        try:
            program = dsl.parse(source)
        except ParseError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        return _run_program(program, _options_from(args), args.report)

    return 2


if __name__ == "__main__":
    sys.exit(main())
