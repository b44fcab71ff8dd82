"""Command-line front end for repro-lint.

Two equivalent entry points share this module::

    python -m repro.lintx [paths ...]
    python -m repro lint [paths ...]

Exit codes: 0 — no finding at or above ``--fail-on``; 1 — findings at
or above the threshold; 2 — usage error. ``--fail-on never`` turns any
run into a warn-only report (the CI tests/benchmarks scan).
"""

from __future__ import annotations

import argparse
import os
import sys

from repro.lintx.core import NEVER, SEVERITIES, run_lint
from repro.lintx.report import render_human, render_json, render_rule_list


def add_lint_arguments(parser: argparse.ArgumentParser) -> None:
    """Attach the shared lint options (used by ``repro lint`` too)."""
    parser.add_argument(
        "paths",
        nargs="*",
        metavar="PATH",
        help="files or directories to scan (default: src, or . if there"
        " is no src directory)",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="emit machine-readable JSON instead of the human report",
    )
    parser.add_argument(
        "--fail-on",
        choices=list(SEVERITIES) + [NEVER],
        default="warning",
        help="lowest severity that makes the exit code non-zero"
        " (default: warning; 'never' reports without failing)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print every rule id with its severity and summary, then"
        " exit",
    )


def run(args: argparse.Namespace) -> int:
    """Execute a parsed lint invocation (shared with ``repro lint``)."""
    if args.list_rules:
        print(render_rule_list())
        return 0
    paths = args.paths or (["src"] if os.path.isdir("src") else ["."])
    missing = [path for path in paths if not os.path.exists(path)]
    if missing:
        print(f"repro-lint: no such path: {', '.join(missing)}", file=sys.stderr)
        return 2
    result = run_lint(paths)
    if args.json:
        print(render_json(result))
    else:
        print(render_human(result))
    return result.exit_code(args.fail_on)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-lint",
        description="AST-based determinism analyzer for the repro tree"
        " (see ANALYSIS.md)",
    )
    add_lint_arguments(parser)
    return run(parser.parse_args(argv))


if __name__ == "__main__":
    raise SystemExit(main())
