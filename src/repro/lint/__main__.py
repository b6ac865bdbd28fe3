"""CLI: ``python -m repro.lint [paths...]`` (also ``repro-lint``).

Exit codes: 0 — clean (every finding pragma-suppressed); 1 — findings;
2 — usage error.

With no positional paths, the scan roots are ``DEFAULT_PATHS``
(``src tests benchmarks``) under ``--root``, so the bare module
invocation from the repo root does the right thing.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .registry import all_rules
from .runner import DEFAULT_PATHS, LintReport, lint_paths


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.lint",
        description=(
            "Static determinism & event-kernel invariant checks for the "
            "repro codebase."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        help=(
            "files/directories to scan (default: "
            f"'{' '.join(DEFAULT_PATHS)}')"
        ),
    )
    parser.add_argument(
        "--root",
        default=".",
        help="repo root that scan paths are relative to",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="stdout report format",
    )
    parser.add_argument(
        "--out",
        metavar="FILE",
        help="also write the full JSON report to FILE (any --format)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule table and exit",
    )
    return parser


def _print_text(report: LintReport) -> None:
    for finding in report.findings:
        print(finding.format())
    print(
        f"{report.files_scanned} files scanned, "
        f"{len(report.findings)} finding(s), "
        f"{report.suppressed} pragma-suppressed"
    )


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule in all_rules():
            print(f"{rule.ID}  {rule.TITLE}")
        return 0

    try:
        report = lint_paths(args.paths or list(DEFAULT_PATHS), Path(args.root))
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.out:
        Path(args.out).write_text(
            json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n"
        )
    if args.format == "json":
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        _print_text(report)
    return 0 if report.ok else 1


if __name__ == "__main__":
    sys.exit(main())
