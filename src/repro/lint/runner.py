"""Walk the tree, run every rule, apply pragmas.

The runner is deliberately boring: deterministic file order (sorted
recursive walk), one :class:`~repro.lint.context.FileContext` per file,
every registered rule over it, then pragma suppression at the
finding's line.  A file that fails to parse yields a single
``LINT000`` finding rather than aborting the run — a syntax error in
one file must not mask findings in the rest.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path

from .context import FileContext
from .findings import Finding
from .registry import Rule, all_rules

#: Rule id reserved for files the parser rejects.
PARSE_ERROR_RULE = "LINT000"

#: Scan roots, relative to the repo root, when the CLI names none.
DEFAULT_PATHS = ("src", "tests", "benchmarks")


def iter_python_files(paths: list[str | Path], root: str | Path = ".") -> list[Path]:
    """Every ``*.py`` under ``paths`` (files accepted too), sorted by
    repo-relative POSIX path so runs are order-stable everywhere."""
    rootp = Path(root)
    files: set[Path] = set()
    for p in paths:
        q = rootp / p
        if q.is_file() and q.suffix == ".py":
            files.add(q)
        elif q.is_dir():
            files.update(f for f in q.rglob("*.py") if f.is_file())
        elif not q.exists():
            raise FileNotFoundError(f"no such file or directory: {q}")
    return sorted(files, key=lambda f: f.relative_to(rootp).as_posix())


@dataclass
class LintReport:
    """Outcome of one lint run."""

    files_scanned: int = 0
    findings: list[Finding] = field(default_factory=list)
    """Findings that survived pragma suppression, sorted — these fail
    the gate."""

    suppressed: int = 0
    """Findings silenced by an inline ``# repro-lint: disable=`` pragma."""

    @property
    def ok(self) -> bool:
        return not self.findings

    def to_dict(self) -> dict:
        return {
            "files_scanned": self.files_scanned,
            "suppressed": self.suppressed,
            "findings": [f.to_dict() for f in self.findings],
        }


def lint_context(ctx: FileContext, rules: list[Rule]) -> tuple[list[Finding], int]:
    """Run ``rules`` over one prepared context.

    Returns (kept findings, pragma-suppressed count); kept findings are
    sorted by (path, line, col, rule).
    """
    kept: list[Finding] = []
    suppressed = 0
    for rule in rules:
        for finding in rule.check(ctx):
            if ctx.suppressed(finding.rule, finding.line):
                suppressed += 1
            else:
                kept.append(finding)
    return sorted(kept), suppressed


def lint_source(
    source: str,
    path: str = "<snippet>",
    module: str | None = None,
) -> list[Finding]:
    """Lint an in-memory snippet (the unit-test entry point).

    ``module`` scopes module-gated rules: pass e.g. ``"repro.sim.x"``
    to exercise DET002/DET004 on a snippet, or leave ``None`` for
    out-of-package semantics (what a test file gets).
    """
    ctx = FileContext(path, source, module=module)
    findings, _ = lint_context(ctx, all_rules())
    return findings


def lint_paths(
    paths: list[str | Path],
    root: str | Path = ".",
) -> LintReport:
    """Lint every Python file under ``paths`` relative to ``root``."""
    rootp = Path(root)
    rules = all_rules()
    report = LintReport()
    for file in iter_python_files(paths, rootp):
        relpath = file.relative_to(rootp).as_posix()
        source = file.read_text()
        try:
            tree = ast.parse(source, filename=str(file))
        except SyntaxError as exc:
            report.findings.append(
                Finding(
                    path=relpath,
                    line=exc.lineno or 1,
                    col=(exc.offset or 1) - 1,
                    rule=PARSE_ERROR_RULE,
                    message=f"file does not parse: {exc.msg}",
                )
            )
            report.files_scanned += 1
            continue
        ctx = FileContext(relpath, source, tree=tree)
        kept, suppressed = lint_context(ctx, rules)
        report.findings.extend(kept)
        report.suppressed += suppressed
        report.files_scanned += 1
    report.findings.sort()
    return report
