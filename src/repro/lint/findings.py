"""The unit of lint output: one :class:`Finding` at one source line.

Findings are plain frozen dataclasses so reports sort, dedupe and
serialize deterministically — the lint CLI's JSON output is
byte-stable for a given tree, the same contract the simulator holds
for its reports.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True, slots=True, order=True)
class Finding:
    """One rule violation at one physical source line."""

    path: str
    """Repo-relative POSIX path of the offending file."""

    line: int
    """1-based line number of the offending node."""

    col: int
    """0-based column offset of the offending node."""

    rule: str
    """Rule id, e.g. ``DET001``."""

    message: str
    """Human-readable explanation, including the fix direction."""

    def to_dict(self) -> dict:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
        }

    def format(self) -> str:
        """``path:line:col: RULE message`` — editor-clickable."""
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"
