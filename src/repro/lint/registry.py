"""Pluggable rule registry.

A rule is a class with an ``ID``, a one-line ``TITLE``, and a
``check(ctx)`` generator yielding :class:`~repro.lint.findings.Finding`
objects.  Registration is a decorator so rule modules self-register on
import; the runner imports the bundled rule modules and runs whatever
is in the table, which is also how a future PR drops in a new rule
without touching the runner.
"""

from __future__ import annotations

import ast
from typing import Iterator

from .context import FileContext
from .findings import Finding


class Rule:
    """Base class: one invariant, checked per file."""

    ID: str = ""
    TITLE: str = ""

    def check(self, ctx: FileContext) -> Iterator[Finding]:  # pragma: no cover
        raise NotImplementedError
        yield

    def finding(
        self, ctx: FileContext, node: ast.AST, message: str
    ) -> Finding:
        """Build a finding anchored at ``node``'s first line."""
        lineno = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0)
        return Finding(
            path=ctx.path,
            line=lineno,
            col=col,
            rule=self.ID,
            message=message,
        )


_REGISTRY: dict[str, Rule] = {}


def register(cls: type[Rule]) -> type[Rule]:
    """Class decorator: instantiate and add to the rule table."""
    if not cls.ID:
        raise ValueError(f"{cls.__name__} has no ID")
    if cls.ID in _REGISTRY:
        raise ValueError(f"duplicate rule id {cls.ID}")
    _REGISTRY[cls.ID] = cls()
    return cls


def all_rules() -> list[Rule]:
    """Every registered rule, in id order (deterministic run order)."""
    _load_bundled()
    return [_REGISTRY[rule_id] for rule_id in sorted(_REGISTRY)]


def rule_ids() -> list[str]:
    _load_bundled()
    return sorted(_REGISTRY)


def _load_bundled() -> None:
    """Import the bundled rule modules (idempotent; they self-register)."""
    from . import rules_det, rules_evt  # noqa: F401
