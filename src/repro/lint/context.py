"""Per-file analysis context shared by every rule.

One :class:`FileContext` is built per source file: the parsed AST, the
raw lines, the module's dotted name inside the ``repro`` package (or
``None`` for files outside it, e.g. tests), a resolved import table,
and the per-line pragma suppressions.

Import resolution is what lets rules match *qualified* call names
(``time.time``, ``numpy.random.seed``) rather than bare attribute
spellings, so ``import time as t; t.time()`` and
``from numpy import random as r; r.seed(0)`` are both caught.
"""

from __future__ import annotations

import ast
import re
from pathlib import PurePath

# ``# repro-lint: disable=DET001`` / ``disable=DET001,EVT002`` /
# ``disable=all`` — suppresses matching rules on the physical line the
# pragma sits on (use the *first* line of a multi-line statement: that
# is where the finding anchors).
_PRAGMA_RE = re.compile(
    r"#\s*repro-lint:\s*disable=([A-Za-z0-9_]+(?:\s*,\s*[A-Za-z0-9_]+)*|all)"
)


def module_name_for(path: str) -> str | None:
    """Dotted module name for a repo path, if it lives in the package.

    ``src/repro/sim/events.py`` → ``repro.sim.events``;
    ``tests/test_lint.py`` → ``None``.  The ``repro`` component must
    directly follow a ``src`` component (the repo's src-layout), so a
    stray ``repro`` directory elsewhere does not confuse scoping.
    """
    parts = PurePath(path).parts
    for i, part in enumerate(parts[:-1]):
        if part == "src" and parts[i + 1] == "repro":
            mod_parts = list(parts[i + 1 :])
            mod_parts[-1] = mod_parts[-1].removesuffix(".py")
            if mod_parts[-1] == "__init__":
                mod_parts.pop()
            return ".".join(mod_parts)
    return None


def parse_pragmas(lines: list[str]) -> dict[int, set[str]]:
    """Map 1-based line number → rule ids suppressed on that line.

    The special id ``all`` suppresses every rule on the line.
    """
    out: dict[int, set[str]] = {}
    for lineno, text in enumerate(lines, start=1):
        m = _PRAGMA_RE.search(text)
        if m:
            ids = {part.strip() for part in m.group(1).split(",")}
            out[lineno] = ids
    return out


class FileContext:
    """Everything a rule needs to analyse one file."""

    def __init__(
        self,
        path: str,
        source: str,
        module: str | None = None,
        *,
        tree: ast.AST | None = None,
    ) -> None:
        self.path = PurePath(path).as_posix()
        self.source = source
        self.lines = source.splitlines()
        self.module = module if module is not None else module_name_for(self.path)
        self.tree = tree if tree is not None else ast.parse(source, filename=path)
        self.pragmas = parse_pragmas(self.lines)
        # name → fully qualified module, from ``import x.y [as z]``.
        self.imports: dict[str, str] = {}
        # name → fully qualified object, from ``from x import y [as z]``.
        self.from_imports: dict[str, str] = {}
        self._index_imports()
        self._parents: dict[ast.AST, ast.AST] | None = None

    # ---- imports ---------------------------------------------------------
    def _index_imports(self) -> None:
        for node in ast.walk(self.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    target = alias.name if alias.asname else alias.name.split(".")[0]
                    self.imports[name] = target
            elif isinstance(node, ast.ImportFrom) and node.module:
                for alias in node.names:
                    name = alias.asname or alias.name
                    self.from_imports[name] = f"{node.module}.{alias.name}"

    def qualified_name(self, node: ast.expr) -> str | None:
        """Resolve a ``Name``/dotted ``Attribute`` through the imports.

        ``t.monotonic`` with ``import time as t`` → ``time.monotonic``;
        ``now`` with ``from datetime import datetime as now``…``now.today``
        resolves through ``from_imports``.  Returns ``None`` for
        anything that is not a plain dotted name (subscripts, calls).
        """
        parts: list[str] = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        base = node.id
        root = self.from_imports.get(base) or self.imports.get(base) or base
        parts.append(root)
        return ".".join(reversed(parts))

    # ---- structure -------------------------------------------------------
    @property
    def parents(self) -> dict[ast.AST, ast.AST]:
        """Child → parent map over the whole tree (built lazily)."""
        if self._parents is None:
            self._parents = {}
            for parent in ast.walk(self.tree):
                for child in ast.iter_child_nodes(parent):
                    self._parents[child] = parent
        return self._parents

    def suppressed(self, rule_id: str, lineno: int) -> bool:
        ids = self.pragmas.get(lineno)
        return ids is not None and (rule_id in ids or "all" in ids)
