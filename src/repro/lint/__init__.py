"""repro.lint — static determinism & event-kernel invariant checks.

The reproduction's core guarantee is *bit-stable simulation*: same
seed + config → byte-identical reports, pinned as sha256 digests over
15 serving configs.  Every bug class that has threatened that
guarantee is statically detectable, and this package detects them at
lint time instead of waiting for a parity digest to flip:

=======  ==============================================================
Rule     Invariant
=======  ==============================================================
DET001   no ``id()``-keyed dicts/caches (the PR 1 collision class)
DET002   no wall-clock/OS-entropy reads in any ``repro.*`` module
DET003   no global-state or unseeded RNG (seeded ``default_rng`` only)
DET004   no ordering-sensitive iteration over set expressions in
         ``src/repro`` (wrap in ``sorted(...)``)
DET005   no module-level mutable state in ``repro.serving``/``repro.sim``
EVT001   every ``Event`` subclass is ``@dataclass(frozen=True,
         slots=True)`` with its own module-unique ``RANK``
EVT002   no attribute assignment to event-typed handler parameters
LINT000  (reserved) file failed to parse
=======  ==============================================================

Usage::

    python -m repro.lint                  # src tests benchmarks
    python -m repro.lint src tests --format json

A deliberate exception carries a same-line pragma, the only way to
excuse a finding::

    memo = {id(obj): obj for obj in shared}  # repro-lint: disable=DET001

CI runs the CLI as a tier-1 gate: any finding without a pragma fails
the build, so a new rule lands with its findings fixed or pragma'd.
"""

from .context import FileContext, module_name_for
from .findings import Finding
from .registry import Rule, all_rules, register, rule_ids
from .runner import (
    DEFAULT_PATHS,
    PARSE_ERROR_RULE,
    LintReport,
    iter_python_files,
    lint_paths,
    lint_source,
)

__all__ = [
    "DEFAULT_PATHS",
    "FileContext",
    "Finding",
    "LintReport",
    "PARSE_ERROR_RULE",
    "Rule",
    "all_rules",
    "iter_python_files",
    "lint_paths",
    "lint_source",
    "module_name_for",
    "register",
    "rule_ids",
]
