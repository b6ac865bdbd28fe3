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
EVT001   every ``Event`` subclass is ``@dataclass(frozen=True,
         slots=True)`` with its own module-unique ``RANK``
EVT002   no attribute assignment to event-typed handler parameters
LINT000  (reserved) file failed to parse
=======  ==============================================================

Usage::

    python -m repro.lint                  # paths from pytest.ini
    python -m repro.lint src tests --format json
    python -m repro.lint --write-baseline # refresh lint_baseline.json

Deliberate exceptions carry a same-line pragma::

    memo = {id(obj): obj for obj in shared}  # repro-lint: disable=DET001

and grandfathered findings live in the committed ``lint_baseline.json``
(matched by rule + path + line content, so they survive line drift but
not edits to the offending line).  CI runs the CLI as a tier-1 gate:
any non-baselined finding fails the build.
"""

from .baseline import Baseline
from .context import FileContext, module_name_for
from .findings import Finding
from .registry import Rule, all_rules, get_rule, register, rule_ids
from .runner import (
    DEFAULT_BASELINE,
    DEFAULT_PATHS,
    PARSE_ERROR_RULE,
    LintReport,
    iter_python_files,
    lint_paths,
    lint_source,
    load_config,
)

__all__ = [
    "Baseline",
    "DEFAULT_BASELINE",
    "DEFAULT_PATHS",
    "FileContext",
    "Finding",
    "LintReport",
    "PARSE_ERROR_RULE",
    "Rule",
    "all_rules",
    "get_rule",
    "iter_python_files",
    "lint_paths",
    "lint_source",
    "load_config",
    "module_name_for",
    "register",
    "rule_ids",
]
