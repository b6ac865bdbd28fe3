"""repro.lint — the determinism / event-kernel invariant checker.

Every shipped rule gets at least one positive and one negative snippet
(so deleting a rule fails its test here), the PR 1 id()-key cache bug
is pinned as a regression fixture, and a full self-run of the linter
over the repo must report no finding: the same-line pragma is the one
way to excuse one.
"""

from __future__ import annotations

import json
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.lint import (
    DEFAULT_PATHS,
    lint_paths,
    lint_source,
    module_name_for,
    rule_ids,
)
from repro.lint.__main__ import main as lint_main
from repro.lint.runner import PARSE_ERROR_RULE

REPO_ROOT = Path(__file__).resolve().parent.parent


def rules_of(source: str, module: str | None = None) -> list[str]:
    """Rule ids found in a dedented snippet, in report order."""
    return [f.rule for f in lint_source(textwrap.dedent(source), module=module)]


# =============================================================================
# Rule registry
# =============================================================================
class TestRegistry:
    def test_all_seven_rules_registered(self):
        assert set(rule_ids()) >= {
            "DET001", "DET002", "DET003", "DET004", "DET005",
            "EVT001", "EVT002",
        }

    def test_module_name_for(self):
        assert module_name_for("src/repro/sim/events.py") == "repro.sim.events"
        assert module_name_for("src/repro/lint/__init__.py") == "repro.lint"
        assert module_name_for("tests/test_lint.py") is None
        # A stray `repro` dir not under src/ is out of package scope.
        assert module_name_for("other/repro/x.py") is None


# =============================================================================
# DET001 — id() as a dict/cache key
# =============================================================================
class TestDet001:
    def test_subscript_key_flagged(self):
        assert "DET001" in rules_of("cache[id(trace)] = entry\n")

    def test_get_flagged(self):
        assert "DET001" in rules_of("entry = cache.get(id(trace))\n")

    def test_setdefault_and_pop_flagged(self):
        assert "DET001" in rules_of("cache.setdefault(id(t), [])\n")
        assert "DET001" in rules_of("cache.pop(id(t), None)\n")

    def test_dict_comprehension_key_flagged(self):
        assert "DET001" in rules_of("d = {id(b): b for b in backends}\n")

    def test_key_named_tuple_flagged(self):
        assert "DET001" in rules_of("cache_key = (id(workload), batch)\n")

    def test_pr1_speculative_set_cache_regression(self):
        """The PR 1 bug, reintroduced verbatim in shape: an id()-keyed
        speculative-set cache with no pinned object — ids recycle after
        GC, so a dead trace's entry can hit for a fresh one."""
        findings = lint_source(textwrap.dedent(
            """
            class NDSearch:
                def simulate_traces(self, traces):
                    for trace in traces:
                        spec = self._spec_cache.get(id(trace))
                        if spec is None:
                            spec = precompute_speculative_sets([trace])
                            self._spec_cache[id(trace)] = spec
            """
        ))
        det = [f for f in findings if f.rule == "DET001"]
        assert len(det) == 2
        assert {f.line for f in det} == {5, 8}

    def test_object_key_not_flagged(self):
        """The repo idiom: key by the object itself, which keeps it alive."""
        src = (
            "compiled = cache.get(trace)\n"
            "if compiled is None:\n"
            "    cache[trace] = compiled = compile(trace)\n"
        )
        assert lint_source(src) == []

    def test_identity_comparison_not_flagged(self):
        assert rules_of("same = id(a) == id(b)\n") == []

    def test_plain_id_call_not_flagged(self):
        assert rules_of("print(id(obj))\n") == []

    def test_pinned_idiom_with_pragma_clean(self):
        src = (
            "entry = cache.get(id(t))  # repro-lint: disable=DET001\n"
            "if entry is None or entry[0] is not t:\n"
            "    cache[id(t)] = entry = (t, compute(t))"
            "  # repro-lint: disable=DET001\n"
        )
        assert lint_source(src) == []


# =============================================================================
# DET002 — wall clock / OS entropy in simulation code
# =============================================================================
class TestDet002:
    def test_time_time_flagged_in_sim_module(self):
        assert "DET002" in rules_of(
            "import time\nt = time.time()\n", module="repro.sim.engine"
        )

    def test_import_alias_resolved(self):
        assert "DET002" in rules_of(
            "import time as t\nnow = t.monotonic()\n", module="repro.serving.x"
        )

    def test_from_import_resolved(self):
        assert "DET002" in rules_of(
            "from time import perf_counter\nx = perf_counter()\n",
            module="repro.core.y",
        )
        assert "DET002" in rules_of(
            "from datetime import datetime\nd = datetime.now()\n",
            module="repro.core.y",
        )

    def test_os_urandom_flagged(self):
        assert "DET002" in rules_of(
            "import os\nb = os.urandom(8)\n", module="repro.flash.ftl"
        )

    def test_no_repro_module_is_exempt(self):
        # No module name is exempt, including those of modules that
        # once read the wall clock on purpose.
        src = "import time\nt0 = time.perf_counter()\n"
        assert "DET002" in rules_of(src, module="repro.sim.pool")
        assert "DET002" in rules_of(src, module="repro.obs.profile")

    def test_out_of_package_code_not_in_scope(self):
        # Tests/benchmarks measure wall-clock freely; the rule guards
        # simulation code only.
        assert rules_of("import time\nt = time.time()\n", module=None) == []

    def test_simulated_clock_not_flagged(self):
        assert rules_of(
            "def handler(loop):\n    return loop.now\n",
            module="repro.serving.frontend",
        ) == []


# =============================================================================
# DET003 — unseeded / global-state RNG
# =============================================================================
class TestDet003:
    def test_random_module_function_flagged(self):
        assert "DET003" in rules_of("import random\nx = random.random()\n")
        assert "DET003" in rules_of(
            "import random\nrandom.shuffle(items)\n"
        )

    def test_np_random_legacy_global_flagged(self):
        assert "DET003" in rules_of(
            "import numpy as np\nnp.random.seed(0)\n"
        )
        assert "DET003" in rules_of(
            "import numpy as np\nx = np.random.randint(10)\n"
        )

    def test_unseeded_default_rng_flagged(self):
        assert "DET003" in rules_of(
            "import numpy as np\nrng = np.random.default_rng()\n"
        )

    def test_unseeded_random_random_flagged(self):
        assert "DET003" in rules_of("import random\nr = random.Random()\n")

    def test_seeded_generator_not_flagged(self):
        assert rules_of(
            "import numpy as np\nrng = np.random.default_rng(1234)\n"
        ) == []
        assert rules_of("import random\nr = random.Random(7)\n") == []

    def test_generator_annotation_not_flagged(self):
        assert rules_of(
            "import numpy as np\n"
            "def draw(rng: np.random.Generator) -> float:\n"
            "    return rng.random()\n"
        ) == []


# =============================================================================
# DET004 — ordering-sensitive set iteration (src/repro scope)
# =============================================================================
class TestDet004:
    MOD = "repro.serving.sharding"

    def test_for_over_set_call_flagged(self):
        assert "DET004" in rules_of(
            "for x in set(items):\n    emit(x)\n", module=self.MOD
        )

    def test_for_over_set_literal_flagged(self):
        assert "DET004" in rules_of(
            "for x in {a, b, c}:\n    emit(x)\n", module=self.MOD
        )

    def test_list_of_set_union_flagged(self):
        assert "DET004" in rules_of(
            "order = list(set(a) | set(b))\n", module=self.MOD
        )

    def test_listcomp_over_set_flagged(self):
        assert "DET004" in rules_of(
            "ys = [f(x) for x in {a, b}]\n", module=self.MOD
        )

    def test_sorted_set_not_flagged(self):
        assert rules_of("order = sorted(set(a) | set(b))\n", module=self.MOD) == []
        assert rules_of(
            "for x in sorted({a, b, c}):\n    emit(x)\n", module=self.MOD
        ) == []

    def test_order_free_reducers_not_flagged(self):
        assert rules_of(
            "total = sum(f(x) for x in {a, b})\n", module=self.MOD
        ) == []

    def test_membership_not_flagged(self):
        # (module-level list assignment trips DET005, which is not
        # under test here — only the set-iteration rule's verdict is)
        assert "DET004" not in rules_of(
            "fresh = [t for t in due if t not in pending]\n", module=self.MOD
        )

    def test_out_of_package_not_in_scope(self):
        assert rules_of("for x in set(items):\n    emit(x)\n", module=None) == []


# =============================================================================
# DET005 — module-level mutable state in serving/sim code
# =============================================================================
class TestDet005:
    MOD = "repro.serving.frontend"

    def test_module_level_dict_literal_flagged(self):
        assert "DET005" in rules_of("_cache = {}\n", module=self.MOD)

    def test_module_level_list_call_flagged(self):
        assert "DET005" in rules_of("_log = list()\n", module=self.MOD)

    def test_annotated_module_level_dict_flagged(self):
        assert "DET005" in rules_of(
            "_cache: dict[tuple, tuple] = {}\n", module=self.MOD
        )

    def test_collections_factories_flagged(self):
        assert "DET005" in rules_of(
            "from collections import defaultdict\n"
            "_counts = defaultdict(int)\n",
            module="repro.sim.events",
        )
        assert "DET005" in rules_of(
            "from collections import OrderedDict\n"
            "_lru = OrderedDict()\n",
            module=self.MOD,
        )

    def test_comprehensions_flagged(self):
        assert "DET005" in rules_of(
            "_by_name = {n: [] for n in NAMES}\n", module=self.MOD
        )

    def test_immutable_module_constants_not_flagged(self):
        assert rules_of(
            "LIMIT = 32\n"
            "RANKS = (5, 10, 20)\n"
            "MODES = frozenset({'a', 'b'})\n",
            module=self.MOD,
        ) == []

    def test_function_and_class_scope_not_flagged(self):
        assert rules_of(
            "def build():\n"
            "    cache = {}\n"
            "    return cache\n"
            "class Router:\n"
            "    def __init__(self):\n"
            "        self.table = {}\n",
            module=self.MOD,
        ) == []

    def test_dunder_assignments_not_flagged(self):
        assert rules_of(
            "__all__ = ['ServingFrontend']\n", module="repro.serving"
        ) == []

    def test_outside_serving_and_sim_not_in_scope(self):
        assert rules_of("_cache = {}\n", module="repro.obs.trace") == []
        assert rules_of("_cache = {}\n", module=None) == []

    def test_pragma_suppresses(self):
        assert rules_of(
            "_build_cache: dict = {}  # repro-lint: disable=DET005\n",
            module="repro.serving.sharding",
        ) == []


# =============================================================================
# EVT001 — event subclass shape + unique RANK
# =============================================================================
GOOD_EVENTS = """
    from dataclasses import dataclass
    from typing import Any, ClassVar
    from repro.sim.events import Event

    @dataclass(frozen=True, slots=True)
    class CacheWarm(Event):
        RANK: ClassVar[int] = 70
        payload: Any = None

    @dataclass(frozen=True, slots=True)
    class CacheCool(CacheWarm):
        RANK: ClassVar[int] = 71
"""


class TestEvt001:
    def test_well_formed_events_clean(self):
        assert rules_of(GOOD_EVENTS) == []

    def test_missing_frozen_flagged(self):
        assert "EVT001" in rules_of(
            """
            from dataclasses import dataclass
            from typing import ClassVar
            from repro.sim.events import Event

            @dataclass(slots=True)
            class Wobbly(Event):
                RANK: ClassVar[int] = 70
            """
        )

    def test_missing_slots_flagged(self):
        assert "EVT001" in rules_of(
            """
            from dataclasses import dataclass
            from typing import ClassVar
            from repro.sim.events import Event

            @dataclass(frozen=True)
            class Heavy(Event):
                RANK: ClassVar[int] = 70
            """
        )

    def test_not_a_dataclass_flagged(self):
        assert "EVT001" in rules_of(
            """
            from repro.sim.events import Event

            class Bare(Event):
                RANK = 70
            """
        )

    def test_missing_rank_flagged(self):
        findings = rules_of(
            """
            from dataclasses import dataclass
            from repro.sim.events import Event

            @dataclass(frozen=True, slots=True)
            class Unranked(Event):
                pass
            """
        )
        assert "EVT001" in findings

    def test_duplicate_rank_flagged(self):
        findings = lint_source(textwrap.dedent(
            """
            from dataclasses import dataclass
            from typing import ClassVar
            from repro.sim.events import Event

            @dataclass(frozen=True, slots=True)
            class A(Event):
                RANK: ClassVar[int] = 70

            @dataclass(frozen=True, slots=True)
            class B(Event):
                RANK: ClassVar[int] = 70
            """
        ))
        dups = [f for f in findings if f.rule == "EVT001"]
        assert len(dups) == 1 and "reuses RANK=70" in dups[0].message

    def test_transitive_subclass_recognised(self):
        # CacheCool in GOOD_EVENTS subclasses a *local* event class; a
        # duplicate rank on it must still be caught.
        bad = GOOD_EVENTS.replace("RANK: ClassVar[int] = 71",
                                  "RANK: ClassVar[int] = 70")
        assert "EVT001" in rules_of(bad)

    def test_kernel_module_itself_clean(self):
        events_py = REPO_ROOT / "src" / "repro" / "sim" / "events.py"
        findings = lint_source(
            events_py.read_text(),
            path="src/repro/sim/events.py",
            module="repro.sim.events",
        )
        assert findings == []


# =============================================================================
# EVT002 — mutation of event-typed handler parameters
# =============================================================================
class TestEvt002:
    def test_attribute_assignment_flagged(self):
        assert "EVT002" in rules_of(
            """
            from repro.sim.events import Arrival

            def on_arrival(event: Arrival) -> None:
                event.time = 0.0
            """
        )

    def test_string_annotation_flagged(self):
        assert "EVT002" in rules_of(
            'def on_tick(ev: "EpochTick") -> None:\n    ev.count += 1\n'
        )

    def test_object_setattr_bypass_flagged(self):
        assert "EVT002" in rules_of(
            """
            from repro.sim.events import Completion

            def on_done(event: Completion) -> None:
                object.__setattr__(event, "payload", None)
            """
        )

    def test_reads_and_locals_not_flagged(self):
        assert rules_of(
            """
            from repro.sim.events import Arrival

            def on_arrival(event: Arrival) -> None:
                t = event.time
                request = event.payload
                request.note = t
            """
        ) == []

    def test_untyped_param_not_flagged(self):
        # Only annotation-identified event params are in scope: an
        # untyped `event` name may be anything.
        assert rules_of(
            "def f(event):\n    event.x = 1\n"
        ) == []


# =============================================================================
# Pragmas
# =============================================================================
class TestPragmas:
    def test_disable_specific_rule(self):
        assert rules_of(
            "cache[id(t)] = 1  # repro-lint: disable=DET001\n"
        ) == []

    def test_disable_all(self):
        assert rules_of(
            "cache[id(t)] = 1  # repro-lint: disable=all\n"
        ) == []

    def test_wrong_rule_id_does_not_suppress(self):
        assert "DET001" in rules_of(
            "cache[id(t)] = 1  # repro-lint: disable=DET002\n"
        )

    def test_pragma_is_line_scoped(self):
        findings = rules_of(
            "cache[id(a)] = 1  # repro-lint: disable=DET001\n"
            "cache[id(b)] = 2\n"
        )
        assert findings == ["DET001"]


# =============================================================================
# Runner + CLI (self-run against the real repo)
# =============================================================================
class TestSelfRun:
    def test_repo_lints_clean(self):
        """`python -m repro.lint src tests benchmarks` exits 0."""
        assert lint_main(
            ["src", "tests", "benchmarks", "--root", str(REPO_ROOT)]
        ) == 0

    def test_bare_run_scans_default_paths(self, capsys):
        """A bare `python -m repro.lint` scans src, tests and benchmarks."""
        assert lint_main(["--root", str(REPO_ROOT), "--format", "json"]) == 0
        report = json.loads(capsys.readouterr().out)
        explicit = lint_paths(["src", "tests", "benchmarks"], REPO_ROOT)
        assert report["files_scanned"] == explicit.files_scanned
        assert report["findings"] == []

    def test_pragma_suppressed_count_is_pinned(self):
        """Three deliberate exceptions: deepcopy's id-keyed memo in
        sim/snapshot.py (DET001) and the module-level tables in
        sim/energy.py and serving/sharding.py (DET005).  A new pragma
        must edit this count."""
        assert lint_paths(list(DEFAULT_PATHS), REPO_ROOT).suppressed == 3

    def test_cli_subprocess_smoke(self):
        proc = subprocess.run(
            [sys.executable, "-m", "repro.lint", "--list-rules"],
            cwd=REPO_ROOT,
            env={"PYTHONPATH": "src", "PATH": "/usr/bin:/bin"},
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "DET001" in proc.stdout and "EVT002" in proc.stdout


class TestCli:
    @pytest.fixture()
    def dirty_tree(self, tmp_path: Path) -> Path:
        pkg = tmp_path / "src" / "repro" / "simx"
        pkg.mkdir(parents=True)
        (pkg / "bad.py").write_text(
            "import time\n"
            "def stamp(cache, obj):\n"
            "    cache[id(obj)] = time.time()\n"
        )
        return tmp_path

    def test_findings_exit_1_and_json_report(self, dirty_tree: Path, capsys):
        code = lint_main(
            ["src", "--root", str(dirty_tree), "--format", "json"]
        )
        assert code == 1
        report = json.loads(capsys.readouterr().out)
        rules = {f["rule"] for f in report["findings"]}
        assert rules == {"DET001", "DET002"}
        assert len(report["findings"]) == 2

    def test_out_file_written(self, dirty_tree: Path, tmp_path: Path):
        out = tmp_path / "report.json"
        lint_main(["src", "--root", str(dirty_tree), "--out", str(out)])
        report = json.loads(out.read_text())
        assert len(report["findings"]) == 2

    def test_missing_path_is_usage_error(self, tmp_path: Path):
        assert lint_main(["nowhere", "--root", str(tmp_path)]) == 2

    def test_syntax_error_reported_not_fatal(self, tmp_path: Path, capsys):
        (tmp_path / "broken.py").write_text("def f(:\n")
        (tmp_path / "fine.py").write_text("cache[id(x)] = 1\n")
        code = lint_main([".", "--root", str(tmp_path), "--format", "json"])
        assert code == 1
        report = json.loads(capsys.readouterr().out)
        rules = {f["rule"] for f in report["findings"]}
        assert rules == {PARSE_ERROR_RULE, "DET001"}

    def test_lint_paths_accepts_single_file(self, dirty_tree: Path):
        report = lint_paths(
            ["src/repro/simx/bad.py"], root=dirty_tree
        )
        assert {f.rule for f in report.findings} == {"DET001", "DET002"}
        assert report.files_scanned == 1
