"""Benchmark harness support.

Every benchmark regenerates one of the paper's tables or figures: it
runs the matching :mod:`repro.experiments` driver under
pytest-benchmark (one round — these are end-to-end experiment drivers,
not microbenchmarks), prints the series the paper reports, writes the
table to ``benchmarks/results/`` and asserts the reproduction's
acceptance criteria (the relative shapes the paper reports).

Run them by path, since pytest collects only ``test_*.py`` files by
name (``pytest benchmarks/ --benchmark-only`` collects the
``benchmarks/e2e`` self-tests and none of these)::

    pytest benchmarks/bench_fig*.py benchmarks/bench_ext*.py \
        benchmarks/bench_table1*.py --benchmark-only

Add ``-s`` to see the tables inline.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

RESULTS_DIR = Path(__file__).resolve().parent / "results"


@pytest.fixture(scope="session")
def results_dir() -> Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


@pytest.fixture()
def record_table(results_dir):
    """Print a driver's table and persist it under results/."""

    def _record(name: str, table: str) -> None:
        print("\n" + table)
        (results_dir / f"{name}.txt").write_text(table + "\n")

    return _record


@pytest.fixture()
def record_json(results_dir):
    """Persist machine-readable results under results/<name>.json.

    The human-readable ``.txt`` tables are for eyeballs; these JSON
    files are for tools and CI artifacts.
    """

    def _record(name: str, payload) -> None:
        path = results_dir / f"{name}.json"
        path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")

    return _record
