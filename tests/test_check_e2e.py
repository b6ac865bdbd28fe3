"""The end-to-end benchmark gate (``benchmarks/check_e2e.py``).

Synthetic ``run.py --out`` results exercise every way a run can fail
the committed baseline; the committed baseline itself must pass
against itself and cover every declared workload.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"
sys.path.insert(0, str(BENCHMARKS))

import check_e2e  # noqa: E402

SPEC = json.loads(check_e2e.SPEC_PATH.read_text())
WORKLOADS = ("hot-repeat-greedy", "twin-whatif")


def _result(seed=31):
    """A two-workload ``run.py --trace 0 --out`` result."""
    runs = []
    for i, workload in enumerate(WORKLOADS):
        metrics = {
            m["name"]: {"value": 1.0 + i + j / 7, "unit": m["unit"]}
            for j, m in enumerate(SPEC["end_to_end"])
        }
        runs.append({
            "workload": workload, "trace": 0, "error": None,
            "attempted": 10, "metrics": metrics,
            "digest": [f"{workload}-{child}" for child in range(3)],
        })
    return {"seed": seed, "seconds": SPEC["run_seconds"], "runs": runs}


def _exit_code(tmp_path, baseline, current):
    base, cur = tmp_path / "base.json", tmp_path / "cur.json"
    base.write_text(json.dumps(baseline))
    cur.write_text(json.dumps(current))
    try:
        return check_e2e.main(["--baseline", str(base), "--current", str(cur)])
    except SystemExit as exc:  # compare.load rejects a failed run
        return exc.code if isinstance(exc.code, int) else 1


def _scaled(metric, factor):
    current = _result()
    current["runs"][0]["metrics"][metric]["value"] *= factor
    return current


def test_identical_results_pass(tmp_path):
    assert _exit_code(tmp_path, _result(), _result()) == 0


@pytest.mark.parametrize(
    "metric,factor,code",
    [
        ("served_per_s", 0.81, 0),
        ("served_per_s", 0.79, 1),
        ("served_per_s", 5.0, 0),
        ("setup_s", 1.24, 0),
        ("setup_s", 1.26, 1),
        ("peak_rss_mb", 1.09, 0),
        ("peak_rss_mb", 1.11, 1),
    ],
)
def test_host_metric_bounds(tmp_path, metric, factor, code):
    assert _exit_code(tmp_path, _result(), _scaled(metric, factor)) == code


@pytest.mark.parametrize(
    "metric",
    [m["name"] for m in SPEC["end_to_end"]
     if m["name"] not in check_e2e.HOST],
)
def test_simulated_metric_one_ulp_off_fails(tmp_path, metric):
    current = _result()
    entry = current["runs"][1]["metrics"][metric]
    entry["value"] = float(np.nextafter(entry["value"], np.inf))
    assert _exit_code(tmp_path, _result(), current) == 1


def test_changed_digest_fails(tmp_path):
    current = _result()
    current["runs"][1]["digest"][2] = "other"
    assert _exit_code(tmp_path, _result(), current) == 1


def test_missing_workload_fails(tmp_path):
    current = _result()
    del current["runs"][1]
    assert _exit_code(tmp_path, _result(), current) == 1
    assert _exit_code(tmp_path, current, _result()) == 1


def test_failed_run_fails(tmp_path):
    current = _result()
    current["runs"][0].update(error="recall floor missed", metrics={})
    del current["runs"][0]["digest"]
    assert _exit_code(tmp_path, _result(), current) == 1


def test_seed_mismatch_fails(tmp_path):
    assert _exit_code(tmp_path, _result(), _result(seed=131)) == 1


def test_cli_exit_codes(tmp_path):
    base, cur = tmp_path / "base.json", tmp_path / "cur.json"
    base.write_text(json.dumps(_result()))
    script = [sys.executable, str(BENCHMARKS / "check_e2e.py"),
              "--baseline", str(base), "--current", str(cur)]
    cur.write_text(json.dumps(_result()))
    assert subprocess.run(script, capture_output=True).returncode == 0
    cur.write_text(json.dumps(_scaled("served_per_s", 0.5)))
    failed = subprocess.run(script, capture_output=True, text=True)
    assert failed.returncode == 1
    assert "served_per_s" in failed.stderr


def test_committed_baseline_covers_every_workload():
    baseline = json.loads(check_e2e.BASELINE.read_text())
    assert baseline["seed"] == 31
    assert [r["workload"] for r in baseline["runs"]] == [
        w["name"] for w in SPEC["workloads"]
    ]
    assert all(r["trace"] == 0 and r["error"] is None
               for r in baseline["runs"])
    assert check_e2e.check(check_e2e.BASELINE, check_e2e.BASELINE) == []
