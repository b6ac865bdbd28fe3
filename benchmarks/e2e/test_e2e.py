"""Checks on the end-to-end benchmark itself (not part of tier-1).

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e -q``.  Each
workload runs at a tiny size in two fresh processes (one untraced and
one traced repetition each).
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

SPEC = json.loads(run.SPEC_PATH.read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")

#: Per-workload overrides shrinking each instance to a few seconds.
TINY = {
    "hot-repeat-greedy": {"deployment": {"corpus": 300, "pool": 32, "requests": 120}},
    "cold-unique-batch": {"deployment": {"corpus": 300, "pool": 512, "requests": 96}},
    "skew-flash-rebalance": {"deployment": {"corpus": 300, "requests": 240}},
    "twin-whatif": {"deployment": {"corpus": 300, "requests": 240}},
    "paper-fig13": {"datasets": ["glove-100"], "pool": 64},
}

CHILD = """
import copy, dataclasses, json, sys
sys.path.insert(0, sys.argv[1])
import worker, workloads
name, overrides, seed = sys.argv[2], json.loads(sys.argv[3]), int(sys.argv[4])
w = copy.copy(workloads.WORKLOADS[name])
for key, value in overrides.items():
    if key == "deployment":
        w.deployment = dataclasses.replace(w.deployment, **value)
        w.recall_floor = 0.0
    else:
        setattr(w, key, tuple(value) if isinstance(value, list) else value)
try:
    record, _ = worker.measure(w, seed, 0.0, True)
finally:
    w.close()
print(json.dumps(record))
"""


def tiny_run(name: str, seed: int = 31) -> dict:
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, str(HERE), name, json.dumps(TINY[name]),
         str(seed)],
        stdout=subprocess.PIPE, text=True, timeout=300, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module", params=sorted(TINY))
def pair(request) -> tuple[dict, dict]:
    return tiny_run(request.param), tiny_run(request.param)


def test_spec_matches_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(TINY)


def test_emitted_names_are_declared(pair):
    first, _ = pair
    for section, values in (
        ("end_to_end", run.end_to_end([first])),
        ("per_layer", run.per_layer([first])),
    ):
        emitted = run.declared(SPEC, section, values)
        assert list(emitted) == [m["name"] for m in SPEC[section]]
        assert all(NAME.fullmatch(name) for name in emitted)


def test_sim_metrics_repeat_across_processes(pair):
    first, second = pair
    assert first["sim"] == second["sim"]
    assert first["latencies_ms"] == second["latencies_ms"]
    assert first["digest"] == second["digest"]


def test_self_times_cover_the_root(pair):
    layers = pair[0]["layers"]
    root = layers["total_s"]["rep"]
    assert sum(layers["self_s"].values()) == pytest.approx(root, rel=1e-9)
    assert root == pytest.approx(sum(pair[0]["traced_walls"]), rel=0.01)
