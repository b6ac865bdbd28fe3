"""End-to-end benchmark of the NDSearch reproduction.

Usage::

    python benchmarks/e2e/run.py [--workload NAME]... [--seed S]
        [--seconds T] [--trace 0|1] [--out FILE]

Each (workload, trace mode) pair runs in fresh child processes
(``worker.py``), one at a time, single-threaded.  ``--trace 0`` gives
the end-to-end metrics, ``--trace 1`` the per-layer ones; without
``--trace`` both run, untraced first.  Each mode starts
:data:`CHILDREN` children that each set up their own instance of the
workload once and then measure repetitions for ``T / CHILDREN``
seconds, so set-up time is the median of several cold set-ups.  The
run length ``T`` is fixed by ``BENCHMARK.json``; ``--seconds`` exists
for benchmark runners that pass it and must equal it.  Host
times are scaled to a reference host speed (see ``worker.calibrate``).
Every metric is printed by name with its unit; the last
line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  The exit code is 1 when a correctness
gate fails and 2 when a child fails in any other way (then no result
line is printed).

``--out FILE`` writes every run's metrics and report digest as JSON
(the input of ``compare.py``); traced runs also write each child's
Chrome trace and layer table next to it.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np

from layers import EVENT_TYPES

HERE = Path(__file__).resolve().parent
SPEC_PATH = HERE.parents[1] / "BENCHMARK.json"

#: Child processes per (workload, mode).  Child ``i`` simulates its own
#: instance of the workload, seeded ``S + SEED_STRIDE * i`` for
#: ``--seed S``, and times one cold set-up; throughput and simulated
#: metrics pool the instances, so one run averages over several corpora
#: and streams.
CHILDREN = 3
SEED_STRIDE = 1000

#: Wall-clock cap on one child, so a run always ends within 180 s.
CHILD_TIMEOUT_S = 55

LOAD_SHAPE = (
    "load: open-loop Poisson arrivals at a fixed rate on the simulated "
    "clock; latency counts from each request's scheduled arrival, so "
    "generator lateness is 0 by construction. Host side: one "
    "single-threaded closed loop running repetitions back to back."
)


class ChildFailed(RuntimeError):
    """A child crashed or timed out (not a correctness verdict)."""


def run_children(workload: str, seed: int, seconds: float, trace: int,
                 trace_out: Path | None) -> tuple[list[dict], str | None]:
    """Run :data:`CHILDREN` workers in turn; returns their records and
    the first correctness failure message (or ``None``)."""
    env = dict(
        os.environ,
        OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1",
    )
    records = []
    for child in range(CHILDREN):
        cmd = [
            sys.executable, str(HERE / "worker.py"),
            "--workload", workload, "--seed", str(seed + SEED_STRIDE * child),
            "--seconds", repr(seconds / CHILDREN), "--trace", str(trace),
        ]
        if trace_out is not None and trace:
            cmd += ["--trace-out", f"{trace_out}.{workload}.{child}.trace.json"]
        try:
            proc = subprocess.run(
                cmd, env=env, stdout=subprocess.PIPE, text=True,
                timeout=CHILD_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired as exc:
            raise ChildFailed(f"{workload}: child timed out") from exc
        lines = proc.stdout.strip().splitlines()
        record = json.loads(lines[-1]) if lines else {}
        if proc.returncode == 3 and "error" in record:
            return records, record["error"]
        if proc.returncode != 0:
            raise ChildFailed(f"{workload}: child exited {proc.returncode}")
        records.append(record)
    return records, None


def end_to_end(records: list[dict]) -> dict[str, float]:
    """Host metrics at the reference host speed, each child's
    repetitions reduced by their median; simulated metrics pooled over
    the children's instances."""
    sim = {key: sum(r["sim"][key] for r in records) for key in records[0]["sim"]}
    latencies = [v for r in records for v in r["latencies_ms"]]
    return {
        "setup_s": statistics.median(
            r["setup_s"] / r["setup_slowdown"] for r in records
        ),
        # One repetition of each instance back to back, each timed by
        # the median of its repetitions.
        "served_per_s": sum(r["work"] for r in records) / sum(
            statistics.median(
                wall / slowdown
                for wall, slowdown in zip(r["walls"], r["slowdowns"])
            )
            for r in records
        ),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in records),
        "sim_qps": sim["served"] / sim["horizon_s"],
        "sim_p50_ms": float(np.percentile(latencies, 50)),
        "sim_p99_ms": float(np.percentile(latencies, 99)),
        "sim_ok_frac": sim["ok"] / sim["offered"],
        "recall_at_10": sim["recall_sum"] / sim["queries"],
        "sim_qps_per_watt": sim["served"] / sim["energy_j"],
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def per_layer(records: list[dict]) -> dict[str, float]:
    """Layer metrics from the traced repetitions of every child.

    ``*_frac`` metrics are self time over the traced repetitions' wall
    time; ``*_per_s`` are work done per second of the layer's own time,
    at the reference host speed.
    """
    self_s: dict[str, float] = {}
    total_s: dict[str, float] = {}
    calls: dict[str, float] = {}
    work: dict[str, float] = {}
    for r in records:
        for target, source in ((self_s, "self_s"), (total_s, "total_s"),
                               (calls, "calls"), (work, "work")):
            for name, value in r["layers"][source].items():
                target[name] = target.get(name, 0.0) + value
    reps = sum(len(r["traced_walls"]) for r in records)
    root = total_s["rep"]
    slowdown = statistics.fmean(
        s for r in records for s in r["traced_slowdowns"]
    )

    def rate(units: float, seconds: float) -> float:
        return units / seconds * slowdown if seconds > 0 else 0.0

    def frac(name: str) -> float:
        return self_s.get(name, 0.0) / root

    def layer_frac(layer: str) -> float:
        """Self time of every span named ``layer`` or ``layer.*``."""
        return sum(
            seconds for name, seconds in self_s.items()
            if name == layer or name.startswith(layer + ".")
        ) / root

    out = {
        "events.count": work.get("events", 0) / reps,
        "events.per_s": rate(work.get("events", 0), self_s.get("events", 0)),
        "ann.queries_per_s": rate(work.get("ann", 0), self_s.get("ann", 0)),
        "platform.queries_priced": work.get("platform", 0) / reps,
        "platform.queries_per_s": rate(
            work.get("platform", 0), total_s.get("platform", 0)
        ),
        "backends.query_repeat_frac": _ratio(
            work.get("backends.row_repeats", 0), work.get("backends.rows", 0)
        ),
        "backends.batch_repeat_frac": _ratio(
            work.get("backends.batch_repeats", 0),
            work.get("backends.batches", 0),
        ),
        "snapshot.captures": calls.get("snapshot.capture", 0) / reps,
        "snapshot.restores": calls.get("snapshot.restore", 0) / reps,
        "snapshot.captures_per_s": rate(
            calls.get("snapshot.capture", 0), total_s.get("snapshot.capture", 0)
        ),
        "snapshot.restores_per_s": rate(
            calls.get("snapshot.restore", 0), total_s.get("snapshot.restore", 0)
        ),
        "twin.whatifs_per_s": rate(
            calls.get("twin.whatif", 0), total_s.get("twin.whatif", 0)
        ),
        "experiments.get_workload_frac": statistics.median(
            r["layers"]["setup_get_workload_s"] / r["layers"]["setup_s"]
            for r in records
        ),
        "trace.overhead_frac": statistics.median(
            w / s for r in records
            for w, s in zip(r["traced_walls"], r["traced_slowdowns"])
        ) / statistics.median(
            w / s for r in records for w, s in zip(r["walls"], r["slowdowns"])
        ) - 1.0,
        "trace.unattributed_frac": frac("rep"),
        "core.searssd_frac": frac("core.searssd"),
        "core.speculative_frac": frac("core.speculative"),
        "sharding.probe_frac": frac("sharding.probe"),
    }
    for layer in ("events", "frontend", "sharding", "backends", "ann",
                  "platform", "device", "storage", "snapshot", "twin",
                  "experiments"):
        out[f"{layer}.self_frac"] = layer_frac(layer)
    for kind in EVENT_TYPES:
        out[f"frontend.{kind}_frac"] = frac(f"frontend.{kind}")
    for name in records[0]["counts"]:
        out[name] = statistics.fmean(r["counts"][name] for r in records)
    return out


def declared(spec: dict, section: str, values: dict[str, float]) -> dict:
    """``values`` as declared metrics; a metric a workload never
    exercises reads 0."""
    undeclared = set(values) - {m["name"] for m in spec[section]}
    if undeclared:
        raise ValueError(f"undeclared {section} metrics: {sorted(undeclared)}")
    out = {}
    for metric in spec[section]:
        value = values.get(metric["name"], 0.0)
        out[metric["name"]] = {"value": value, "unit": metric["unit"]}
    return out


def main(argv: list[str] | None = None) -> int:
    spec = json.loads(SPEC_PATH.read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(
        description="End-to-end benchmark of the NDSearch reproduction."
    )
    parser.add_argument("--workload", action="append", choices=names,
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=31)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"],
                        help="measured seconds per workload and mode; "
                             "accepted only as BENCHMARK.json's run_seconds, "
                             "so every run has the same length")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0: end-to-end metrics only, 1: per-layer "
                             "metrics only (default: both)")
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args(argv)
    if args.seconds != spec["run_seconds"]:
        parser.error(f"--seconds must be {spec['run_seconds']} "
                     "(BENCHMARK.json run_seconds)")
    workloads = args.workload or names
    modes = (0, 1) if args.trace is None else (args.trace,)

    print(LOAD_SHAPE)
    runs = []
    for workload in workloads:
        digests = None
        for trace in modes:
            try:
                records, error = run_children(
                    workload, args.seed, args.seconds, trace, args.out
                )
            except ChildFailed as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 2
            run = {"workload": workload, "trace": trace, "error": error,
                   "attempted": 0, "metrics": {}}
            if error is None:
                run["digest"] = [r["digest"] for r in records]
                if digests not in (None, run["digest"]):
                    run["error"] = "traced and untraced runs disagree"
                digests = run["digest"]
                section = "per_layer" if trace else "end_to_end"
                values = per_layer(records) if trace else end_to_end(records)
                run["metrics"] = declared(spec, section, values)
                run["attempted"] = sum(
                    r["work"] * (len(r["walls"]) + len(r["traced_walls"]))
                    for r in records
                )
            runs.append(run)
            if records:
                slowdown = statistics.median(
                    s for r in records
                    for s in r["slowdowns"] + r["traced_slowdowns"]
                )
                print(f"{workload:<22} host slowdown vs reference "
                      f"{slowdown:.3f} (calibration loop); "
                      f"{sum(len(r['latencies_ms']) for r in records)} "
                      f"simulated latency samples")
            for name, metric in run["metrics"].items():
                print(f"{workload:<22} {name:<32} {metric['value']:>14.6g} "
                      f"{metric['unit']}")
            if run["error"]:
                print(f"{workload}: FAILED: {run['error']}")

    failed = [r for r in runs if r["error"]]
    if args.out is not None:
        args.out.write_text(json.dumps(
            {"seed": args.seed, "seconds": args.seconds, "runs": runs},
            indent=2, sort_keys=True,
        ) + "\n")
    if len(workloads) == 1:
        metrics = {k: v for r in runs for k, v in r["metrics"].items()}
    else:
        metrics = {}
        for r in runs:
            metrics.setdefault(r["workload"], {}).update(r["metrics"])
    print(json.dumps({
        "correct": not failed,
        "attempted": max(1, sum(r["attempted"] for r in runs)),
        "failed": sum(max(r["attempted"], 1) for r in failed),
        "metrics": metrics,
    }))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
