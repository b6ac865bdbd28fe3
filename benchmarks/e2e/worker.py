"""One benchmark child process: set up one workload, then measure it.

Usage (``run.py`` starts this; it is not meant to be run by hand)::

    python benchmarks/e2e/worker.py --workload NAME --seed S --seconds T \
        --trace 0|1 [--trace-out FILE]

Set-up is timed once.  Repetitions then run back to back until
``--seconds`` have passed; each repetition's wall time covers only the
workload's timed callable.  A fixed calibration loop runs before
set-up and after set-up and every repetition, so each host time comes
with the host's momentary slowdown against the reference speed.  With ``--trace 1`` repetitions alternate
untraced and traced (wrapped layer callables, see ``layers.py``) so the
two kinds can be compared for tracing overhead.  Every repetition must
report the same simulated metrics and report digest.

Prints one JSON object on stdout.  A failed correctness gate prints
``{"error": ...}`` and exits 3; any other failure exits non-zero with a
traceback.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "src"))

from layers import LayerTracer  # noqa: E402
from workloads import WORKLOADS, CheckFailed, check  # noqa: E402


#: Seconds :func:`calibrate` takes on the reference host (a 2-vCPU
#: x86-64 VM in its fast phase); host times are reported at this speed.
REFERENCE_S = 0.08


def calibrate() -> float:
    """Host slowdown now: one fixed loop's time over :data:`REFERENCE_S`.

    The loop mixes Python arithmetic with small numpy calls, the mix the
    simulator runs, and uses nothing from ``repro``, so no change to the
    program can speed it up.  On a shared host the speed of both drifts
    together by tens of percent over minutes; dividing a measured time
    by the slowdown around it removes most of that drift.
    """
    start = time.perf_counter()
    total = 0
    for i in range(1_000_000):
        total += i * i % 7
    rng = np.random.default_rng(0)
    for _ in range(1500):
        np.unique(np.sort(rng.random(64)))
    return (time.perf_counter() - start) / REFERENCE_S


def peak_rss_mb() -> float:
    """This process's resident-set high-water mark (Linux: KiB units)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def measure(workload, seed: int, seconds: float, trace: bool):
    """Set up ``workload`` and repeat it for ``seconds``; returns the
    child's record and, with ``trace``, the tracer of its traced
    repetitions."""
    setup_tracer, tracer = LayerTracer(), LayerTracer()
    slowdown = calibrate()
    start = time.perf_counter()
    with setup_tracer.traced("setup") if trace else contextlib.nullcontext():
        workload.setup(seed)
    setup_s = time.perf_counter() - start
    before, slowdown = slowdown, calibrate()
    setup_slowdown = (before + slowdown) / 2

    walls: dict[bool, list[float]] = {False: [], True: []}
    slowdowns: dict[bool, list[float]] = {False: [], True: []}
    first = None
    deadline = time.perf_counter() + seconds
    while True:
        traced = trace and len(walls[False]) > len(walls[True])
        run = workload.prepare()
        with tracer.traced("rep") if traced else contextlib.nullcontext():
            start = time.perf_counter()
            result = run()
            wall = time.perf_counter() - start
        outcome = workload.evaluate(result)
        if first is None:
            first, rss = outcome, peak_rss_mb()
        check(
            (outcome.sim, outcome.digest) == (first.sim, first.digest),
            "a repetition's simulated output differs from the first "
            f"repetition's ({'traced' if traced else 'untraced'})",
        )
        walls[traced].append(wall)
        before, slowdown = slowdown, calibrate()
        slowdowns[traced].append((before + slowdown) / 2)
        if time.perf_counter() >= deadline and (not trace or walls[True]):
            break
    record = {
        "setup_s": setup_s,
        "setup_slowdown": setup_slowdown,
        "peak_rss_mb": rss,
        "work": first.work,
        "walls": walls[False],
        "slowdowns": slowdowns[False],
        "traced_walls": walls[True],
        "traced_slowdowns": slowdowns[True],
        "sim": first.sim,
        "latencies_ms": first.latencies_ms,
        "counts": first.counts,
        "digest": first.digest,
    }
    if not trace:
        return record, None
    record["layers"] = {
        "self_s": dict(tracer.self_s),
        "total_s": dict(tracer.total_s),
        "calls": dict(tracer.calls),
        "work": dict(tracer.work),
        "setup_s": setup_tracer.total_s["setup"],
        "setup_get_workload_s": setup_tracer.total_s.get(
            "experiments.get_workload", 0.0
        ),
    }
    return record, tracer


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--trace-out", type=Path, default=None)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    try:
        record, tracer = measure(
            workload, args.seed, args.seconds, bool(args.trace)
        )
    except CheckFailed as failure:
        print(json.dumps({"error": str(failure)}))
        return 3
    finally:
        workload.close()
    if tracer is not None and args.trace_out is not None:
        tracer.write(args.trace_out, record["layers"])
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
