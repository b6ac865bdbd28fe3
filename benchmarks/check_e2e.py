"""Gate one end-to-end benchmark run against the committed baseline.

Usage (what CI runs)::

    PYTHONPATH=src python benchmarks/e2e/run.py --trace 0 --out /tmp/e2e_current.json
    PYTHONPATH=src python benchmarks/check_e2e.py --current /tmp/e2e_current.json

Compares one ``run.py --trace 0 --out`` result with the committed
``benchmarks/results/e2e_baseline.json`` and exits 1 when

* a host end-to-end metric (``compare.HOST``) is worse than the
  baseline by more than its ``BENCHMARK.json`` bound;
* any simulated end-to-end metric or report digest differs at all;
* a workload is missing from either side or failed, or the two runs
  used different seeds.

``run.py`` already divides host times by the slowdown its calibration
loop measures, so both sides are at the reference host's speed.

Refresh the baseline only in a change that moves host cost or
simulated output on purpose, and say why in that change::

    PYTHONPATH=src python benchmarks/e2e/run.py --trace 0 --seed 31 \\
        --out benchmarks/results/e2e_baseline.json
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE / "e2e"))

from compare import HOST, SPEC_PATH, load  # noqa: E402

BASELINE = HERE / "results" / "e2e_baseline.json"


def check(baseline: Path, current: Path) -> list[str]:
    """Print one row per (workload, metric); return the failures.

    A workload that failed on either side stops the check through
    :func:`compare.load`, which exits with the run's error.
    """
    (base, base_seed), (cur, cur_seed) = load([baseline]), load([current])
    failures = []
    if base_seed != cur_seed:
        failures.append(f"baseline ran seed {base_seed}, current {cur_seed}")
    base_workloads = {w for w, _ in base}
    cur_workloads = {w for w, _ in cur}
    for workload in sorted(base_workloads ^ cur_workloads):
        side = "current" if workload in base_workloads else "baseline"
        failures.append(f"{workload}: missing from the {side} run")
    metrics = json.loads(SPEC_PATH.read_text())["end_to_end"]
    print(f"{'workload':<22} {'metric':<18} {'baseline':>12} "
          f"{'current':>12} {'gain':>8}  verdict")
    for workload in sorted(base_workloads & cur_workloads):
        if base[(workload, "#digest")] != cur[(workload, "#digest")]:
            failures.append(f"{workload}: report digests differ")
        for metric in metrics:
            name = metric["name"]
            if (workload, name) not in base or (workload, name) not in cur:
                failures.append(f"{workload}: {name} missing from a run")
                continue
            (b,), (c,) = base[(workload, name)], cur[(workload, name)]
            sign = 1.0 if metric["better"] == "higher" else -1.0
            change = sign * (c - b) / abs(b) if b else 0.0
            if name not in HOST:
                verdict = "same" if c == b else "CHANGED"
            elif change < -metric["bound"]:
                verdict = f"WORSE than bound {metric['bound']:g}"
            else:
                verdict = "ok"
            if verdict not in ("same", "ok"):
                failures.append(f"{workload}: {name} {b:.6g} -> {c:.6g} "
                                f"{verdict}")
            print(f"{workload:<22} {name:<18} {b:>12.6g} {c:>12.6g} "
                  f"{change:>+8.1%}  {verdict}")
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--baseline", type=Path, default=BASELINE)
    parser.add_argument("--current", type=Path, required=True,
                        help="one run.py --trace 0 --out result")
    args = parser.parse_args(argv)
    failures = check(args.baseline, args.current)
    for message in failures:
        print(f"FAIL: {message}", file=sys.stderr)
    if not failures:
        print("OK: within every host bound; simulated output identical")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
