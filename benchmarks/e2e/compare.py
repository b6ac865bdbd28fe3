"""Compare benchmark results of a parent commit and a change.

Usage::

    python benchmarks/e2e/compare.py --parent P1.json ... P10.json \
        --change C1.json ... C10.json

Each file is one ``run.py --out`` result.  Run the two sides as
alternating pairs with identical settings (parent, change, change,
parent, ...); the i-th parent file pairs with the i-th change file.
Every file must have the same ``--seed``.

For every (workload, metric) the table gives each side's median and
quartiles, the change's win share over the pairs (ties count for
neither), and a verdict for end-to-end metrics.

Host metrics (:data:`HOST`) vary from run to run and are judged against
their bound:

* ``improved`` — every change run beats every parent run, or the
  change wins at least 9 of 10 pairs and the medians differ by more
  than the parent's own quartile spread;
* ``unresolved`` — otherwise, when the parent's quartile spread is
  wider than the metric's bound;
* ``worse`` — the change's median is worse than the parent's by more
  than the bound;
* ``unchanged`` — none of the above.

Simulated metrics are deterministic for a seed, so both sides must
report exactly the same values: the verdict is ``unchanged`` or
``changed``, with bound 0.  (Their bounds in ``BENCHMARK.json`` cover
seed-to-seed spread and do not apply here.)  The last column says
whether the two sides' report digests, a sha256 of all simulated
output, are identical.

Per-layer metrics have no bound and get no verdict.  The exit code is
1 if any host metric is ``worse``, any simulated metric ``changed`` or
any digest different.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

SPEC_PATH = Path(__file__).resolve().parents[2] / "BENCHMARK.json"

MIN_PAIRS = 10

#: End-to-end metrics measured on the host; every other end-to-end
#: metric is simulated and must not change at all.
HOST = ("setup_s", "served_per_s", "peak_rss_mb")


def load(paths: list[Path]) -> tuple[dict[tuple[str, str], list], int]:
    """(workload, metric) -> values, one per file, plus each workload's
    digests under ``(workload, "#digest")``; and the files' common
    seed."""
    values: dict[tuple[str, str], list] = {}
    seeds = set()
    for path in paths:
        result = json.loads(path.read_text())
        seeds.add(result["seed"])
        for run in result["runs"]:
            if run["error"]:
                raise SystemExit(f"{path}: {run['workload']} failed: {run['error']}")
            for name, metric in run["metrics"].items():
                values.setdefault((run["workload"], name), []).append(
                    metric["value"]
                )
            values.setdefault((run["workload"], "#digest"), []).append(
                run["digest"]
            )
    if len(seeds) != 1:
        raise SystemExit(f"files differ in seed: {sorted(seeds)}")
    return values, seeds.pop()


def quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def win_share(parent: list[float], change: list[float], sign: float) -> float:
    """Share of pairs the change wins; ties count for neither side."""
    return sum(sign * (c - p) > 0 for p, c in zip(parent, change)) / len(parent)


def verdict(parent: list[float], change: list[float], sign: float,
            bound: float) -> str:
    """The section-8 verdict for one host metric."""
    q1, p_median, q3 = quartiles(parent)
    gain = sign * (statistics.median(change) - p_median)
    if min(sign * v for v in change) > max(sign * v for v in parent):
        return "improved"
    if p_median and (q3 - q1) / abs(p_median) > bound:
        return "unresolved"
    if win_share(parent, change, sign) >= 0.9 and gain > q3 - q1:
        return "improved"
    if -gain > bound * abs(p_median):
        return "worse"
    return "unchanged"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", nargs="+", type=Path, required=True)
    parser.add_argument("--change", nargs="+", type=Path, required=True)
    args = parser.parse_args(argv)
    if len(args.parent) != len(args.change) or len(args.parent) < MIN_PAIRS:
        parser.error(f"need at least {MIN_PAIRS} parent/change pairs")
    spec = json.loads(SPEC_PATH.read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    (parent, p_seed), (change, c_seed) = load(args.parent), load(args.change)
    if p_seed != c_seed:
        parser.error(f"parent ran seed {p_seed}, change seed {c_seed}")
    failures = 0
    print(f"{'workload':<22} {'metric':<30} {'parent q1/med/q3':>32} "
          f"{'change q1/med/q3':>32} {'win':>5}  verdict     sim")
    for key in sorted(parent):
        workload, name = key
        if name == "#digest" or key not in change:
            continue
        metric = metrics[name]
        p, c = parent[key], change[key]
        sign = 1.0 if metric["better"] == "higher" else -1.0
        if "bound" not in metric:
            result = "-"
        elif name in HOST:
            result = verdict(p, c, sign, metric["bound"])
        else:
            result = "unchanged" if p == c else "changed"
        same = parent[(workload, "#digest")] == change.get((workload, "#digest"))
        failures += result in ("worse", "changed") or not same
        print(
            f"{workload:<22} {name:<30} "
            + " ".join(f"{v:>10.4g}" for v in quartiles(p)) + "  "
            + " ".join(f"{v:>10.4g}" for v in quartiles(c))
            + f" {win_share(p, c, sign):>5.2f}  {result:<11} {'same' if same else 'DIFFERENT'}"
        )
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
