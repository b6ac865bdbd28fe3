"""Microbenchmark: lockstep HNSW search against the per-query kernel.

Times :meth:`HNSWIndex.search_batch`, which advances a batch's queries in
lockstep (:func:`repro.ann.search.beam_search_batch`), against the scalar
oracle: the same greedy descent and layer-0 beam, run one query at a time
through :func:`repro.ann.search.greedy_beam_search` over the index's
layers as dict-of-lists (:attr:`HNSWIndex.layers`).  Cells cover batch sizes 1, 2, 4, 32 and 256 on
800x16 and 2,000x32 clustered corpora (M=8, ef_construction=48, the
serving benchmark's index), 256 queries, k=10.

Before timing, each corpus checks that both sides return identical IDs,
distance bytes and trace columns.  The two sides alternate round by round
in one process (which side goes first alternates too), so drift in
machine speed hits both alike; a cell reports each side's median
per-query time over the rounds and the median of the per-round ratios.

Run from the repo root:

    PYTHONPATH=src python benchmarks/bench_lockstep_beam.py \\
        [--rounds 7] [--out benchmarks/results/lockstep_beam_micro.txt]
"""

from __future__ import annotations

import argparse
import platform
import statistics
import time

import numpy as np

from repro.ann import HNSWIndex, HNSWParams
from repro.ann.search import greedy_beam_search, top_k_from_results
from repro.ann.trace import TraceRecorder
from repro.data.synthetic import clustered_gaussian, split_queries

CORPORA = ((800, 16), (2000, 32))
BATCH_SIZES = (1, 2, 4, 32, 256)
NUM_QUERIES = 256
K = 10


def scalar_search_batch(index: HNSWIndex, layers, queries: np.ndarray, k: int):
    """``index.search_batch(queries, k)`` run query by query through the
    scalar kernel over ``layers`` (``index.layers``, read once outside
    the timed region), as every index searched before the lockstep
    kernel."""
    ef = max(k, index.params.ef_construction // 2, index.params.max_degree0)
    all_ids = np.full((queries.shape[0], k), -1, dtype=np.int64)
    all_dists = np.full((queries.shape[0], k), np.inf, dtype=np.float64)
    traces = []
    for i, query in enumerate(queries):
        entry = index.entry_point
        for layer in range(int(index.levels[index.entry_point]), -1, -1):
            adj = layers[layer]
            neighbors_of = lambda v, adj=adj: np.asarray(  # noqa: E731
                adj.get(v, ()), dtype=np.int64
            )
            if layer:
                entry = greedy_beam_search(
                    index.vectors, neighbors_of, query, [entry], 1, index.metric
                )[0][1]
                continue
            recorder = TraceRecorder(query_id=i)
            results = greedy_beam_search(
                index.vectors,
                neighbors_of,
                query,
                [entry] + [p for p in index._pivots if p != entry],
                ef,
                index.metric,
                recorder=recorder,
            )
        ids, dists = top_k_from_results(results, k)
        recorder.record_result(ids, dists)
        all_ids[i, : ids.size] = ids
        all_dists[i, : dists.size] = dists
        traces.append(recorder.finish())
    return all_ids, all_dists, traces


def _same(a, b) -> bool:
    """Identical ids, distance bytes and trace columns."""
    if a[0].tobytes() != b[0].tobytes() or a[1].tobytes() != b[1].tobytes():
        return False
    return all(
        getattr(x, col).tobytes() == getattr(y, col).tobytes()
        for x, y in zip(a[2], b[2], strict=True)
        for col in ("entries", "offsets", "computed", "result_ids",
                    "result_distances")
    )


def _per_query_s(search, queries: np.ndarray, batch: int) -> float:
    start = time.perf_counter()
    for lo in range(0, queries.shape[0], batch):
        search(queries[lo : lo + batch])
    return (time.perf_counter() - start) / queries.shape[0]


def run(rounds: int) -> str:
    lines = [
        "Lockstep HNSW search vs the per-query scalar kernel",
        "=" * 51,
        "",
        f"Per-query time of {NUM_QUERIES} queries searched in batches of B",
        f"(k={K}, default ef), median of {rounds} alternating rounds.",
        "speedup = median over rounds of scalar time / lockstep time.",
        f"Host: {platform.machine()}, Python {platform.python_version()}, "
        f"numpy {np.__version__}.",
        "",
        f"{'corpus':>9} {'B':>4} {'scalar us/q':>12} {'lockstep us/q':>14} "
        f"{'speedup':>8}",
    ]
    for n, dim in CORPORA:
        vectors = clustered_gaussian(n, dim, seed=31)
        queries = split_queries(vectors, NUM_QUERIES, seed=32)
        index = HNSWIndex(vectors, HNSWParams(M=8, ef_construction=48))
        layers = index.layers
        if not _same(index.search_batch(queries, K),
                     scalar_search_batch(index, layers, queries, K)):
            raise SystemExit(f"{n}x{dim}: lockstep output differs from scalar")
        sides = {
            "scalar": lambda q: scalar_search_batch(index, layers, q, K),
            "lockstep": lambda q: index.search_batch(q, K),
        }
        for batch in BATCH_SIZES:
            times = {name: [] for name in sides}
            for r in range(rounds):
                order = list(sides) if r % 2 == 0 else list(sides)[::-1]
                for name in order:
                    times[name].append(_per_query_s(sides[name], queries, batch))
            speedup = statistics.median(
                s / c for s, c in zip(times["scalar"], times["lockstep"])
            )
            lines.append(
                f"{n:>5}x{dim:<3} {batch:>4} "
                f"{statistics.median(times['scalar']) * 1e6:>12.1f} "
                f"{statistics.median(times['lockstep']) * 1e6:>14.1f} "
                f"{speedup:>7.2f}x"
            )
    return "\n".join(lines)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--rounds", type=int, default=7)
    parser.add_argument("--out", default=None, help="also write the table here")
    args = parser.parse_args()
    table = run(args.rounds)
    print(table)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(table + "\n")


if __name__ == "__main__":
    main()
