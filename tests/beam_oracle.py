"""The reference beam search both kernels are pinned to, and the
hypothesis strategy that draws graphs for it.

:func:`_scalar_oracle` is the original one-hop-at-a-time body of
:func:`repro.ann.search.greedy_beam_search`: per hop it converts every
distance with ``float``, takes unpadded neighbor lists and checks
shapes through :func:`distances_to_query`.  It lives here, not in
``repro``, so it cannot drift with the kernels it checks: the lockstep
kernel (``test_beam_batch.py``), the lean scalar kernel
(``test_scalar_beam.py``) and the HNSW build oracle
(``test_hnsw_build.py``) all compare against it.
"""

from __future__ import annotations

import heapq

import numpy as np
from hypothesis import strategies as st

from repro.ann.distance import DistanceMetric, distances_to_query
from repro.ann.search import CHUNK_QUERIES, entry_order
from repro.ann.trace import TraceRecorder


def _scalar_oracle(
    vectors: np.ndarray,
    neighbors_of,
    query: np.ndarray,
    entry_points: list[int],
    ef: int,
    metric: DistanceMetric,
    recorder: TraceRecorder | None = None,
    neighbor_filter=None,
    max_iterations: int | None = None,
) -> list[tuple[float, int]]:
    """Beam search of one query over ``neighbors_of(vertex)``, an
    unpadded neighbor-list callable; see ``greedy_beam_search``."""
    if ef < 1:
        raise ValueError("ef must be >= 1")
    if not entry_points:
        raise ValueError("need at least one entry point")

    entry_array = entry_order(entry_points)
    entry_dists = distances_to_query(vectors[entry_array], query, metric)
    visited = np.zeros(vectors.shape[0], dtype=bool)
    visited[entry_array] = True

    candidates: list[tuple[float, int]] = []
    results: list[tuple[float, int]] = []
    for dist, vid in zip(entry_dists, entry_array):
        heapq.heappush(candidates, (float(dist), int(vid)))
        heapq.heappush(results, (-float(dist), int(vid)))
    while len(results) > ef:
        heapq.heappop(results)
    if recorder is not None:
        recorder.record_iteration(int(entry_array[0]), entry_array.tolist())

    iterations = 0
    while candidates:
        dist, vertex = heapq.heappop(candidates)
        worst = -results[0][0]
        if dist > worst and len(results) >= ef:
            break
        if max_iterations is not None and iterations >= max_iterations:
            break
        iterations += 1

        neigh = np.asarray(neighbors_of(vertex))
        if neighbor_filter is not None and neigh.size:
            neigh = np.asarray(neighbor_filter(vertex, neigh))
        if neigh.size:
            fresh_arr = neigh[~visited[neigh]].astype(np.int64)
        else:
            fresh_arr = neigh.astype(np.int64)
        if recorder is not None:
            recorder.record_iteration(vertex, fresh_arr)
        if fresh_arr.size == 0:
            continue
        visited[fresh_arr] = True
        dists = distances_to_query(vectors[fresh_arr], query, metric)
        worst = -results[0][0]
        for d, u in zip(dists, fresh_arr):
            d = float(d)
            if len(results) < ef or d < worst:
                heapq.heappush(candidates, (d, int(u)))
                heapq.heappush(results, (-d, int(u)))
                if len(results) > ef:
                    heapq.heappop(results)
                worst = -results[0][0]

    ordered = sorted(((-d, v) for d, v in results))
    return [(d, v) for d, v in ordered]


@st.composite
def beam_case(draw, batches=(1, 2, 3, 7, CHUNK_QUERIES + 3)):
    """A random graph, a batch of queries with entries, and the knobs.

    The graphs have zero-degree vertices, duplicate neighbor IDs,
    self-loops, duplicate entry points and more entries than ``ef``;
    half the cases use small integer coordinates, whose many exactly
    equal distances exercise the ``(distance, id)`` tie-breaks.
    """
    n = draw(st.integers(1, 40))
    dim = draw(st.integers(1, 6))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    if draw(st.booleans()):
        vectors = rng.integers(-2, 3, size=(n, dim)).astype(np.float32)
    else:
        vectors = rng.normal(size=(n, dim)).astype(np.float32)
    max_degree = draw(st.integers(0, 8))
    lists = [
        rng.integers(0, n, size=rng.integers(0, max_degree + 1)).tolist()
        for _ in range(n)
    ]
    batch = draw(st.sampled_from(batches))
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    queries = rng.normal(size=(batch, dim)).astype(dtype)
    entries = [
        rng.integers(0, n, size=rng.integers(1, 6)).tolist() for _ in range(batch)
    ]
    return dict(
        vectors=vectors,
        lists=lists,
        queries=queries,
        entries=entries,
        ef=draw(st.integers(1, n + 2)),
        metric=draw(st.sampled_from(list(DistanceMetric))),
        max_iterations=draw(st.one_of(st.none(), st.integers(0, 6))),
    )
