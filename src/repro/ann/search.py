"""The shared greedy best-first (beam) search kernel.

All four graph-traversal ANNS algorithms in the paper run the same
inner loop (Section II-A): keep a candidate list, repeatedly pop the
candidate nearest to the query, terminate when it is farther than the
worst of the current top results, otherwise compute distances to its
unvisited neighbors and push them.  The kernel optionally records an
access trace for the simulator: one iteration per pop, holding the
popped vertex and the neighbors whose distances it computed.  The
:class:`TraceRecorder` stores them as the columns of a
:class:`~repro.ann.trace.SearchTrace`.
"""

from __future__ import annotations

import heapq

import numpy as np

from repro.ann.distance import DistanceMetric, distances_to_query
from repro.ann.trace import TraceRecorder


def greedy_beam_search(
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
    """Beam search over an arbitrary adjacency function.

    Parameters
    ----------
    vectors:
        (n, d) dataset.
    neighbors_of:
        Callable ``vertex -> ndarray of neighbor IDs`` (lets HNSW pass a
        per-layer adjacency and TOGG pass a filtered one).
    entry_points:
        Initial candidate vertices.
    ef:
        Beam width — size of the dynamic result list.
    recorder:
        Optional :class:`TraceRecorder`; one iteration is recorded per
        expanded vertex, carrying the newly computed neighbor IDs.
    neighbor_filter:
        Optional callable ``(current_vertex, neighbor_ids) -> neighbor_ids``
        applied before distance computation (TOGG's guided stage).
    max_iterations:
        Optional safety cap on expansions.

    Returns
    -------
    list of (distance, vertex) pairs, ascending by distance, length <= ef.
    """
    if ef < 1:
        raise ValueError("ef must be >= 1")
    if not entry_points:
        raise ValueError("need at least one entry point")

    entry_set = set(int(e) for e in entry_points)
    entry_array = np.fromiter(entry_set, dtype=np.int64, count=len(entry_set))
    entry_dists = distances_to_query(vectors[entry_array], query, metric)
    # Visited bookkeeping as a dense bool mask: the per-expansion
    # "which neighbors are new" filter becomes one vectorized gather
    # instead of a per-edge Python set probe.
    visited = np.zeros(vectors.shape[0], dtype=bool)
    visited[entry_array] = True

    # candidates: min-heap by distance; results: max-heap (negated).
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


def top_k_from_results(
    results: list[tuple[float, int]], k: int
) -> tuple[np.ndarray, np.ndarray]:
    """Split the (distance, id) beam output into top-k arrays."""
    top = results[: max(k, 0)]
    ids = np.asarray([v for _, v in top], dtype=np.int64)
    dists = np.asarray([d for d, _ in top], dtype=np.float64)
    return ids, dists


def merge_topk(
    ids_per_shard: list[np.ndarray],
    dists_per_shard: list[np.ndarray],
    k: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Merge per-shard top-k candidate lists into a global top-k.

    Each shard contributes ``(batch, k_s)`` ID and distance arrays in a
    shared (global) ID space; rows may be padded with ``-1`` IDs /
    ``inf`` distances when a shard holds fewer than ``k_s`` vectors.
    The merge keeps, per query, the ``k`` nearest valid candidates by
    distance (stable: ties broken by shard order then rank), dropping
    duplicate IDs — so replicated shards merge as safely as disjoint
    partitions.  Output rows are padded with ``-1`` / ``inf`` when
    fewer than ``k`` distinct candidates exist.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if not ids_per_shard or len(ids_per_shard) != len(dists_per_shard):
        raise ValueError("need matching, non-empty per-shard id/dist lists")
    ids = np.concatenate(
        [np.atleast_2d(np.asarray(a, dtype=np.int64)) for a in ids_per_shard], axis=1
    )
    dists = np.concatenate(
        [np.atleast_2d(np.asarray(d, dtype=np.float64)) for d in dists_per_shard],
        axis=1,
    )
    if ids.shape != dists.shape:
        raise ValueError("id and distance shapes differ")
    batch, m = ids.shape
    out_ids = np.full((batch, k), -1, dtype=np.int64)
    out_dists = np.full((batch, k), np.inf, dtype=np.float64)
    # Rank candidates per row by distance (stable: ties keep shard
    # order then rank, matching the concatenation order).
    order = np.argsort(dists, axis=1, kind="stable")
    sid = np.take_along_axis(ids, order, axis=1)
    sdist = np.take_along_axis(dists, order, axis=1)
    valid = (sid >= 0) & np.isfinite(sdist)
    # First-occurrence dedup across the whole batch at once: group the
    # flattened candidates by (row, id) with rank as the tie-break;
    # the group head is the nearest valid occurrence of that id.
    # Invalid entries are collapsed onto id -1 so they never shadow a
    # valid duplicate, and are dropped by the validity mask below.
    flat_id = np.where(valid, sid, -1).ravel()
    flat_row = np.repeat(np.arange(batch), m)
    flat_rank = np.tile(np.arange(m), batch)
    perm = np.lexsort((flat_rank, flat_id, flat_row))
    head = np.ones(perm.size, dtype=bool)
    head[1:] = (flat_row[perm][1:] != flat_row[perm][:-1]) | (
        flat_id[perm][1:] != flat_id[perm][:-1]
    )
    keep = np.zeros(batch * m, dtype=bool)
    keep[perm] = head
    keep &= valid.ravel()
    keep = keep.reshape(batch, m)
    # Scatter the first k kept candidates of each row into the output.
    dest = np.cumsum(keep, axis=1) - 1
    take = keep & (dest < k)
    rows = np.nonzero(take)[0]
    out_ids[rows, dest[take]] = sid[take]
    out_dists[rows, dest[take]] = sdist[take]
    return out_ids, out_dists
