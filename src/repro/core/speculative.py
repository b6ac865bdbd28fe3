"""Speculative searching (Section VI-B2, Fig. 12).

While iteration *i*'s Searching stage runs, the Pref Unit launches a
speculative Allocating stage for iteration *i+1*: it fetches the
first-order neighbors' neighbor lists and selects a few second-order
neighbors — preferring those with the most connections back into the
first-order set, since the next entry vertex will be one of the
first-order neighbors and its neighbor list is what iteration *i+1*
will compute.  The speculative Searching stage (computing distances to
the prefetched vertices) overlaps iteration *i*'s Gathering stage, so
its latency hides entirely; if a query's next iteration indeed targets
prefetched vertices (``N_pref  intersect  N_id != empty``), those
distances are already available and iteration *i+1* shrinks.

The cost is extra page reads — the paper reports over half of the
speculated results go unused (Fig. 15 shows page accesses *rising*
under ``da+sp``) yet the overlap still nets up to 1.27x speedup.
"""

from __future__ import annotations

import numpy as np

from repro.ann.graph import ProximityGraph


def select_speculative_candidates(
    graph: ProximityGraph,
    first_order: np.ndarray,
    width: int,
) -> np.ndarray:
    """Choose up to ``width`` second-order neighbors to prefetch.

    Candidates are neighbors-of-neighbors not already in the
    first-order set, ranked by how many first-order vertices link to
    them (the Pref Unit's "more connections with the first-order
    neighbors" heuristic), ties broken by vertex ID for determinism.
    This is the one-round case of :func:`rank_by_round`.
    """
    vertices = np.asarray(first_order, dtype=np.int64)
    ids, _ = rank_by_round(
        graph, vertices, np.zeros(vertices.size, dtype=np.int64), 1, width
    )
    return ids


def rank_by_round(
    graph: ProximityGraph,
    vertices: np.ndarray,
    rounds: np.ndarray,
    n_rounds: int,
    width: int,
) -> tuple[np.ndarray, np.ndarray]:
    """The Pref Unit's choice for many iterations in one vectorized pass.

    ``vertices[j]`` was computed in iteration ``rounds[j]`` (both int64;
    duplicates allowed, ``0 <= rounds[j] < n_rounds``).  Returns
    ``(ids, bounds)``: iteration ``r``'s speculative set is
    ``ids[bounds[r]:bounds[r + 1]]``, ranked as
    :func:`select_speculative_candidates` describes.  ``ids``
    holds only the kept vertices, so slices of it pin nothing else.

    Every vertex is tagged with its iteration (``r * V + v``), so one
    ``np.unique`` yields all first-order sets, one CSR gather all their
    adjacency lists, one ``searchsorted`` drops candidates inside their
    own iteration's first-order set, and one sort ranks every iteration
    at once.
    """
    bounds = np.zeros(n_rounds + 1, dtype=np.int64)
    if width <= 0 or vertices.size == 0:
        return np.empty(0, dtype=np.int64), bounds
    n = np.int64(graph.num_vertices)
    first = np.unique(rounds * n + vertices)
    first_round = first // n
    first_v = first - first_round * n
    starts = graph.indptr[first_v]
    lengths = graph.indptr[first_v + 1] - starts
    total = int(lengths.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64), bounds
    # Gather all adjacency lists in one shot: row j's neighbours sit at
    # starts[j] .. starts[j] + lengths[j] - 1 of the CSR ``indices``.
    rows = np.repeat(np.arange(first.size), lengths)
    row_base = np.cumsum(lengths) - lengths
    gathered = graph.indices[
        starts[rows] + np.arange(total, dtype=np.int64) - row_base[rows]
    ]
    tagged = np.sort(first_round[rows] * n + gathered)
    # Drop candidates already in their own round's first-order set
    # (``first`` is sorted, so membership is a searchsorted probe).
    pos = np.searchsorted(first, tagged)
    pos[pos == first.size] = first.size - 1
    candidates = tagged[first[pos] != tagged]
    if candidates.size == 0:
        return np.empty(0, dtype=np.int64), bounds
    tags, counts = np.unique(candidates, return_counts=True)
    cand_round = tags // n
    # Rank by (round, -count, id), packed into one int64 key per
    # candidate (rounds x (max count + 1) x V stays far below 2**63):
    # one integer sort costs about half a three-key lexsort.  Round is
    # the primary key, so each round keeps its block of ``tags`` and a
    # position's rank within its round is its offset from the block
    # start.
    k = counts.max() + 1
    ranked = np.sort(
        (cand_round * k + (k - 1 - counts)) * n + (tags - cand_round * n)
    )
    block = np.searchsorted(cand_round, np.arange(n_rounds + 1))
    keep = np.arange(ranked.size) - block[ranked // (k * n)] < width
    np.cumsum(np.minimum(np.diff(block), width), out=bounds[1:])
    return ranked[keep] % n, bounds


def speculative_hits(
    prefetched: np.ndarray, next_computed: np.ndarray
) -> np.ndarray:
    """Vertices of the next iteration already covered by the prefetch."""
    if prefetched.size == 0 or next_computed.size == 0:
        return np.empty(0, dtype=np.int64)
    return np.intersect1d(prefetched, next_computed)
