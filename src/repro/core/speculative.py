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
from repro.core.rounds import distinct, run_heads


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

    Every vertex is tagged with its iteration (``r * V + v``).  A sort
    plus run heads yields all first-order sets, and one CSR gather all
    their adjacency lists.  Then one sort of a single marked column does
    the membership test and the counting that ``np.unique`` and a
    ``searchsorted`` probe would each need a sort for: candidates go in
    as ``tag << 1``, first-order members as ``(tag << 1) | 1``.  In a run
    of equal tags the member sorts last, so a run ending in an odd
    element is a first-order vertex and is dropped, and any other run's
    length is that candidate's count.  One more sort ranks every
    iteration at once.  Raises ``ValueError`` when the tags would
    overflow int64 (``2 * n_rounds * V >= 2**63``).
    """
    bounds = np.zeros(n_rounds + 1, dtype=np.int64)
    n = int(graph.num_vertices)
    if 2 * int(n_rounds) * n >= 2**63:
        raise ValueError(
            f"{n_rounds} rounds overflow the int64 marked tags of a "
            f"{n}-vertex graph; rank fewer rounds at once"
        )
    if width <= 0 or vertices.size == 0:
        return np.empty(0, dtype=np.int64), bounds
    first = distinct(rounds * n + vertices)
    first_base = first // n * n
    first_v = first - first_base
    starts = graph.indptr[first_v]
    lengths = graph.indptr[first_v + 1] - starts
    total = int(lengths.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64), bounds
    # Gather all adjacency lists in one shot: row j's neighbours sit at
    # starts[j] .. starts[j] + lengths[j] - 1 of the CSR ``indices``,
    # and land at row_base[j] .. of the gathered column.
    row_base = np.cumsum(lengths) - lengths
    gather = np.repeat(starts - row_base, lengths)
    gather += np.arange(total, dtype=np.int64)
    marked = np.empty(total + first.size, dtype=np.int64)
    np.add(np.repeat(first_base, lengths), graph.indices[gather],
           out=marked[:total])
    marked[total:] = first
    marked <<= 1
    marked[total:] |= 1
    marked.sort()
    heads = np.flatnonzero(run_heads(marked >> 1))
    ends = np.append(heads[1:], marked.size)
    candidate = (marked[ends - 1] & 1) == 0
    if not candidate.any():
        return np.empty(0, dtype=np.int64), bounds
    tags = marked[heads[candidate]] >> 1
    counts = (ends - heads)[candidate]
    cand_round = tags // n
    # Rank by (round, -count, id), packed into one int64 key per
    # candidate: one integer sort costs about half a three-key lexsort.
    # Round is the primary key, so each round keeps its block of
    # ``tags`` and a position's rank within its round is its offset
    # from the block start.
    k = int(counts.max()) + 1
    if int(n_rounds) * k * n >= 2**63:
        raise ValueError(
            f"{n_rounds} rounds with counts up to {k - 1} overflow the "
            f"int64 ranking key of a {n}-vertex graph; rank fewer rounds "
            "at once"
        )
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
