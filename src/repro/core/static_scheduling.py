"""Static scheduling: vertex reordering for spatial locality (Sec. VI-A).

Implements:

* :func:`bandwidth_beta` — the average vertex bandwidth metric of
  Eq. (1): ``beta(G, f) = (1/n) * sum_v max_{j in N(v)} |f(v) - f(j)|``.
  Smaller beta means each vertex's neighbors get labels (and hence
  physical locations) close to its own.
* :func:`degree_ascending_bfs` — the paper's deterministic reordering:
  a BFS rooted at a minimum-degree vertex that enqueues each vertex's
  unvisited neighbors in ascending-degree order.  Runs once, no
  randomness (ties broken by vertex ID), near-optimal beta.
* :func:`random_bfs` — the prior-work baseline [23]: BFS with a random
  root and randomly shuffled neighbor order (the "ran bfs" bars of
  Fig. 14).

Reordering operates on graph topology only, so it is independent of
the SSD's organisation (the paper notes it need not be re-run when
changing devices); the *mapping* step lives in
:mod:`repro.core.placement` and does depend on the geometry.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from repro.ann.graph import ProximityGraph
from repro.core.rounds import distinct


def _undirected_adjacency(graph: ProximityGraph) -> tuple[np.ndarray, np.ndarray]:
    """Symmetrised neighbor lists (reordering treats edges both ways).

    Returns CSR ``(indptr, indices)``: vertex ``v``'s list is its own
    neighbors as stored, then every vertex that links to ``v`` but is
    not among them, once each and in ascending order.
    """
    n = graph.num_vertices
    degrees = graph.degrees
    src = np.repeat(np.arange(n, dtype=np.int64), degrees)
    dst = graph.indices.astype(np.int64)
    # Reverse edges v -> u as (u, v) tags, sorted and distinct, minus
    # the ones u already stores.
    stored = np.sort(src * n + dst)
    reverse = distinct(dst * n + src)
    if stored.size:
        pos = np.minimum(np.searchsorted(stored, reverse), stored.size - 1)
        reverse = reverse[stored[pos] != reverse]
    row, extra = np.divmod(reverse, n)
    n_extra = np.bincount(row, minlength=n)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(degrees + n_extra, out=indptr[1:])
    indices = np.empty(indptr[-1], dtype=graph.indices.dtype)
    # Stored neighbors keep their place at the head of each list; the
    # reverse edges fill the tail in ascending order.
    shift = indptr[:-1] - graph.indptr[:-1]
    indices[np.arange(src.size) + shift[src]] = graph.indices
    tail = indptr[:-1] + degrees - (np.cumsum(n_extra) - n_extra)
    indices[np.arange(row.size) + tail[row]] = extra
    return indptr, indices


def bandwidth_beta(graph: ProximityGraph, order: np.ndarray | None = None) -> float:
    """Average vertex bandwidth beta(G, f) of Eq. (1).

    ``order`` lists old vertex IDs in new-label order (``order[i]`` is
    the old ID relabeled to ``i``); ``None`` evaluates the identity
    labeling.  Isolated vertices contribute zero.
    """
    n = graph.num_vertices
    if n == 0:
        return 0.0
    label = np.arange(n, dtype=np.int64)
    if order is not None:
        order = np.asarray(order, dtype=np.int64)
        if sorted(order.tolist()) != list(range(n)):
            raise ValueError("order must be a permutation of all vertex IDs")
        label = np.empty(n, dtype=np.int64)
        label[order] = np.arange(n)
    indptr, indices = _undirected_adjacency(graph)
    sizes = np.diff(indptr)
    gaps = np.abs(label[indices] - np.repeat(label, sizes))
    if gaps.size == 0:
        return 0.0
    # Each non-empty list's widest gap; integer gaps add exactly in
    # any order.
    widest = np.maximum.reduceat(gaps, indptr[:-1][sizes > 0])
    return float(widest.sum()) / n


def degree_ascending_bfs(graph: ProximityGraph) -> np.ndarray:
    """The paper's degree-ascending breadth-first reordering.

    Deterministic: the root is the minimum-degree vertex (lowest ID on
    ties); each dequeued vertex enqueues its unvisited neighbors sorted
    by ascending degree (then ID).  Disconnected components restart
    from the next unvisited minimum-degree vertex.

    Returns ``order``: old vertex IDs in new-label order.
    """
    n = graph.num_vertices
    indptr, indices = _undirected_adjacency(graph)
    degrees = np.diff(indptr)
    bounds = indptr.tolist()
    visited = np.zeros(n, dtype=bool)
    order: list[int] = []
    # Stable min-degree scan order for roots.
    roots_by_degree = np.lexsort((np.arange(n), degrees))
    root_cursor = 0
    while len(order) < n:
        while root_cursor < n and visited[roots_by_degree[root_cursor]]:
            root_cursor += 1
        root = int(roots_by_degree[root_cursor])
        visited[root] = True
        queue: deque[int] = deque([root])
        order.append(root)
        while queue:
            v = queue.popleft()
            neigh = indices[bounds[v]:bounds[v + 1]]
            fresh = neigh[~visited[neigh]]
            if fresh.size == 0:
                continue
            # Ascending degree, ties by vertex ID (deterministic).
            fresh_sorted = fresh[np.lexsort((fresh, degrees[fresh]))]
            for u in fresh_sorted:
                u = int(u)
                if not visited[u]:
                    visited[u] = True
                    order.append(u)
                    queue.append(u)
    return np.asarray(order, dtype=np.int64)


def random_bfs(graph: ProximityGraph, seed: int = 0) -> np.ndarray:
    """Random-BFS reordering baseline (random root, shuffled neighbors)."""
    n = graph.num_vertices
    rng = np.random.default_rng(seed)
    indptr, indices = _undirected_adjacency(graph)
    bounds = indptr.tolist()
    visited = np.zeros(n, dtype=bool)
    order: list[int] = []
    candidates = rng.permutation(n)
    cursor = 0
    while len(order) < n:
        while cursor < n and visited[candidates[cursor]]:
            cursor += 1
        root = int(candidates[cursor])
        visited[root] = True
        order.append(root)
        queue: deque[int] = deque([root])
        while queue:
            v = queue.popleft()
            fresh = [int(u) for u in indices[bounds[v]:bounds[v + 1]]
                     if not visited[u]]
            rng.shuffle(fresh)
            for u in fresh:
                if not visited[u]:
                    visited[u] = True
                    order.append(u)
                    queue.append(u)
    return np.asarray(order, dtype=np.int64)


def figure10_example_graph() -> ProximityGraph:
    """An 8-vertex example in the spirit of Fig. 10 (a..h -> 0..7).

    The figure's exact edge set is not fully recoverable from the
    paper, so we use a structurally similar graph — one pendant
    minimum-degree vertex (h), a hub (d), and a clustered middle —
    that reproduces the figure's qualitative result: the
    degree-ascending BFS achieves lower beta than the original
    labeling and than random BFS, in a single deterministic run.
    """
    # Structural roles: a=0 b=1 c=2 d=3 e=4 f=5 g=6 h=7.
    edges = [
        (0, 1), (0, 2), (0, 3),
        (1, 2), (1, 4),
        (2, 3), (2, 5),
        (3, 4), (3, 5), (3, 6),
        (4, 5),
        (6, 7),
    ]
    n = 8
    # The "original" IDs model the random construction order of the
    # paper's example: structurally adjacent vertices get scattered IDs.
    original_id = [3, 6, 0, 5, 2, 7, 1, 4]
    adjacency: list[list[int]] = [[] for _ in range(n)]
    for a, b in edges:
        adjacency[original_id[a]].append(original_id[b])
        adjacency[original_id[b]].append(original_id[a])
    vectors = np.eye(n, dtype=np.float32)
    return ProximityGraph.from_adjacency(vectors, adjacency)
