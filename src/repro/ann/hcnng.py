"""HCNNG: hierarchical-clustering-based graphs (Munoz et al., 2019).

HCNNG builds a proximity graph by repeating (``num_clusterings`` times)
a random hierarchical bisection of the dataset down to small leaves and
connecting each leaf with a degree-capped minimum spanning tree; the
union of all MST edges forms the search graph.  Search is the common
greedy traversal (the paper's Section VIII runs it on NDSearch with
only a control-logic change), entered from the vertex nearest the query
among a random routing sample — a lightweight stand-in for HCNNG's
KD-tree entry selection that preserves its behaviour: start close, then
traverse.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.ann.distance import DistanceMetric, distances_to_query, pairwise_distances
from repro.ann.graph import ProximityGraph
from repro.ann.search import FrozenAdjacency, LockstepIndex, beam_search_batch


@dataclass(frozen=True)
class HCNNGParams:
    """Construction parameters."""

    num_clusterings: int = 8
    """Independent random hierarchical clusterings to union."""

    leaf_size: int = 32
    """Stop splitting when a cluster is at most this large."""

    mst_max_degree: int = 3
    """Per-MST degree cap (the HCNNG paper uses 3)."""

    routing_sample: int = 64
    """Vertices sampled as candidate entry points at search time."""

    seed: int = 99

    def __post_init__(self) -> None:
        if self.num_clusterings < 1:
            raise ValueError("num_clusterings must be >= 1")
        if self.leaf_size < 3:
            raise ValueError("leaf_size must be >= 3")
        if self.mst_max_degree < 2:
            raise ValueError("mst_max_degree must be >= 2")


class HCNNGIndex(LockstepIndex):
    """A built HCNNG graph with greedy-traversal search."""

    def __init__(
        self,
        vectors: np.ndarray,
        params: HCNNGParams | None = None,
        metric: DistanceMetric = DistanceMetric.EUCLIDEAN,
    ) -> None:
        self.params = params or HCNNGParams()
        self.metric = metric
        self.vectors = np.ascontiguousarray(vectors, dtype=np.float32)
        n = self.vectors.shape[0]
        if n == 0:
            raise ValueError("cannot build an index over an empty dataset")
        self._rng = np.random.default_rng(self.params.seed)
        self._edges: set[tuple[int, int]] = set()
        self._build()
        self.adjacency: list[list[int]] = [[] for _ in range(n)]
        for a, b in sorted(self._edges):
            self.adjacency[a].append(b)
            self.adjacency[b].append(a)
        self._frozen = FrozenAdjacency.from_lists(n, self.adjacency)
        self.routing_ids = self._rng.choice(
            n, size=min(self.params.routing_sample, n), replace=False
        ).astype(np.int64)

    # ---- construction ------------------------------------------------------
    def _build(self) -> None:
        n = self.vectors.shape[0]
        all_ids = np.arange(n, dtype=np.int64)
        for _ in range(self.params.num_clusterings):
            self._split(all_ids)

    def _split(self, ids: np.ndarray) -> None:
        """Random bisection until leaves, then MST each leaf."""
        if ids.size <= self.params.leaf_size:
            self._add_mst_edges(ids)
            return
        pivots = self._rng.choice(ids, size=2, replace=False)
        a_vec, b_vec = self.vectors[pivots[0]], self.vectors[pivots[1]]
        d_a = distances_to_query(self.vectors[ids], a_vec, self.metric)
        d_b = distances_to_query(self.vectors[ids], b_vec, self.metric)
        mask = d_a <= d_b
        left, right = ids[mask], ids[~mask]
        # Guard against degenerate splits (duplicated points).
        if left.size == 0 or right.size == 0:
            half = ids.size // 2
            shuffled = self._rng.permutation(ids)
            left, right = shuffled[:half], shuffled[half:]
        self._split(left)
        self._split(right)

    def _add_mst_edges(self, ids: np.ndarray) -> None:
        """Degree-capped Kruskal MST over one leaf cluster."""
        m = ids.size
        if m < 2:
            return
        dmat = pairwise_distances(self.vectors[ids], self.vectors[ids], self.metric)
        iu, ju = np.triu_indices(m, k=1)
        order = np.argsort(dmat[iu, ju], kind="stable")
        parent = list(range(m))

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        degree = np.zeros(m, dtype=np.int32)
        added = 0
        for e in order:
            if added == m - 1:
                break
            i, j = int(iu[e]), int(ju[e])
            if degree[i] >= self.params.mst_max_degree:
                continue
            if degree[j] >= self.params.mst_max_degree:
                continue
            ri, rj = find(i), find(j)
            if ri == rj:
                continue
            parent[ri] = rj
            degree[i] += 1
            degree[j] += 1
            added += 1
            a, b = int(ids[i]), int(ids[j])
            self._edges.add((min(a, b), max(a, b)))

    # ---- search ----------------------------------------------------------------
    def _entry_point(self, query: np.ndarray) -> int:
        dists = distances_to_query(self.vectors[self.routing_ids], query, self.metric)
        return int(self.routing_ids[int(np.argmin(dists))])

    def _search_rows(
        self, queries: np.ndarray, k: int, ef: int | None, record: bool
    ):
        """Lockstep greedy traversal of every row of ``queries``, each
        entered from its nearest routing vertex."""
        if ef is None:
            ef = max(32, 2 * k)
        if ef < k:
            raise ValueError("ef must be >= k")
        return beam_search_batch(
            self.vectors,
            self._frozen,
            queries,
            [[self._entry_point(query)] for query in queries],
            ef,
            self.metric,
            record=record,
        )

    def base_graph(self) -> ProximityGraph:
        entry = int(self.routing_ids[0])
        return ProximityGraph.from_adjacency(
            self.vectors, self.adjacency, metric=self.metric, entry_point=entry
        )
