"""DiskANN / Vamana graph (Subramanya et al., NeurIPS'19).

From-scratch implementation of the Vamana construction: start from a
random R-regular graph, then make two passes (alpha = 1, then the
user's alpha > 1) where each vertex is re-linked via a greedy search
from the medoid followed by *robust pruning*, with pruned back-edges.
Search is a beam search of list size L from the medoid.

DiskANN's deployment detail that matters to the paper's Fig. 17 — the
SSD's internal DRAM caches hot feature vectors, trading SSD reads for
DRAM accesses — is modelled by :meth:`DiskANNIndex.hot_vertices`, which
exposes the most frequently visited vertices for the platform models to
treat as cached.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from repro.ann.distance import DistanceMetric, distances_to_query
from repro.ann.graph import ProximityGraph
from repro.ann.search import (
    FrozenAdjacency,
    LockstepIndex,
    beam_search_batch,
    greedy_beam_search,
)


@dataclass(frozen=True)
class DiskANNParams:
    """Vamana construction parameters."""

    R: int = 16
    """Maximum out-degree."""

    L: int = 48
    """Construction beam width."""

    alpha: float = 1.2
    """Robust-prune distance slack (second pass)."""

    seed: int = 4321

    def __post_init__(self) -> None:
        if self.R < 2:
            raise ValueError("R must be >= 2")
        if self.L < self.R:
            raise ValueError("L must be >= R")
        if self.alpha < 1.0:
            raise ValueError("alpha must be >= 1.0")


class DiskANNIndex(LockstepIndex):
    """A built Vamana graph with DiskANN-style beam search."""

    def __init__(
        self,
        vectors: np.ndarray,
        params: DiskANNParams | None = None,
        metric: DistanceMetric = DistanceMetric.EUCLIDEAN,
    ) -> None:
        self.params = params or DiskANNParams()
        self.metric = metric
        self.vectors = np.ascontiguousarray(vectors, dtype=np.float32)
        n = self.vectors.shape[0]
        if n == 0:
            raise ValueError("cannot build an index over an empty dataset")
        self._rng = np.random.default_rng(self.params.seed)
        self.medoid = self._find_medoid()
        self.adjacency: list[list[int]] = self._random_regular_init()
        self._visit_counts: Counter = Counter()
        self._build()
        self._frozen = FrozenAdjacency.from_lists(n, self.adjacency)

    # ---- construction ------------------------------------------------------
    def _find_medoid(self) -> int:
        """Vertex minimising distance to the dataset centroid."""
        centroid = self.vectors.mean(axis=0)
        dists = distances_to_query(self.vectors, centroid, self.metric)
        return int(np.argmin(dists))

    def _random_regular_init(self) -> list[list[int]]:
        n = self.vectors.shape[0]
        r = min(self.params.R, n - 1)
        adjacency: list[list[int]] = []
        for v in range(n):
            choices = self._rng.choice(n - 1, size=r, replace=False)
            choices = np.where(choices >= v, choices + 1, choices)
            adjacency.append([int(c) for c in choices])
        return adjacency

    def _robust_prune(
        self, v: int, candidates: dict[int, float], alpha: float
    ) -> list[int]:
        """RobustPrune(v, V, alpha, R) from the Vamana paper.

        Distances here are the kernel's native comparables (squared
        Euclidean); applying alpha in that space gives an effective
        true-distance slack of sqrt(alpha), which we compensate for by
        the default alpha choice rather than squaring — empirically the
        squared slack keeps too many covered candidates in the pool and
        degrades the pruning-driven edge diversity the graph's
        navigability depends on.
        """
        pool = dict(candidates)
        pool.pop(v, None)
        missing = [u for u in self.adjacency[v] if u not in pool and u != v]
        if missing:
            missing_arr = np.asarray(missing, dtype=np.int64)
            dists = distances_to_query(
                self.vectors[missing_arr], self.vectors[v], self.metric
            )
            for u, d in zip(missing, dists):
                pool[u] = float(d)
        selected: list[int] = []
        remaining = sorted(pool.items(), key=lambda kv: kv[1])
        while remaining and len(selected) < self.params.R:
            p_star, d_star = remaining.pop(0)
            selected.append(p_star)
            if not remaining:
                break
            rest_ids = np.asarray([u for u, _ in remaining], dtype=np.int64)
            d_to_pstar = distances_to_query(
                self.vectors[rest_ids], self.vectors[p_star], self.metric
            )
            kept = []
            for (u, d_uv), d_up in zip(remaining, d_to_pstar):
                if alpha * float(d_up) > d_uv:
                    kept.append((u, d_uv))
            remaining = kept
        return selected

    def _build(self) -> None:
        n = self.vectors.shape[0]
        for alpha in (1.0, self.params.alpha):
            order = self._rng.permutation(n)
            for v in order:
                v = int(v)
                visited: dict[int, float] = {}

                def neighbors_of(x: int) -> np.ndarray:
                    return np.asarray(self.adjacency[x], dtype=np.int64)

                results = greedy_beam_search(
                    self.vectors,
                    neighbors_of,
                    self.vectors[v],
                    [self.medoid],
                    self.params.L,
                    self.metric,
                )
                for dist, u in results:
                    visited[u] = dist
                self.adjacency[v] = self._robust_prune(v, visited, alpha)
                for u in self.adjacency[v]:
                    if v not in self.adjacency[u]:
                        self.adjacency[u].append(v)
                        if len(self.adjacency[u]) > self.params.R:
                            neigh = np.asarray(self.adjacency[u], dtype=np.int64)
                            dists = distances_to_query(
                                self.vectors[neigh], self.vectors[u], self.metric
                            )
                            cand = {
                                int(w): float(d) for w, d in zip(neigh, dists)
                            }
                            self.adjacency[u] = self._robust_prune(u, cand, alpha)

    # ---- search ----------------------------------------------------------------
    def _search_rows(
        self, queries: np.ndarray, k: int, ef: int | None, record: bool
    ):
        """Lockstep beam search of width ``ef`` (DiskANN's L) from the
        medoid for every row of ``queries``.

        Visits are counted query by query, the medoid then the results,
        the order :meth:`hot_vertices` breaks count ties by.
        """
        if ef is None:
            ef = self.params.L
        if ef < k:
            raise ValueError("ef must be >= k")
        results, columns = beam_search_batch(
            self.vectors,
            self._frozen,
            queries,
            [[self.medoid]] * queries.shape[0],
            ef,
            self.metric,
            record=record,
        )
        for res in results:
            self._visit_counts[self.medoid] += 1
            self._visit_counts.update(v for _, v in res)
        return results, columns

    # ---- export --------------------------------------------------------------------
    def base_graph(self) -> ProximityGraph:
        return ProximityGraph.from_adjacency(
            self.vectors, self.adjacency, metric=self.metric, entry_point=self.medoid
        )

    def hot_vertices(self, fraction: float = 0.05) -> np.ndarray:
        """Most-visited vertices (candidates for the internal DRAM cache).

        If no searches have run yet, falls back to the highest-degree
        vertices, which is the standard DiskANN static cache policy.
        """
        n = self.vectors.shape[0]
        count = max(1, int(n * fraction))
        if self._visit_counts:
            ranked = [v for v, _ in self._visit_counts.most_common(count)]
            return np.asarray(ranked, dtype=np.int64)
        degrees = np.asarray([len(a) for a in self.adjacency])
        return np.argsort(-degrees)[:count].astype(np.int64)
