"""TOGG: two-stage routing with optimized guided search (Xu et al., 2021).

TOGG routes a query over a proximity graph in two stages: a *guided*
stage that only explores neighbors lying in the query's direction
(pruning neighbors whose direction from the current vertex points away
from the query), switching to an exhaustive *greedy* stage once the
guided stage stops improving.  TOGG is a routing optimisation layered
on a navigable proximity graph (the TOGG paper evaluates on
NSG/HNSW-class graphs); we build the substrate as a flat
navigable-small-world layer (an HNSW base layer) seeded from a
symmetrised k-NN neighborhood, then repair any residual disconnection.

The direction test is the dot-product sign between (neighbor - current)
and (query - current): neighbors in the query's half-space are kept.
This reproduces TOGG's quadrant-based pruning at the granularity our
simulator needs — fewer, more directional vertex accesses in stage one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.ann.distance import DistanceMetric, distances_to_query
from repro.ann.graph import ProximityGraph
from repro.ann.search import greedy_beam_search, search_each, top_k_from_results
from repro.ann.trace import SearchTrace, TraceRecorder


@dataclass(frozen=True)
class TOGGParams:
    """Construction and routing parameters."""

    knn: int = 10
    """Neighbors per vertex in the underlying k-NN graph."""

    guided_ef: int = 16
    """Beam width of the guided (stage-1) search."""

    seed: int = 77

    def __post_init__(self) -> None:
        if self.knn < 2:
            raise ValueError("knn must be >= 2")
        if self.guided_ef < 2:
            raise ValueError("guided_ef must be >= 2")


class TOGGIndex:
    """A symmetrised k-NN graph searched with two-stage routing."""

    def __init__(
        self,
        vectors: np.ndarray,
        params: TOGGParams | None = None,
        metric: DistanceMetric = DistanceMetric.EUCLIDEAN,
    ) -> None:
        self.params = params or TOGGParams()
        self.metric = metric
        self.vectors = np.ascontiguousarray(vectors, dtype=np.float32)
        n = self.vectors.shape[0]
        if n == 0:
            raise ValueError("cannot build an index over an empty dataset")
        self._rng = np.random.default_rng(self.params.seed)
        self.adjacency = self._build_navigable_graph()
        centroid = self.vectors.mean(axis=0)
        dists = distances_to_query(self.vectors, centroid, self.metric)
        self.entry_point = int(np.argmin(dists))
        self._ensure_connected()

    def _build_navigable_graph(self) -> list[list[int]]:
        """A flat navigable-small-world base layer for the router.

        Built by incremental insertion with diversified neighbor
        selection (an HNSW layer-0 construction with M = knn/2), which
        yields the long-range navigability TOGG's routing assumes;
        edges are then symmetrised.
        """
        from repro.ann.hnsw import HNSWIndex, HNSWParams

        n = self.vectors.shape[0]
        m = max(4, min(self.params.knn // 2, n - 1))
        base = HNSWIndex(
            self.vectors,
            HNSWParams(
                M=m,
                ef_construction=max(32, 3 * m),
                seed=self.params.seed,
            ),
            self.metric,
        ).base_graph()
        adjacency: list[set[int]] = [set() for _ in range(n)]
        for v in range(n):
            for u in base.neighbors(v):
                u = int(u)
                if u != v:
                    adjacency[v].add(u)
                    adjacency[u].add(v)
        return [sorted(s) for s in adjacency]

    def _ensure_connected(self) -> None:
        """Link disconnected components into the entry component.

        Exact k-NN graphs on clustered corpora fall apart into one
        component per cluster; navigable-graph constructions (NSG,
        which TOGG builds on) repair this with spanning edges.  We add,
        for every stray component, a bidirectional edge between its
        medoid-nearest vertex and that vertex's nearest neighbor in the
        already-connected region.
        """
        n = self.vectors.shape[0]
        component = np.full(n, -1, dtype=np.int64)
        comp_id = 0
        for root in range(n):
            if component[root] >= 0:
                continue
            stack = [root]
            component[root] = comp_id
            while stack:
                v = stack.pop()
                for u in self.adjacency[v]:
                    if component[u] < 0:
                        component[u] = comp_id
                        stack.append(u)
            comp_id += 1
        main = int(component[self.entry_point])
        if comp_id == 1:
            return
        connected_mask = component == main
        for cid in range(comp_id):
            if cid == main:
                continue
            members = np.flatnonzero(component == cid)
            # Representative: the component vertex closest to the
            # connected region's centroid.
            connected_ids = np.flatnonzero(connected_mask)
            centroid = self.vectors[connected_ids].mean(axis=0)
            rep = int(members[np.argmin(
                distances_to_query(self.vectors[members], centroid, self.metric)
            )])
            bridge_d = distances_to_query(
                self.vectors[connected_ids], self.vectors[rep], self.metric
            )
            bridge = int(connected_ids[int(np.argmin(bridge_d))])
            self.adjacency[rep].append(bridge)
            self.adjacency[bridge].append(rep)
            connected_mask |= component == cid

    # ---- two-stage routing ---------------------------------------------------
    def _guided_filter(self, query: np.ndarray):
        """Stage-1 neighbor filter: keep the query's half-space."""

        def neighbor_filter(current: int, neighbor_ids: np.ndarray) -> np.ndarray:
            direction = query - self.vectors[current]
            offsets = self.vectors[neighbor_ids] - self.vectors[current]
            keep = offsets @ direction > 0.0
            if not keep.any():
                return neighbor_ids  # never dead-end the walk
            return neighbor_ids[keep]

        return neighbor_filter

    def search(
        self,
        query: np.ndarray,
        k: int,
        ef: int | None = None,
        recorder: TraceRecorder | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Stage-1 guided routing, then stage-2 full greedy search."""
        if ef is None:
            ef = max(32, 2 * k)
        if ef < k:
            raise ValueError("ef must be >= k")
        neighbors_of = lambda v: np.asarray(self.adjacency[v], dtype=np.int64)
        stage1 = greedy_beam_search(
            self.vectors,
            neighbors_of,
            query,
            [self.entry_point],
            self.params.guided_ef,
            self.metric,
            recorder=recorder,
            neighbor_filter=self._guided_filter(query),
        )
        stage2_entries = [v for _, v in stage1[: max(1, self.params.guided_ef // 4)]]
        results = greedy_beam_search(
            self.vectors,
            neighbors_of,
            query,
            stage2_entries,
            ef,
            self.metric,
            recorder=recorder,
        )
        ids, dists = top_k_from_results(results, k)
        if recorder is not None:
            recorder.record_result(ids, dists)
        return ids, dists

    def search_batch(
        self, queries: np.ndarray, k: int, ef: int | None = None, record: bool = True
    ) -> tuple[np.ndarray, np.ndarray, list[SearchTrace]]:
        return search_each(
            lambda query, recorder: self.search(query, k, ef=ef, recorder=recorder),
            queries, k, record,
        )

    def base_graph(self) -> ProximityGraph:
        return ProximityGraph.from_adjacency(
            self.vectors,
            self.adjacency,
            metric=self.metric,
            entry_point=self.entry_point,
        )
