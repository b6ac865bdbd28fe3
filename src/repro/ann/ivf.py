"""IVF-Flat: quantization-based ANNS (the Section VIII-B extension).

The paper limits NDSearch's evaluation to graph-traversal ANNS but
argues (Section VIII-B) that the design generalises: quantization-based
methods like Faiss's IVF are equally memory-bound, so computing their
distance scans inside the LUNs removes the same PCIe bottleneck.  This
module provides that workload: a from-scratch IVF-Flat index — a
k-means coarse quantizer over the corpus plus per-centroid posting
lists — whose searches emit the same :class:`SearchTrace` records as
the graph algorithms (one "iteration" per probed list), so the existing
trace-driven platform models run it unchanged.

Unlike graph traversal, IVF's access pattern is *sequential* within a
posting list; laying lists out contiguously gives near-perfect
page-buffer locality, which is why the NDP advantage persists even
without the paper's reordering machinery.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.ann.distance import DistanceMetric, distances_to_query, pairwise_distances
from repro.ann.graph import ProximityGraph
from repro.ann.search import search_each
from repro.ann.trace import SearchTrace, TraceRecorder


def kmeans(
    vectors: np.ndarray,
    n_clusters: int,
    iterations: int = 15,
    seed: int = 0,
) -> tuple[np.ndarray, np.ndarray]:
    """Plain Lloyd's k-means: returns (centroids, assignment).

    Deterministic given the seed; empty clusters are re-seeded from the
    points currently farthest from their centroids — each empty cluster
    takes a *distinct* farthest point, so simultaneously-empty clusters
    never collapse onto identical centroids.
    """
    if n_clusters < 1:
        raise ValueError("n_clusters must be >= 1")
    n = vectors.shape[0]
    if n_clusters > n:
        raise ValueError("more clusters than points")
    rng = np.random.default_rng(seed)
    centroids = vectors[rng.choice(n, size=n_clusters, replace=False)].copy()
    assignment = np.zeros(n, dtype=np.int64)
    for _ in range(iterations):
        dmat = pairwise_distances(vectors, centroids, DistanceMetric.EUCLIDEAN)
        assignment = np.argmin(dmat, axis=1)
        nearest = dmat[np.arange(n), assignment]
        farthest = iter(np.argsort(-nearest, kind="stable"))
        for c in range(n_clusters):
            members = vectors[assignment == c]
            if members.shape[0]:
                centroids[c] = members.mean(axis=0)
            else:
                centroids[c] = vectors[int(next(farthest))]
    return centroids.astype(np.float32), assignment


@dataclass(frozen=True)
class IVFParams:
    """IVF-Flat construction/search parameters."""

    n_lists: int = 64
    nprobe: int = 8
    kmeans_iterations: int = 15
    seed: int = 5

    def __post_init__(self) -> None:
        if self.n_lists < 1:
            raise ValueError("n_lists must be >= 1")
        if not 1 <= self.nprobe <= self.n_lists:
            raise ValueError("nprobe must be in [1, n_lists]")


class IVFFlatIndex:
    """Inverted-file index with exact (flat) residual scans."""

    def __init__(
        self,
        vectors: np.ndarray,
        params: IVFParams | None = None,
        metric: DistanceMetric = DistanceMetric.EUCLIDEAN,
    ) -> None:
        self.params = params or IVFParams()
        self.metric = metric
        self.vectors = np.ascontiguousarray(vectors, dtype=np.float32)
        if self.vectors.shape[0] == 0:
            raise ValueError("cannot build an index over an empty dataset")
        n_lists = min(self.params.n_lists, self.vectors.shape[0])
        self.centroids, assignment = kmeans(
            self.vectors,
            n_lists,
            iterations=self.params.kmeans_iterations,
            seed=self.params.seed,
        )
        self.lists: list[np.ndarray] = [
            np.flatnonzero(assignment == c).astype(np.int64)
            for c in range(n_lists)
        ]

    # ---- search ----------------------------------------------------------
    def search(
        self,
        query: np.ndarray,
        k: int,
        nprobe: int | None = None,
        recorder: TraceRecorder | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Scan the ``nprobe`` nearest posting lists; exact within them."""
        if k < 1:
            raise ValueError("k must be >= 1")
        nprobe = nprobe or self.params.nprobe
        c_dists = distances_to_query(self.centroids, query, self.metric)
        probe_order = np.argsort(c_dists)[:nprobe]
        all_ids: list[np.ndarray] = []
        all_d: list[np.ndarray] = []
        for c in probe_order:
            members = self.lists[int(c)]
            if recorder is not None:
                recorder.record_iteration(int(c), members.tolist())
            if members.size == 0:
                continue
            d = distances_to_query(self.vectors[members], query, self.metric)
            all_ids.append(members)
            all_d.append(d)
        if not all_ids:
            return np.empty(0, dtype=np.int64), np.empty(0)
        ids = np.concatenate(all_ids)
        dists = np.concatenate(all_d)
        order = np.argsort(dists, kind="stable")[:k]
        top_ids = ids[order].astype(np.int64)
        top_d = dists[order].astype(np.float64)
        if recorder is not None:
            recorder.record_result(top_ids, top_d)
        return top_ids, top_d

    def search_batch(
        self,
        queries: np.ndarray,
        k: int,
        ef: int | None = None,
        record: bool = True,
    ) -> tuple[np.ndarray, np.ndarray, list[SearchTrace]]:
        """Batch search; ``ef`` is accepted (and ignored) so IVF plugs
        into the same harness slots as the graph indexes."""
        return search_each(
            lambda query, recorder: self.search(query, k, recorder=recorder),
            queries, k, record,
        )

    # ---- export ----------------------------------------------------------------
    def base_graph(self) -> ProximityGraph:
        """A list-membership 'graph' for the placement machinery.

        Vertices in one posting list are chained consecutively, so the
        static mapping lays each list out contiguously — exactly how a
        deployment would store IVF lists on flash.
        """
        n = self.vectors.shape[0]
        adjacency: list[list[int]] = [[] for _ in range(n)]
        for members in self.lists:
            for a, b in zip(members[:-1], members[1:]):
                adjacency[int(a)].append(int(b))
                adjacency[int(b)].append(int(a))
        entry = int(self.lists[0][0]) if self.lists[0].size else 0
        return ProximityGraph.from_adjacency(
            self.vectors, adjacency, metric=self.metric, entry_point=entry
        )

    @property
    def list_sizes(self) -> np.ndarray:
        return np.asarray([m.size for m in self.lists])
