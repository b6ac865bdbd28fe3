"""Proximity graph container with CSR storage.

Every construction algorithm (HNSW base layer, Vamana, HCNNG, TOGG)
produces a :class:`ProximityGraph`: the dataset's vectors plus a CSR
adjacency (offset + neighbor arrays, exactly the first two LUNCSR
arrays of the paper's Fig. 5(b)).  The NDSearch placement/scheduling
machinery consumes this object.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.ann.distance import DistanceMetric


@dataclass
class ProximityGraph:
    """An immutable CSR proximity graph over a vector dataset.

    Attributes
    ----------
    vectors:
        (n, d) float32 feature vectors.
    indptr / indices:
        CSR offset and neighbor arrays.  ``indices[indptr[v]:indptr[v+1]]``
        are the neighbor IDs of vertex ``v``.
    metric:
        Distance metric the graph was built under.
    entry_point:
        Default entry vertex for searches (medoid or HNSW top entry).
    """

    vectors: np.ndarray
    indptr: np.ndarray
    indices: np.ndarray
    metric: DistanceMetric = DistanceMetric.EUCLIDEAN
    entry_point: int = 0
    _degree_cache: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        self.vectors = np.ascontiguousarray(self.vectors, dtype=np.float32)
        self.indptr = np.ascontiguousarray(self.indptr, dtype=np.int64)
        self.indices = np.ascontiguousarray(self.indices, dtype=np.int32)
        n = self.vectors.shape[0]
        if self.indptr.shape != (n + 1,):
            raise ValueError(f"indptr must have length n+1={n + 1}")
        if self.indptr[0] != 0 or self.indptr[-1] != self.indices.size:
            raise ValueError("indptr endpoints inconsistent with indices")
        if np.any(np.diff(self.indptr) < 0):
            raise ValueError("indptr must be non-decreasing")
        if self.indices.size and (
            self.indices.min() < 0 or self.indices.max() >= n
        ):
            raise ValueError("neighbor IDs out of range")
        if not 0 <= self.entry_point < max(n, 1):
            raise ValueError(f"entry point {self.entry_point} out of range")

    @classmethod
    def from_adjacency(
        cls,
        vectors: np.ndarray,
        adjacency: list[list[int]] | list[np.ndarray],
        metric: DistanceMetric = DistanceMetric.EUCLIDEAN,
        entry_point: int = 0,
    ) -> "ProximityGraph":
        """Freeze per-vertex neighbor lists into CSR form."""
        n = len(adjacency)
        if vectors.shape[0] != n:
            raise ValueError("adjacency length must match vector count")
        degrees = np.fromiter((len(a) for a in adjacency), dtype=np.int64, count=n)
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(degrees, out=indptr[1:])
        indices = np.empty(int(indptr[-1]), dtype=np.int32)
        for v, neigh in enumerate(adjacency):
            indices[indptr[v] : indptr[v + 1]] = neigh
        return cls(vectors, indptr, indices, metric=metric, entry_point=entry_point)

    # ---- basic accessors --------------------------------------------------
    @property
    def num_vertices(self) -> int:
        return self.vectors.shape[0]

    @property
    def num_edges(self) -> int:
        return int(self.indices.size)

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]

    def neighbors(self, v: int) -> np.ndarray:
        return self.indices[self.indptr[v] : self.indptr[v + 1]]

    def degree(self, v: int) -> int:
        return int(self.indptr[v + 1] - self.indptr[v])

    @property
    def degrees(self) -> np.ndarray:
        if self._degree_cache is None:
            self._degree_cache = np.diff(self.indptr)
        return self._degree_cache

    @property
    def max_degree(self) -> int:
        return int(self.degrees.max()) if self.num_vertices else 0

    @property
    def mean_degree(self) -> float:
        return float(self.degrees.mean()) if self.num_vertices else 0.0

    # ---- transformations ------------------------------------------------------
    def relabeled(self, order: np.ndarray) -> "ProximityGraph":
        """Return the graph with vertices renumbered by ``order``.

        ``order[i]`` is the *old* ID of the vertex that becomes new ID
        ``i`` (i.e. ``order`` is a permutation in visit order, the
        output of the reordering algorithms).  Vectors, adjacency and
        the entry point are all remapped consistently.
        """
        n = self.num_vertices
        order = np.asarray(order, dtype=np.int64)
        if (
            order.shape != (n,)
            or (n and (order.min() < 0 or order.max() >= n))
            or (np.bincount(order, minlength=n) != 1).any()
        ):
            raise ValueError("order must be a permutation of all vertex IDs")
        new_id = np.empty(n, dtype=np.int64)
        new_id[order] = np.arange(n)
        # One CSR gather: new row i is old row order[i], renumbered.
        degrees = self.degrees[order]
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(degrees, out=indptr[1:])
        gather = np.repeat(self.indptr[order] - indptr[:-1], degrees)
        gather += np.arange(indptr[-1], dtype=np.int64)
        return ProximityGraph(
            self.vectors[order],
            indptr,
            new_id[self.indices[gather]].astype(np.int32),
            metric=self.metric,
            entry_point=int(new_id[self.entry_point]),
        )

    def undirected(self) -> "ProximityGraph":
        """Return the graph with every edge made bidirectional."""
        pairs = set()
        for v in range(self.num_vertices):
            for u in self.neighbors(v):
                pairs.add((v, int(u)))
                pairs.add((int(u), v))
        adjacency: list[list[int]] = [[] for _ in range(self.num_vertices)]
        for v, u in sorted(pairs):
            if v != u:
                adjacency[v].append(u)
        return ProximityGraph.from_adjacency(
            self.vectors, adjacency, metric=self.metric, entry_point=self.entry_point
        )

    def is_connected(self) -> bool:
        """BFS reachability from the entry point (treating edges as undirected)."""
        if self.num_vertices == 0:
            return True
        # Build reverse adjacency on the fly via a single undirected pass.
        seen = np.zeros(self.num_vertices, dtype=bool)
        undirected: list[set[int]] = [set() for _ in range(self.num_vertices)]
        for v in range(self.num_vertices):
            for u in self.neighbors(v):
                undirected[v].add(int(u))
                undirected[int(u)].add(v)
        stack = [self.entry_point]
        seen[self.entry_point] = True
        while stack:
            v = stack.pop()
            for u in undirected[v]:
                if not seen[u]:
                    seen[u] = True
                    stack.append(u)
        return bool(seen.all())

    # ---- storage accounting (paper Fig. 6) -----------------------------------------
    def padded_layout_bytes(self, max_neighbors: int, id_bytes: int = 4) -> int:
        """Footprint of the HNSW/DiskANN slice layout (vector + padded IDs)."""
        per_vertex = self.dim * self.vectors.itemsize + max_neighbors * id_bytes
        return per_vertex * self.num_vertices

    def csr_layout_bytes(self, id_bytes: int = 4, offset_bytes: int = 8) -> int:
        """Footprint of the CSR layout (no padding)."""
        return (
            self.num_vertices * self.dim * self.vectors.itemsize
            + self.num_edges * id_bytes
            + (self.num_vertices + 1) * offset_bytes
        )
