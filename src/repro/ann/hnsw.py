"""HNSW: Hierarchical Navigable Small World graphs (Malkov & Yashunin).

From-scratch implementation of construction and search, following the
original paper's Algorithms 1-5: exponential level sampling, per-layer
greedy insertion with ``ef_construction`` beams, the neighbor-selection
heuristic (Algorithm 4) and Mmax/Mmax0 degree capping.  The search path
descends the hierarchy greedily then runs an ``ef``-wide beam on layer
0; trace recording covers the layer-0 beam, which is where the flash
traffic happens (upper layers are tiny and cached in the paper's
setting).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.ann.distance import DistanceMetric, distances_to_query, pairwise_distances
from repro.ann.graph import ProximityGraph
from repro.ann.search import (
    FrozenAdjacency,
    LockstepIndex,
    beam_search_batch,
    greedy_beam_search,
)

#: Cap on the number of extra layer-0 entry points seeded per search.
#: Greedy beam search from a single entry can park in a local minimum on
#: adversarial clouds (a stored vector is then not its own nearest
#: neighbor at small ``ef``); seeding the beam with a few well-spread
#: pivots restarts it from other basins.  Distant pivots never expand
#: (the beam pops candidates in distance order and terminates on the
#: ef-th result), so the cost is one batch of extra distance
#: computations, not extra traversal.
MAX_SEARCH_PIVOTS = 32

#: Corpora up to this size get the exact nearest-neighbor in-link pass
#: at build time (chunked O(n^2) distances).  Larger corpora skip it:
#: they are built with production-grade M / ef_construction, where the
#: single-entry miss is already vanishingly rare.
NEAREST_INLINK_MAX_N = 4096


@dataclass(frozen=True)
class HNSWParams:
    """Construction parameters (hnswlib naming)."""

    M: int = 12
    ef_construction: int = 64
    seed: int = 1234
    use_heuristic: bool = True

    def __post_init__(self) -> None:
        if self.M < 2:
            raise ValueError("M must be >= 2")
        if self.ef_construction < self.M:
            raise ValueError("ef_construction must be >= M")

    @property
    def max_degree(self) -> int:
        """Mmax for upper layers."""
        return self.M

    @property
    def max_degree0(self) -> int:
        """Mmax0 for the base layer (2M as in hnswlib)."""
        return 2 * self.M

    @property
    def level_multiplier(self) -> float:
        return 1.0 / np.log(self.M)


class HNSWIndex(LockstepIndex):
    """A fully built HNSW index over a dataset."""

    def __init__(self, vectors: np.ndarray, params: HNSWParams | None = None,
                 metric: DistanceMetric = DistanceMetric.EUCLIDEAN) -> None:
        self.params = params or HNSWParams()
        self.metric = metric
        self.vectors = np.ascontiguousarray(vectors, dtype=np.float32)
        n = self.vectors.shape[0]
        if n == 0:
            raise ValueError("cannot build an index over an empty dataset")
        self._rng = np.random.default_rng(self.params.seed)
        # Build-time adjacency, _layers[l][v] -> list[int]; vertex
        # present iff level(v) >= l.  _freeze() replaces it.
        self._layers: list[dict[int, list[int]]] = [dict()]
        self.levels = np.zeros(n, dtype=np.int32)
        self.entry_point = 0
        self._build()

    # ---- construction ------------------------------------------------------
    def _sample_level(self) -> int:
        u = self._rng.random()
        return int(-np.log(max(u, 1e-12)) * self.params.level_multiplier)

    def _build(self) -> None:
        n = self.vectors.shape[0]
        self.levels[0] = self._sample_level()
        for _ in range(self.levels[0] + 1 - len(self._layers)):
            self._layers.append(dict())
        for layer in range(self.levels[0] + 1):
            self._layers[layer][0] = []
        for v in range(1, n):
            self._insert(v)
        self._ensure_nearest_inlink()
        self._pivots = self._select_pivots()
        self._ensure_reachable()
        self._freeze()

    def _freeze(self) -> None:
        """Replace the build-time dict-of-list layers with
        :class:`FrozenAdjacency` tables: layer 0 with a row per vertex,
        the upper layers compact (only their own vertices)."""
        n = self.vectors.shape[0]
        base = self._layers[0]
        self._frozen = [
            FrozenAdjacency.from_lists(n, [base.get(v, ()) for v in range(n)])
        ] + [FrozenAdjacency.from_mapping(n, layer) for layer in self._layers[1:]]
        del self._layers

    def _ensure_nearest_inlink(self) -> None:
        """Guarantee each vector an in-edge from its true nearest neighbor.

        Greedy beam search always expands the best result it returns,
        so if the nearest other vertex ``w*`` of a stored vector ``v``
        links to ``v``, any search for ``v`` that reaches ``w*`` also
        reaches ``v``.  Degree capping (:meth:`_shrink`) can silently
        drop exactly these edges; this pass restores the missing ones
        and re-shrinks over-cap lists with the nearest-in-links
        protected.  Skipped above :data:`NEAREST_INLINK_MAX_N` (the
        exact pass is chunked O(n^2)).
        """
        n = self.vectors.shape[0]
        if n < 2 or n > NEAREST_INLINK_MAX_N:
            return
        nearest = np.empty(n, dtype=np.int64)
        chunk = 512
        for lo in range(0, n, chunk):
            hi = min(lo + chunk, n)
            d = pairwise_distances(self.vectors[lo:hi], self.vectors, self.metric)
            d[np.arange(hi - lo), np.arange(lo, hi)] = np.inf
            nearest[lo:hi] = np.argmin(d, axis=1)
        required: dict[int, set[int]] = {}
        for v in range(n):
            required.setdefault(int(nearest[v]), set()).add(v)
        adj = self._layers[0]
        cap = self.params.max_degree0
        for w, targets in required.items():
            neigh = adj.setdefault(w, [])
            neigh.extend(v for v in targets if v not in neigh)
            if len(neigh) > cap:
                self._shrink(w, 0, cap, protect=targets)

    def _ensure_reachable(self) -> None:
        """Guarantee every vertex is reachable from the search seeds.

        Degree capping makes layer 0 a *directed* graph, so a small
        vertex group can end up with no in-edges from the rest — a
        single-entry search can then never return it.  Any vertex a
        BFS from entry point + pivots cannot reach promotes a
        representative of its component to the pivot list (cheapest
        repair: no graph surgery, no degree-cap interactions).
        """
        adj = self._layers[0]
        n = self.vectors.shape[0]
        seen = np.zeros(n, dtype=bool)
        stack = sorted({int(self.entry_point), *self._pivots})
        for s in stack:
            seen[s] = True
        while True:
            while stack:
                u = stack.pop()
                for w in adj.get(u, ()):
                    if not seen[w]:
                        seen[w] = True
                        stack.append(w)
            if seen.all():
                return
            rep = int(np.flatnonzero(~seen)[0])
            self._pivots.append(rep)
            seen[rep] = True
            stack = [rep]

    def _select_pivots(self) -> list[int]:
        """Well-spread restart entries for layer-0 searches.

        Greedy maximin (k-center) selection: start from the entry point
        and repeatedly add the vertex farthest from the current pivot
        set.  This deliberately picks the most isolated points — the
        outliers and stray components that a single-entry beam misses —
        so a search seeded with the pivots always starts within reach
        of every region of the corpus.  Deterministic, O(n · pivots)
        distance computations at build time.
        """
        n = self.vectors.shape[0]
        pivots = [int(self.entry_point)]
        d = distances_to_query(self.vectors, self.vectors[pivots[0]], self.metric)
        for _ in range(min(n, MAX_SEARCH_PIVOTS) - 1):
            far = int(np.argmax(d))
            if d[far] <= 0.0:
                break  # remaining points duplicate a pivot
            pivots.append(far)
            d = np.minimum(
                d, distances_to_query(self.vectors, self.vectors[far], self.metric)
            )
        return pivots

    def _search_layer(
        self, query: np.ndarray, entries: list[int], ef: int, layer: int
    ) -> list[tuple[float, int]]:
        adj = self._layers[layer]
        return greedy_beam_search(
            self.vectors,
            lambda v: np.asarray(adj.get(v, ()), dtype=np.int64),
            query,
            entries,
            ef,
            self.metric,
        )

    def _insert(self, v: int) -> None:
        level = self._sample_level()
        self.levels[v] = level
        while len(self._layers) <= level:
            self._layers.append(dict())
        query = self.vectors[v]
        top = self.levels[self.entry_point]
        entry = self.entry_point
        # Greedy descent through layers above the insertion level.
        for layer in range(int(top), level, -1):
            nearest = self._search_layer(query, [entry], 1, layer)
            entry = nearest[0][1]
        # Insert with ef_construction beams from min(level, top) down to 0.
        entries = [entry]
        for layer in range(min(level, int(top)), -1, -1):
            found = self._search_layer(query, entries, self.params.ef_construction, layer)
            m_cap = self.params.max_degree0 if layer == 0 else self.params.max_degree
            selected = self._select_neighbors(query, found, self.params.M)
            adj = self._layers[layer]
            adj[v] = [u for _, u in selected]
            for dist_vu, u in selected:
                adj.setdefault(u, []).append(v)
                if len(adj[u]) > m_cap:
                    self._shrink(u, layer, m_cap)
            entries = [u for _, u in found]
        for layer in range(int(top) + 1, level + 1):
            self._layers[layer][v] = []
        if level > top:
            self.entry_point = v

    def _select_neighbors(
        self, query: np.ndarray, candidates: list[tuple[float, int]], m: int
    ) -> list[tuple[float, int]]:
        """Algorithm 4 heuristic (or plain closest-m when disabled)."""
        if not self.params.use_heuristic or len(candidates) <= m:
            return sorted(candidates)[:m]
        selected: list[tuple[float, int]] = []
        selected_ids: list[int] = []
        for dist_q, u in sorted(candidates):
            if len(selected) >= m:
                break
            if selected_ids:
                d_us = distances_to_query(
                    self.vectors[np.asarray(selected_ids, dtype=np.int64)],
                    self.vectors[u],
                    self.metric,
                )
                if float(d_us.min()) < dist_q:
                    continue
            selected.append((dist_q, u))
            selected_ids.append(u)
        # Fill up with skipped candidates if the heuristic was too strict.
        if len(selected) < m:
            chosen = {u for _, u in selected}
            for dist_q, u in sorted(candidates):
                if len(selected) >= m:
                    break
                if u not in chosen:
                    selected.append((dist_q, u))
        return selected

    def _shrink(
        self, u: int, layer: int, m_cap: int, protect: set[int] | frozenset = frozenset()
    ) -> None:
        adj = self._layers[layer]
        neigh = np.asarray(adj[u], dtype=np.int64)
        dists = distances_to_query(self.vectors[neigh], self.vectors[u], self.metric)
        candidates = [(float(d), int(x)) for d, x in zip(dists, neigh)]
        if protect:
            # Nearest-in-link edges survive the heuristic unconditionally
            # (the cap may be exceeded on pathological duplicate-heavy
            # data, where one vertex is the nearest neighbor of many).
            kept_protected = [(d, x) for d, x in candidates if x in protect]
            free = [(d, x) for d, x in candidates if x not in protect]
            m_free = max(m_cap - len(kept_protected), 0)
            kept = kept_protected + (
                self._select_neighbors(self.vectors[u], free, m_free)
                if m_free
                else []
            )
        else:
            kept = self._select_neighbors(self.vectors[u], candidates, m_cap)
        adj[u] = [x for _, x in kept]

    # ---- search ----------------------------------------------------------------
    def _search_rows(
        self, queries: np.ndarray, k: int, ef: int | None, record: bool
    ):
        """Lockstep search of every row of ``queries``: the greedy
        descent through the upper layers, then the layer-0 beam, whose
        trace is the one recorded (the flash traffic).

        The layer-0 beam is seeded with the greedy-descent entry *plus*
        the index's restart pivots, and ``ef`` is floored at ``Mmax0``
        (= 2M): both guard against the single-entry beam parking in a
        local minimum, which on adversarial clouds could miss even a
        stored vector queried at ``k=1``.
        """
        if ef is None:
            ef = max(k, self.params.ef_construction // 2)
        if ef < k:
            raise ValueError("ef must be >= k")
        ef = max(ef, self.params.max_degree0)
        entries = [self.entry_point] * queries.shape[0]
        for layer in range(int(self.levels[self.entry_point]), 0, -1):
            nearest, _ = beam_search_batch(
                self.vectors, self._frozen[layer], queries,
                [[e] for e in entries], 1, self.metric,
            )
            entries = [res[0][1] for res in nearest]
        return beam_search_batch(
            self.vectors,
            self._frozen[0],
            queries,
            [[e] + [p for p in self._pivots if p != e] for e in entries],
            ef,
            self.metric,
            record=record,
        )

    # ---- export --------------------------------------------------------------------
    @property
    def layers(self) -> list[dict[int, list[int]]]:
        """Per layer, ``{vertex: neighbor list}`` (rebuilt on each read)."""
        return [adjacency.lists() for adjacency in self._frozen]

    def base_graph(self) -> ProximityGraph:
        """The layer-0 graph: what NDSearch stores in the flash array."""
        adjacency = list(self._frozen[0].lists().values())
        return ProximityGraph.from_adjacency(
            self.vectors, adjacency, metric=self.metric, entry_point=self.entry_point
        )

    @property
    def num_layers(self) -> int:
        return len(self._frozen)

    def memory_per_vertex_bytes(self) -> float:
        """Average per-vertex footprint (paper: 60-450 B/vertex)."""
        n = self.vectors.shape[0]
        edge_bytes = 4 * sum(
            int(np.count_nonzero(adjacency.table < n)) for adjacency in self._frozen
        )
        vec_bytes = self.vectors.size * self.vectors.itemsize
        return (edge_bytes + vec_bytes) / n
