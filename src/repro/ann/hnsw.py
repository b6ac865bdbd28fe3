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

from repro.ann.distance import (
    DistanceMetric,
    distances_to_query,
    pairwise_distances,
    squared_euclidean,
)
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
        # Build-time adjacency, one padded table per layer: row v of
        # _tables[l] lists v's neighbors in order, its first
        # _degrees[l][v] cells, and is padded with the sentinel n (the
        # rows of vertices below level l stay empty).  _freeze() turns
        # the finished tables into the search's FrozenAdjacency.
        self._tables: list[np.ndarray] = []
        self._degrees: list[np.ndarray] = []
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
        self._add_layers(int(self.levels[0]))
        for v in range(1, n):
            self._insert(v)
        self._ensure_nearest_inlink()
        self._pivots = self._select_pivots()
        self._ensure_reachable()
        self._freeze()

    def _add_layers(self, level: int) -> None:
        """Give the build a table for every layer up to ``level``, each
        one cell wider than its degree cap (an insertion appends before
        it shrinks)."""
        n = self.vectors.shape[0]
        while len(self._tables) <= level:
            cap = self.params.max_degree if self._tables else self.params.max_degree0
            self._tables.append(np.full((n, cap + 1), n, dtype=np.int64))
            self._degrees.append(np.zeros(n, dtype=np.int64))

    def _row(self, layer: int, v: int) -> np.ndarray:
        """The neighbors of ``v`` on ``layer``, without the padding."""
        return self._tables[layer][v, : self._degrees[layer][v]]

    def _set_row(self, layer: int, v: int, neighbors: list[int]) -> None:
        """Make ``neighbors`` the row of ``v``, widening the table when
        it is too narrow."""
        table = self._tables[layer]
        n, width = table.shape
        if len(neighbors) > width:
            wider = np.full((n, len(neighbors)), n, dtype=np.int64)
            wider[:, :width] = table
            self._tables[layer] = table = wider
        table[v, : len(neighbors)] = neighbors
        table[v, len(neighbors) :] = n
        self._degrees[layer][v] = len(neighbors)

    def _freeze(self) -> None:
        """Wrap the build tables as :class:`FrozenAdjacency`, cut to
        their widest row: layer 0 with a row per vertex, the upper
        layers compact (only their own vertices, then one empty row)."""
        n = self.vectors.shape[0]
        self._frozen = []
        for layer, (table, degrees) in enumerate(zip(self._tables, self._degrees)):
            width = max(int(degrees.max()), 1)
            if layer == 0:
                frozen = FrozenAdjacency(np.ascontiguousarray(table[:, :width]), n)
            else:
                ids = np.flatnonzero(self.levels >= layer)
                rows = np.full((ids.size + 1, width), n, dtype=np.int64)
                rows[:-1] = table[ids, :width]
                ids.flags.writeable = False
                frozen = FrozenAdjacency(rows, n, ids)
            frozen.table.flags.writeable = False
            self._frozen.append(frozen)
        del self._tables, self._degrees

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
        cap = self.params.max_degree0
        for w, targets in required.items():
            neigh = self._row(0, w).tolist()
            self._set_row(0, w, neigh + [v for v in targets if v not in neigh])
            if self._degrees[0][w] > cap:
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
        table = self._tables[0]
        n = self.vectors.shape[0]
        seen = np.zeros(n + 1, dtype=bool)
        seen[n] = True  # the padding sentinel
        frontier = np.array(sorted({int(self.entry_point), *self._pivots}))
        seen[frontier] = True
        while True:
            # Breadth-first, one gather of the frontier's rows per hop.
            while frontier.size:
                reached = table[frontier].ravel()
                frontier = reached[~seen[reached]]
                seen[frontier] = True
            if seen.all():
                return
            rep = int(np.flatnonzero(~seen)[0])
            self._pivots.append(rep)
            seen[rep] = True
            frontier = np.array([rep])

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
        # The kernel reads the padded rows as they are.
        return greedy_beam_search(
            self.vectors,
            self._tables[layer].__getitem__,
            query,
            entries,
            ef,
            self.metric,
        )

    def _insert(self, v: int) -> None:
        level = self._sample_level()
        self.levels[v] = level
        self._add_layers(level)
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
            self._set_row(layer, v, [u for _, u in selected])
            table, degrees = self._tables[layer], self._degrees[layer]
            for _, u in selected:
                # Append v; the table is one cell wider than the cap.
                table[u, degrees[u]] = v
                degrees[u] += 1
                if degrees[u] > m_cap:
                    self._shrink(u, layer, m_cap)
            entries = [u for _, u in found]
        if level > top:
            self.entry_point = v

    def _select_neighbors(
        self, query: np.ndarray, candidates: list[tuple[float, int]], m: int
    ) -> list[tuple[float, int]]:
        """Algorithm 4 heuristic (or plain closest-m when disabled).

        Scanning the candidates nearest first, a candidate is skipped
        when some already-selected vertex is closer to it than the
        query is.  For EUCLIDEAN each selected vertex's distances to
        all later candidates come as one :func:`squared_euclidean`
        column, folded into a ``dominated`` mask: at most ``m`` calls
        per selection, with the same bits as one call per candidate.
        ANGULAR and INNER_PRODUCT make one call per candidate, because
        a matrix-vector product over another row set may round
        differently.
        """
        ordered = sorted(candidates)
        if not self.params.use_heuristic or len(ordered) <= m:
            return ordered[:m]
        vectors = self.vectors
        selected: list[tuple[float, int]] = []
        if self.metric is DistanceMetric.EUCLIDEAN:
            ids = np.array([u for _, u in ordered], dtype=np.int64)
            bound = np.array([d for d, _ in ordered])
            dominated = np.zeros(len(ordered), dtype=bool)
            for j, pair in enumerate(ordered):
                if len(selected) >= m:
                    break
                if dominated[j]:
                    continue
                selected.append(pair)
                if len(selected) < m:
                    later = slice(j + 1, None)
                    column = squared_euclidean(vectors[ids[later]], vectors[pair[1]])
                    dominated[later] |= column < bound[later]
        else:
            selected_ids: list[int] = []
            for dist_q, u in ordered:
                if len(selected) >= m:
                    break
                if selected_ids:
                    d_us = distances_to_query(
                        vectors[np.asarray(selected_ids, dtype=np.int64)],
                        vectors[u],
                        self.metric,
                    )
                    if float(d_us.min()) < dist_q:
                        continue
                selected.append((dist_q, u))
                selected_ids.append(u)
        # Fill up with skipped candidates if the heuristic was too strict.
        if len(selected) < m:
            chosen = {u for _, u in selected}
            for dist_q, u in ordered:
                if len(selected) >= m:
                    break
                if u not in chosen:
                    selected.append((dist_q, u))
        return selected

    def _shrink(
        self, u: int, layer: int, m_cap: int, protect: set[int] | frozenset = frozenset()
    ) -> None:
        neigh = self._row(layer, u)
        dists = distances_to_query(self.vectors[neigh], self.vectors[u], self.metric)
        candidates = list(zip(dists.tolist(), neigh.tolist()))
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
        self._set_row(layer, u, [x for _, x in kept])

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
