"""The shared greedy best-first (beam) search kernels.

All four graph-traversal ANNS algorithms in the paper run the same
inner loop (Section II-A): keep a candidate list, repeatedly pop the
candidate nearest to the query, terminate when it is farther than the
worst of the current top results, otherwise compute distances to its
unvisited neighbors and push them.  A search can record an access trace
for the simulator: one iteration per pop, holding the popped vertex and
the neighbors whose distances it computed, stored as the columns of a
:class:`~repro.ann.trace.SearchTrace`.

Two kernels run that loop:

* :func:`beam_search_batch` advances the queries of a batch in lockstep
  over a :class:`FrozenAdjacency`.  Each step pops one candidate per
  query, then gathers every popped vertex's neighbors, filters them
  against the queries' visited masks and computes their distances in
  one go.  HNSW, DiskANN and HCNNG search through it.
* :func:`greedy_beam_search` runs one query over an adjacency callable.
  Graph construction runs it between edits of the graph, one insertion
  at a time: HNSW hands it rows of its padded build tables, DiskANN's
  Vamana loop its neighbor lists.  TOGG uses its ``neighbor_filter``.

Both kernels give the same ``(distance, id)`` lists and traces for the
same query and graph.  The tests pin each of them, bit for bit, to a
copy of the original one-hop-at-a-time loop.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from repro.ann.distance import DistanceMetric, distances_to_query, squared_euclidean
from repro.ann.trace import SearchTrace, TraceRecorder

#: Queries :meth:`LockstepIndex.search_batch` advances together, as one
#: :func:`beam_search_batch` group.  Bounds the group's visited mask at
#: ``CHUNK_QUERIES * (n + 1)`` bytes, and its heaps and trace logs.
CHUNK_QUERIES = 16


def entry_order(entry_points) -> np.ndarray:
    """A search's entry vertices, deduplicated, as int64 in set order.

    The order is the iteration order of a Python ``set`` of ints: stable
    across runs (int hashes are not salted) but not sorted.  It is not
    sorted on purpose: the first entry is every trace's first recorded
    iteration and the entry order fixes the heaps' push order, so
    sorting would move every trace and every digest.  Both kernels take
    their entries from here.  (``repro.lint`` DET004 cannot see this
    set, because it reaches ``np.fromiter`` through a variable name.)
    """
    entry_set = set(int(e) for e in entry_points)
    return np.fromiter(entry_set, dtype=np.int64, count=len(entry_set))


def greedy_beam_search(
    vectors: np.ndarray,
    neighbors_of,
    query: np.ndarray,
    entry_points: list[int],
    ef: int,
    metric: DistanceMetric,
    recorder: TraceRecorder | None = None,
    neighbor_filter=None,
    max_iterations: int | None = None,
) -> list[tuple[float, int]]:
    """Beam search of one query over an adjacency function.

    Parameters
    ----------
    vectors:
        (n, d) dataset.
    neighbors_of:
        Callable ``vertex -> int array of neighbor IDs`` (lets HNSW pass
        a padded layer-table row and TOGG a neighbor list).  Rows may be
        padded with the sentinel ``n``, which the kernel skips.
    entry_points:
        Initial candidate vertices.
    ef:
        Beam width — size of the dynamic result list.
    recorder:
        Optional :class:`TraceRecorder`; one iteration is recorded per
        expanded vertex, carrying the newly computed neighbor IDs.
    neighbor_filter:
        Optional callable ``(current_vertex, neighbor_ids) -> neighbor_ids``
        applied, without the padding, before distance computation
        (TOGG's guided stage).
    max_iterations:
        Optional safety cap on expansions.

    Returns
    -------
    list of (distance, vertex) pairs, ascending by distance, length <= ef.
    """
    if ef < 1:
        raise ValueError("ef must be >= 1")
    if not entry_points:
        raise ValueError("need at least one entry point")
    heappush, heappop = heapq.heappush, heapq.heappop
    n = vectors.shape[0]
    entry_array = entry_order(entry_points)
    entry_ids = entry_array.tolist()
    entry_dists = _query_distances(vectors[entry_array], query, metric).tolist()
    # Visited bookkeeping as a dense bool mask, so the per-expansion
    # "which neighbors are new" filter is one vectorized gather.  Its
    # last slot, the padding sentinel, is always visited.
    visited = np.zeros(n + 1, dtype=bool)
    visited[n] = True
    visited[entry_array] = True

    # candidates: min-heap by distance; results: max-heap (negated).
    candidates: list[tuple[float, int]] = []
    results: list[tuple[float, int]] = []
    for dist, vid in zip(entry_dists, entry_ids):
        heappush(candidates, (dist, vid))
        heappush(results, (-dist, vid))
    while len(results) > ef:
        heappop(results)
    if recorder is not None:
        recorder.record_iteration(entry_ids[0], entry_ids)

    iterations = 0
    while candidates:
        dist, vertex = heappop(candidates)
        if dist > -results[0][0] and len(results) >= ef:
            break
        if max_iterations is not None and iterations >= max_iterations:
            break
        iterations += 1

        neigh = np.asarray(neighbors_of(vertex), dtype=np.int64)
        if neighbor_filter is not None:
            neigh = neigh[neigh != n]
            if neigh.size:
                neigh = np.asarray(neighbor_filter(vertex, neigh), dtype=np.int64)
        fresh = neigh[~visited[neigh]]
        if recorder is not None:
            recorder.record_iteration(vertex, fresh)
        if not fresh.size:
            continue
        visited[fresh] = True
        dists = _query_distances(vectors[fresh], query, metric)
        worst = -results[0][0]
        if len(results) >= ef:
            # A full beam's worst only falls, so a neighbor at least as
            # far as it is now would never be pushed: drop those at once.
            near = dists < worst
            fresh, dists = fresh[near], dists[near]
        for d, u in zip(dists.tolist(), fresh.tolist()):
            if len(results) < ef or d < worst:
                heappush(candidates, (d, u))
                heappush(results, (-d, u))
                if len(results) > ef:
                    heappop(results)
                worst = -results[0][0]

    return sorted((-d, v) for d, v in results)


@dataclass(frozen=True)
class FrozenAdjacency:
    """Neighbor lists frozen into one padded ``(rows, width)`` table.

    Row ``r`` lists the neighbors of vertex ``r`` in their original
    order, padded with the sentinel ``num_vertices``, which the batch
    kernel's visited masks always hold as visited.  A compact table
    (HNSW's upper layers) has rows only for the sorted ``vertex_ids``,
    plus one all-sentinel row at the end that vertices without a list
    read.
    """

    table: np.ndarray
    num_vertices: int
    vertex_ids: np.ndarray | None = None

    @classmethod
    def from_lists(cls, num_vertices: int, lists) -> "FrozenAdjacency":
        """Freeze ``lists[v]``, the neighbor list of vertex ``v``."""
        width = max((len(neigh) for neigh in lists), default=0)
        table = np.full((len(lists), max(width, 1)), num_vertices, dtype=np.int64)
        for r, neigh in enumerate(lists):
            table[r, : len(neigh)] = neigh
        table.flags.writeable = False
        return cls(table, num_vertices)

    def lists(self) -> dict[int, list[int]]:
        """``{vertex: neighbor list}``, without the padding."""
        n = self.num_vertices
        rows = self.table.tolist()
        ids = range(len(rows)) if self.vertex_ids is None else self.vertex_ids.tolist()
        return {v: [u for u in row if u != n] for v, row in zip(ids, rows)}

    def row(self, vertex: int) -> np.ndarray:
        """The padded neighbor row of one vertex (the kernel's one-row
        steps take this cheaper path, which keeps one-query batches as
        fast as the scalar kernel)."""
        ids = self.vertex_ids
        if ids is None:
            return self.table[vertex]
        at = int(np.searchsorted(ids, vertex))
        if at == ids.size or ids[at] != vertex:
            at = ids.size
        return self.table[at]

    def rows(self, vertices: np.ndarray) -> np.ndarray:
        """The padded neighbor rows of ``vertices``, ``(len, width)``."""
        ids = self.vertex_ids
        if ids is None:
            return self.table[vertices]
        at = np.searchsorted(ids, vertices)
        at[ids.take(at, mode="clip") != vertices] = ids.size
        return self.table[at]


def beam_search_batch(
    vectors: np.ndarray,
    adjacency: FrozenAdjacency,
    queries: np.ndarray,
    entries,
    ef: int,
    metric: DistanceMetric,
    record: bool = False,
    max_iterations: int | None = None,
) -> tuple[list[list[tuple[float, int]]], list[tuple] | None]:
    """Beam searches of a group of queries, advanced in lockstep.

    Row ``i`` searches ``queries[i]`` from the vertices ``entries[i]``
    and gets exactly what :func:`greedy_beam_search` returns for it over
    the same adjacency.  Each query keeps that kernel's own heaps, push
    order and tie-breaking; only the array work of a step is shared, so
    a row's output does not depend on the other rows of the group.

    Each step pops one candidate per running query, gathers all popped
    vertices' neighbor rows in one indexing operation, filters them
    against a flat ``rows x (n + 1)`` visited mask (the last column is
    the always-visited padding sentinel) and computes all fresh
    distances together.  EUCLIDEAN rows share one row-wise ``einsum``,
    whose per-row value does not depend on how many rows share the
    call.  ANGULAR and INNER_PRODUCT keep one :func:`distances_to_query`
    call per query and step, because a matrix-vector product over a
    different row set can round differently.

    Memory grows with the group (the visited mask, and the heaps of
    every query still running), so callers pass at most
    :data:`CHUNK_QUERIES` rows, as :meth:`LockstepIndex.search_batch`
    does.

    Returns the per-query ``(distance, vertex)`` lists, ascending, and
    with ``record`` the per-query trace columns ``(entries, offsets,
    computed)`` (see :class:`~repro.ann.trace.SearchTrace`), else None.
    """
    if ef < 1:
        raise ValueError("ef must be >= 1")
    queries = np.asarray(queries)
    if len(entries) != queries.shape[0]:
        raise ValueError("need one entry list per query")
    heappush, heappop = heapq.heappush, heapq.heappop
    m = queries.shape[0]
    n = vectors.shape[0]
    stride = n + 1
    starts = [entry_order(e) for e in entries]
    sizes = [a.size for a in starts]
    if 0 in sizes:
        raise ValueError("need at least one entry point")
    rows = list(range(m))
    visited = np.zeros(m * stride, dtype=bool)
    visited[n::stride] = True  # the padding sentinel
    if m == 1:
        fresh = starts[0]
        dists = _distances(vectors, queries, fresh, rows, sizes, metric)
        visited[fresh] = True
    else:
        fresh = np.concatenate(starts)
        row_arr, count_arr = np.arange(m), np.array(sizes)
        dists = _distances(vectors, queries, fresh, row_arr, count_arr, metric)
        visited[row_arr.repeat(count_arr) * stride + fresh] = True

    candidates: list[list[tuple[float, int]]] = []
    beams: list[list[tuple[float, int]]] = []
    ids = fresh.tolist()
    pos = 0
    for size in sizes:
        cand: list[tuple[float, int]] = []
        beam: list[tuple[float, int]] = []
        for j in range(pos, pos + size):
            heappush(cand, (dists[j], ids[j]))
            heappush(beam, (-dists[j], ids[j]))
        while len(beam) > ef:
            heappop(beam)
        candidates.append(cand)
        beams.append(beam)
        pos += size
    # The trace log: per iteration, in step order, the query row, the
    # popped vertex and the fresh count, plus each step's fresh
    # vertices.  The entry iteration (first entry, all entries) leads.
    if record:
        log_rows = list(rows)
        log_entries = [int(a[0]) for a in starts]
        log_sizes = list(sizes)
        log_fresh = [fresh]

    results: list = [None] * m
    iterations = [0] * m
    while True:
        popped_rows: list[int] = []
        popped: list[int] = []
        for q in rows:
            cand = candidates[q]
            if cand:
                dist, vertex = heappop(cand)
                beam = beams[q]
                expand = not (dist > -beam[0][0] and len(beam) >= ef)
                if expand and max_iterations is not None:
                    expand = iterations[q] < max_iterations
                    iterations[q] += 1
                if expand:
                    popped_rows.append(q)
                    popped.append(vertex)
                    continue
            # The query is done: keep its result and free its heaps at
            # once, so finished queries do not hold the group's memory.
            results[q] = sorted((-d, v) for d, v in beams[q])
            candidates[q] = beams[q] = None
        if not popped_rows:
            break
        rows = popped_rows
        # Marking every gathered neighbor visited equals marking the
        # fresh ones: the rest (and the sentinel) are visited already.
        if len(rows) == 1:
            neigh = adjacency.row(popped[0])
            seen = visited[rows[0] * stride : (rows[0] + 1) * stride]
            fresh = neigh[~seen[neigh]]
            seen[neigh] = True
            counts = [fresh.size]
            dists = _distances(vectors, queries, fresh, rows, counts, metric)
        else:
            neigh = adjacency.rows(np.array(popped, dtype=np.int64))
            row_arr = np.array(rows, dtype=np.int64)
            flat = neigh + (row_arr * stride)[:, None]
            new = ~visited[flat]
            visited[flat] = True
            fresh = neigh[new]
            count_arr = np.add.reduce(new, axis=1)
            counts = count_arr.tolist()
            dists = _distances(
                vectors, queries, fresh, row_arr, count_arr, metric
            )
        ids = fresh.tolist()
        pos = 0
        for q, count in zip(rows, counts):
            if not count:
                continue
            cand = candidates[q]
            beam = beams[q]
            worst = -beam[0][0]
            for j in range(pos, pos + count):
                d = dists[j]
                if len(beam) < ef or d < worst:
                    heappush(cand, (d, ids[j]))
                    heappush(beam, (-d, ids[j]))
                    if len(beam) > ef:
                        heappop(beam)
                    worst = -beam[0][0]
            pos += count
        if record:
            log_rows += rows
            log_entries += popped
            log_sizes += counts
            log_fresh.append(fresh)

    if not record:
        return results, None
    return results, _trace_columns(log_rows, log_entries, log_sizes, log_fresh, m)


def _distances(vectors, queries, ids, rows, counts, metric) -> list[float]:
    """Distances of ``vectors[ids]`` to their queries, as floats.

    ``ids`` holds ``counts[j]`` consecutive vertices of query ``rows[j]``
    (int64 arrays, or one-item lists for one query).
    """
    if len(rows) == 1:
        return _query_distances(vectors[ids], queries[rows[0]], metric).tolist()
    if metric is DistanceMetric.EUCLIDEAN:
        return squared_euclidean(vectors[ids], queries[rows.repeat(counts)]).tolist()
    out: list[float] = []
    pos = 0
    for q, count in zip(list(rows), list(counts)):
        if count:
            segment = vectors[ids[pos : pos + count]]
            out += distances_to_query(segment, queries[q], metric).tolist()
            pos += count
    return out


def _query_distances(points, query, metric) -> np.ndarray:
    """:func:`distances_to_query` of one query, minus its shape checks
    for EUCLIDEAN."""
    if metric is DistanceMetric.EUCLIDEAN:
        return squared_euclidean(points, query)
    return distances_to_query(points, query, metric)


def _trace_columns(rows, entries, sizes, fresh, m: int) -> list[tuple]:
    """Regroup a chunk's trace log into per-query trace columns.

    A stable sort by query row keeps each query's iterations in step
    order; an iteration's computed vertices move with it as one segment
    of the concatenated fresh vertices.
    """
    sizes = np.array(sizes, dtype=np.int64)
    if m == 1:
        offsets = np.zeros(sizes.size + 1, dtype=np.int64)
        np.cumsum(sizes, out=offsets[1:])
        return [(np.array(entries, dtype=np.int64), offsets, np.concatenate(fresh))]
    rows = np.array(rows, dtype=np.int64)
    starts = np.cumsum(sizes) - sizes
    order = np.argsort(rows, kind="stable")
    sizes = sizes[order]
    offsets = np.zeros(sizes.size + 1, dtype=np.int64)
    np.cumsum(sizes, out=offsets[1:])
    gather = np.repeat(starts[order] - offsets[:-1], sizes)
    gather += np.arange(gather.size)
    computed = np.concatenate(fresh)[gather]
    entries = np.array(entries, dtype=np.int64)[order]
    bounds = np.zeros(m + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=m), out=bounds[1:])
    bounds = bounds.tolist()
    starts = offsets.tolist()
    return [
        (
            entries[a:b],
            offsets[a : b + 1] - starts[a],
            computed[starts[a] : starts[b]],
        )
        for a, b in zip(bounds, bounds[1:])
    ]


class LockstepIndex:
    """``search`` and ``search_batch`` of an index whose searches run
    through :func:`beam_search_batch`.

    Subclasses implement ``_search_rows(queries, k, ef, record)``, which
    returns that kernel's output for every row of ``queries``.
    """

    def _search_rows(self, queries: np.ndarray, k: int, ef, record: bool):
        raise NotImplementedError

    def search(
        self,
        query: np.ndarray,
        k: int,
        ef: int | None = None,
        recorder: TraceRecorder | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Top-k search of one query, the one-row case of
        :meth:`search_batch`; ``recorder`` receives its trace."""
        results, columns = self._search_rows(
            np.asarray(query)[None, :], k, ef, recorder is not None
        )
        ids, dists = top_k_from_results(results[0], k)
        if recorder is not None:
            recorder.record_columns(*columns[0])
            recorder.record_result(ids, dists)
        return ids, dists

    def search_batch(
        self, queries: np.ndarray, k: int, ef: int | None = None, record: bool = True
    ) -> tuple[np.ndarray, np.ndarray, list[SearchTrace]]:
        """Top-k search of every row: ``(len, k)`` IDs and distances
        padded with ``-1`` / ``inf``, and with ``record`` one trace per
        query (``query_id`` is its row) carrying its top-k."""
        # Chunk by chunk, and each chunk's results reduced to its top-k
        # at once: the kernel's heaps and full result lists then never
        # exceed one chunk's worth.
        rows: list[tuple[np.ndarray, np.ndarray]] = []
        traces: list[SearchTrace] = []
        for lo in range(0, queries.shape[0], CHUNK_QUERIES):
            results, columns = self._search_rows(
                queries[lo : lo + CHUNK_QUERIES], k, ef, record
            )
            chunk = [top_k_from_results(res, k) for res in results]
            rows += chunk
            if columns is not None:
                traces += [
                    SearchTrace(
                        query_id=lo + i,
                        entries=entries,
                        offsets=offsets,
                        computed=computed,
                        result_ids=ids,
                        result_distances=dists,
                    )
                    for i, ((ids, dists), (entries, offsets, computed))
                    in enumerate(zip(chunk, columns))
                ]
        return (*_padded(rows, k), traces)


def search_each(
    search, queries: np.ndarray, k: int, record: bool
) -> tuple[np.ndarray, np.ndarray, list[SearchTrace]]:
    """A batch search's output from a per-query loop.

    For indexes whose search does not fit :func:`beam_search_batch`
    (TOGG's filtered stage, IVF's list scans): ``search(query,
    recorder)`` returns one query's top-k ``(ids, dists)``.
    """
    rows = []
    traces = []
    for i in range(queries.shape[0]):
        recorder = TraceRecorder(query_id=i) if record else None
        rows.append(search(queries[i], recorder))
        if recorder is not None:
            traces.append(recorder.finish())
    return (*_padded(rows, k), traces)


def _padded(rows, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-query top-k ``(ids, dists)`` as ``(len(rows), k)`` arrays
    padded with ``-1`` / ``inf``."""
    all_ids = np.full((len(rows), k), -1, dtype=np.int64)
    all_dists = np.full((len(rows), k), np.inf, dtype=np.float64)
    for i, (ids, dists) in enumerate(rows):
        all_ids[i, : ids.size] = ids
        all_dists[i, : dists.size] = dists
    return all_ids, all_dists


def top_k_from_results(
    results: list[tuple[float, int]], k: int
) -> tuple[np.ndarray, np.ndarray]:
    """Split the (distance, id) beam output into top-k arrays."""
    top = results[: max(k, 0)]
    ids = np.asarray([v for _, v in top], dtype=np.int64)
    dists = np.asarray([d for d, _ in top], dtype=np.float64)
    return ids, dists


def merge_topk(
    ids_per_shard: list[np.ndarray],
    dists_per_shard: list[np.ndarray],
    k: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Merge per-shard top-k candidate lists into a global top-k.

    Each shard contributes ``(batch, k_s)`` ID and distance arrays in a
    shared (global) ID space; rows may be padded with ``-1`` IDs /
    ``inf`` distances when a shard holds fewer than ``k_s`` vectors.
    The merge keeps, per query, the ``k`` nearest valid candidates by
    distance (stable: ties broken by shard order then rank), dropping
    duplicate IDs — so replicated shards merge as safely as disjoint
    partitions.  Output rows are padded with ``-1`` / ``inf`` when
    fewer than ``k`` distinct candidates exist.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if not ids_per_shard or len(ids_per_shard) != len(dists_per_shard):
        raise ValueError("need matching, non-empty per-shard id/dist lists")
    ids = np.concatenate(
        [np.atleast_2d(np.asarray(a, dtype=np.int64)) for a in ids_per_shard], axis=1
    )
    dists = np.concatenate(
        [np.atleast_2d(np.asarray(d, dtype=np.float64)) for d in dists_per_shard],
        axis=1,
    )
    if ids.shape != dists.shape:
        raise ValueError("id and distance shapes differ")
    batch, m = ids.shape
    out_ids = np.full((batch, k), -1, dtype=np.int64)
    out_dists = np.full((batch, k), np.inf, dtype=np.float64)
    # Rank candidates per row by distance (stable: ties keep shard
    # order then rank, matching the concatenation order).
    order = np.argsort(dists, axis=1, kind="stable")
    sid = np.take_along_axis(ids, order, axis=1)
    sdist = np.take_along_axis(dists, order, axis=1)
    valid = (sid >= 0) & np.isfinite(sdist)
    # First-occurrence dedup across the whole batch at once: group the
    # flattened candidates by (row, id) with rank as the tie-break;
    # the group head is the nearest valid occurrence of that id.
    # Invalid entries are collapsed onto id -1 so they never shadow a
    # valid duplicate, and are dropped by the validity mask below.
    flat_id = np.where(valid, sid, -1).ravel()
    flat_row = np.repeat(np.arange(batch), m)
    flat_rank = np.tile(np.arange(m), batch)
    perm = np.lexsort((flat_rank, flat_id, flat_row))
    head = np.ones(perm.size, dtype=bool)
    head[1:] = (flat_row[perm][1:] != flat_row[perm][:-1]) | (
        flat_id[perm][1:] != flat_id[perm][:-1]
    )
    keep = np.zeros(batch * m, dtype=bool)
    keep[perm] = head
    keep &= valid.ravel()
    keep = keep.reshape(batch, m)
    # Scatter the first k kept candidates of each row into the output.
    dest = np.cumsum(keep, axis=1) - 1
    take = keep & (dest < k)
    rows = np.nonzero(take)[0]
    out_ids[rows, dest[take]] = sid[take]
    out_dists[rows, dest[take]] = sdist[take]
    return out_ids, out_dists
