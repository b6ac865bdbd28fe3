"""Search traces: the memory-access record driving the simulators.

The paper's simulation method (Section VII-A) "hacks" the search code
to dump, for every query, the index sequence of accessed vertices; the
trace-driven simulator then replays those accesses on each platform
model.  We formalise that record here:

* :class:`IterationRecord` — one search iteration: the entry vertex
  whose neighbor list was read, and the neighbor IDs whose distances
  were computed this iteration.
* :class:`SearchTrace` — all iterations of one query, plus the final
  result list.
* :class:`TraceRecorder` — the hook object search kernels call.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain

import numpy as np


@dataclass(frozen=True)
class IterationRecord:
    """One iteration of graph-traversal search for one query.

    ``entry`` is the vertex popped from the candidate list (its
    adjacency information is read), ``computed`` are the previously
    unvisited neighbors whose feature vectors were fetched and whose
    distances to the query were computed.
    """

    entry: int
    computed: tuple[int, ...]


@dataclass
class SearchTrace:
    """The complete access trace of one query."""

    query_id: int
    iterations: list[IterationRecord] = field(default_factory=list)
    result_ids: np.ndarray | None = None
    result_distances: np.ndarray | None = None

    @property
    def num_iterations(self) -> int:
        return len(self.iterations)

    @property
    def visited_vertices(self) -> list[int]:
        """All computed vertex IDs in visit order (may repeat entries)."""
        out: list[int] = []
        for it in self.iterations:
            out.extend(it.computed)
        return out

    @property
    def trace_length(self) -> int:
        """The paper's 'length of the searching trace': number of
        visited vertices that are computed against the query."""
        return sum(len(it.computed) for it in self.iterations)

    @property
    def entries(self) -> list[int]:
        return [it.entry for it in self.iterations]


class TraceRecorder:
    """Mutable builder the search kernels feed; one per query."""

    def __init__(self, query_id: int = 0) -> None:
        self.trace = SearchTrace(query_id=query_id)

    def record_iteration(self, entry: int, computed: list[int] | np.ndarray) -> None:
        self.trace.iterations.append(
            IterationRecord(
                entry=int(entry),
                computed=tuple(np.asarray(computed, dtype=np.int64).tolist()),
            )
        )

    def record_result(self, ids: np.ndarray, distances: np.ndarray) -> None:
        self.trace.result_ids = np.asarray(ids, dtype=np.int64)
        self.trace.result_distances = np.asarray(distances, dtype=np.float64)

    def finish(self) -> SearchTrace:
        return self.trace


def remap_trace(trace: SearchTrace, new_id: np.ndarray) -> SearchTrace:
    """Rewrite a trace's vertex IDs through a relabeling map.

    Used after static-scheduling reordering: traces are generated on
    the original graph, then remapped to the reordered vertex IDs so
    the simulator sees the post-reordering physical placement.
    ``new_id[old] = new``.
    """
    iterations = trace.iterations
    n = len(iterations)
    computed = [it.computed for it in iterations]
    sizes = [len(c) for c in computed]
    # One gather over every entry, then every computed id, in order.
    old = np.fromiter(
        chain((it.entry for it in iterations), chain.from_iterable(computed)),
        dtype=np.int64, count=n + sum(sizes),
    )
    new = new_id[old].tolist()
    remapped = SearchTrace(query_id=trace.query_id)
    start = n
    for entry, size in zip(new[:n], sizes):
        remapped.iterations.append(
            IterationRecord(entry=entry, computed=tuple(new[start:start + size]))
        )
        start += size
    if trace.result_ids is not None:
        remapped.result_ids = new_id[trace.result_ids]
        remapped.result_distances = trace.result_distances
    return remapped
