"""Search traces: the memory-access record driving the simulators.

The paper's simulation method (Section VII-A) "hacks" the search code
to dump, for every query, the index sequence of accessed vertices; the
trace-driven simulator then replays those accesses on each platform
model.  We formalise that record here:

* :class:`SearchTrace` — all iterations of one query, plus the final
  result list, stored as three read-only int64 columns: ``entries[n]``
  (the vertex popped in each iteration), ``offsets[n + 1]`` and
  ``computed[m]`` (iteration ``i`` computed
  ``computed[offsets[i]:offsets[i + 1]]``).  Every simulator reads the
  columns directly; a trace is immutable because batches share it by
  identity.
* :class:`IterationRecord` — one search iteration as a value object.
  :attr:`SearchTrace.iterations` builds them on demand for tests and
  oracles; no simulator reads them.
* :class:`TraceRecorder` — the hook object search kernels call.  It
  appends to lists and builds the columns once, in :meth:`finish`.
* :func:`stack_traces` — a batch of traces as the same three columns
  over one global round numbering, the form the batch compilers read.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

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


def _read_only(values) -> np.ndarray:
    """An int64 read-only view of ``values`` (the caller's array keeps
    its own flags)."""
    out = np.asarray(values, dtype=np.int64).view()
    out.flags.writeable = False
    return out


@dataclass(frozen=True, eq=False)
class SearchTrace:
    """The complete access trace of one query, as columns."""

    query_id: int = 0
    entries: np.ndarray = ()
    offsets: np.ndarray = (0,)
    computed: np.ndarray = ()
    result_ids: np.ndarray | None = None
    result_distances: np.ndarray | None = None

    def __post_init__(self) -> None:
        for name in ("entries", "offsets", "computed"):
            object.__setattr__(self, name, _read_only(getattr(self, name)))
        if self.offsets.size != self.entries.size + 1 or (
            self.offsets[0] != 0 or self.offsets[-1] != self.computed.size
        ):
            raise ValueError(
                "offsets must run from 0 to len(computed), one past each entry"
            )

    def __reduce__(self):
        # Copies and unpickled traces are rebuilt through __init__, so
        # their columns are read-only too.
        return (type(self), tuple(getattr(self, f.name) for f in fields(self)))

    @classmethod
    def from_iterations(
        cls,
        iterations,
        query_id: int = 0,
        result_ids: np.ndarray | None = None,
        result_distances: np.ndarray | None = None,
    ) -> "SearchTrace":
        """Build a trace from :class:`IterationRecord` values."""
        sizes = [len(it.computed) for it in iterations]
        return cls(
            query_id=query_id,
            entries=[it.entry for it in iterations],
            offsets=np.concatenate(([0], np.cumsum(sizes, dtype=np.int64))),
            computed=[v for it in iterations for v in it.computed],
            result_ids=result_ids,
            result_distances=result_distances,
        )

    @property
    def num_iterations(self) -> int:
        return self.entries.size

    @property
    def visited_vertices(self) -> np.ndarray:
        """All computed vertex IDs in visit order (may repeat entries)."""
        return self.computed

    @property
    def trace_length(self) -> int:
        """The paper's 'length of the searching trace': number of
        visited vertices that are computed against the query."""
        return self.computed.size

    @property
    def sizes(self) -> np.ndarray:
        """Computed vertices per iteration."""
        return np.diff(self.offsets)

    @property
    def rounds(self) -> np.ndarray:
        """The iteration of each computed vertex, aligned with
        :attr:`computed`."""
        return np.repeat(np.arange(self.entries.size), self.sizes)

    @property
    def iterations(self) -> tuple[IterationRecord, ...]:
        """The trace as :class:`IterationRecord` values, built on demand."""
        computed = self.computed.tolist()
        bounds = self.offsets.tolist()
        return tuple(
            IterationRecord(entry, tuple(computed[lo:hi]))
            for entry, lo, hi in zip(self.entries.tolist(), bounds, bounds[1:])
        )


class TraceRecorder:
    """Mutable builder the search kernels feed; one per query."""

    def __init__(self, query_id: int = 0) -> None:
        self.query_id = query_id
        self._entries: list[int] = []
        self._computed: list[np.ndarray] = []
        self._result: tuple[np.ndarray | None, np.ndarray | None] = (None, None)

    def record_iteration(self, entry: int, computed: list[int] | np.ndarray) -> None:
        self._entries.append(int(entry))
        # A copy: the caller may reuse its buffer before finish().
        self._computed.append(np.array(computed, dtype=np.int64, ndmin=1))

    def record_columns(
        self, entries: np.ndarray, offsets: np.ndarray, computed: np.ndarray
    ) -> None:
        """Append the iterations of a run of trace columns."""
        bounds = np.asarray(offsets).tolist()
        for entry, lo, hi in zip(np.asarray(entries).tolist(), bounds, bounds[1:]):
            self.record_iteration(entry, computed[lo:hi])

    def record_result(self, ids: np.ndarray, distances: np.ndarray) -> None:
        self._result = (
            np.asarray(ids, dtype=np.int64),
            np.asarray(distances, dtype=np.float64),
        )

    def finish(self) -> SearchTrace:
        sizes = [c.size for c in self._computed]
        return SearchTrace(
            query_id=self.query_id,
            entries=self._entries,
            offsets=np.concatenate(([0], np.cumsum(sizes, dtype=np.int64))),
            computed=(
                np.concatenate(self._computed) if self._computed else ()
            ),
            result_ids=self._result[0],
            result_distances=self._result[1],
        )


def stack_traces(
    traces: list[SearchTrace],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Stack traces' columns over one global round numbering.

    Returns ``(computed, offsets, trace_rounds)``: iteration ``i`` of
    trace ``t`` is global round ``g = trace_rounds[t] + i``, and it
    computed ``computed[offsets[g]:offsets[g + 1]]``.  All three are
    int64; each column costs one ``concatenate``.
    """
    n_iters = np.fromiter(
        (t.entries.size for t in traces), dtype=np.int64, count=len(traces)
    )
    trace_rounds = np.zeros(len(traces) + 1, dtype=np.int64)
    np.cumsum(n_iters, out=trace_rounds[1:])
    empty = np.empty(0, dtype=np.int64)
    computed = np.concatenate([empty, *(t.computed for t in traces)])
    lengths = np.fromiter(
        (t.computed.size for t in traces), dtype=np.int64, count=len(traces)
    )
    offsets = np.zeros(trace_rounds[-1] + 1, dtype=np.int64)
    offsets[1:] = np.concatenate([empty, *(t.offsets[1:] for t in traces)])
    offsets[1:] += np.repeat(np.cumsum(lengths) - lengths, n_iters)
    return computed, offsets, trace_rounds


def remap_trace(trace: SearchTrace, new_id: np.ndarray) -> SearchTrace:
    """Rewrite a trace's vertex IDs through a relabeling map.

    Used after static-scheduling reordering: traces are generated on
    the original graph, then remapped to the reordered vertex IDs so
    the simulator sees the post-reordering physical placement.
    ``new_id[old] = new``.  Two gathers share the trace's ``offsets``.
    Negative result IDs are padding and stay ``-1``.
    """
    result_ids = trace.result_ids
    if result_ids is not None:
        result_ids = np.where(
            result_ids >= 0, new_id[np.maximum(result_ids, 0)], -1
        )
    return SearchTrace(
        query_id=trace.query_id,
        entries=new_id[trace.entries],
        offsets=trace.offsets,
        computed=new_id[trace.computed],
        result_ids=result_ids,
        result_distances=trace.result_distances,
    )
