"""Cold-trace resolution: the batch's speculative sets as columns, the
vectorized trace remap, trace stacking and trace recording must
reproduce the per-trace and per-iteration code they replace exactly."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.ann.graph import ProximityGraph
import repro.core.ndsearch as ndsearch
from repro.ann.trace import (
    IterationRecord,
    SearchTrace,
    TraceRecorder,
    remap_trace,
    stack_traces,
)
from repro.core import NDSearch
from repro.core.ndsearch import precompute_speculative_sets
from repro.core.speculative import rank_by_round, select_speculative_candidates


# ---- oracles: the per-iteration code ------------------------------------------
def _select_oracle(graph: ProximityGraph, first_order, width: int) -> np.ndarray:
    """One iteration's Pref Unit choice, computed on its own."""
    if width <= 0:
        return np.empty(0, dtype=np.int64)
    first = np.unique(np.asarray(first_order, dtype=np.int64))
    if first.size == 0:
        return np.empty(0, dtype=np.int64)
    gathered = np.concatenate(
        [graph.indices[graph.indptr[v]:graph.indptr[v + 1]] for v in first]
    ).astype(np.int64)
    candidates = gathered[~np.isin(gathered, first)]
    if candidates.size == 0:
        return np.empty(0, dtype=np.int64)
    ids, counts = np.unique(candidates, return_counts=True)
    return ids[np.lexsort((ids, -counts))[:width]]


def _precompute_oracle(traces, graph, width) -> list[list[np.ndarray]]:
    return [
        [_select_oracle(graph, it.computed, width) for it in trace.iterations]
        for trace in traces
    ]


def _precompute_lists(traces, graph, width) -> list[list[np.ndarray]]:
    """One list of per-iteration sets per trace: one round-tagged pass
    per trace, sliced into a view per iteration."""
    out: list[list[np.ndarray]] = []
    for trace in traces:
        n_rounds = trace.num_iterations
        ids, bounds = rank_by_round(
            graph, trace.computed, trace.rounds, n_rounds, width
        )
        b = bounds.tolist()
        out.append([ids[b[r]:b[r + 1]] for r in range(n_rounds)])
    return out


def _columns(traces, graph, width) -> tuple[np.ndarray, np.ndarray]:
    """The batch's sets as columns over its global rounds."""
    computed, offsets, trace_rounds = stack_traces(traces)
    return precompute_speculative_sets(
        graph, computed, offsets, trace_rounds, width
    )


def _sets_by_trace(traces, ids, bounds) -> list[list[np.ndarray]]:
    """Column-form sets split back into one list per trace."""
    b = bounds.tolist()
    out, g = [], 0
    for trace in traces:
        n = trace.num_iterations
        out.append([ids[b[g + r]:b[g + r + 1]] for r in range(n)])
        g += n
    return out


def _remap_oracle(trace: SearchTrace, new_id: np.ndarray) -> SearchTrace:
    iterations = [
        IterationRecord(
            entry=int(new_id[it.entry]),
            computed=tuple(int(new_id[c]) for c in it.computed),
        )
        for it in trace.iterations
    ]
    if trace.result_ids is None:
        return SearchTrace.from_iterations(iterations, query_id=trace.query_id)
    return SearchTrace.from_iterations(
        iterations,
        query_id=trace.query_id,
        result_ids=new_id[trace.result_ids],
        result_distances=trace.result_distances,
    )


def _trace(rounds, query_id: int = 0) -> SearchTrace:
    return SearchTrace.from_iterations(
        [
            IterationRecord(entry=entry, computed=tuple(int(v) for v in computed))
            for entry, computed in rounds
        ],
        query_id=query_id,
    )


def _assert_sets_equal(got, want) -> None:
    assert len(got) == len(want)
    for g_trace, w_trace in zip(got, want):
        assert len(g_trace) == len(w_trace)
        for g, w in zip(g_trace, w_trace):
            assert g.dtype == np.int64
            assert np.array_equal(g, w)


def _graph(adjacency) -> ProximityGraph:
    vectors = np.zeros((len(adjacency), 2), dtype=np.float32)
    return ProximityGraph.from_adjacency(vectors, adjacency)


# ---- strategies ----------------------------------------------------------------
@st.composite
def graph_and_traces(draw):
    """A random CSR graph (zero-degree vertices, self-loops and repeated
    edges allowed) and traces over it with empty iterations, duplicate
    ids within an iteration and iterations that cover every vertex."""
    n = draw(st.integers(1, 24))
    vertex = st.integers(0, n - 1)
    adjacency = draw(
        st.lists(st.lists(vertex, max_size=6), min_size=n, max_size=n)
    )
    traces = []
    for q in range(draw(st.integers(0, 4))):
        rounds = []
        for _ in range(draw(st.integers(0, 6))):
            mode = draw(st.sampled_from(("random", "empty", "closed", "repeat")))
            if mode == "empty":
                computed = []
            elif mode == "closed":
                # Every neighbour of every member is a member too, so
                # no second-order candidate is left.
                computed = draw(st.permutations(range(n)))
            elif mode == "repeat":
                v = draw(vertex)
                computed = [v] * draw(st.integers(2, 4)) + draw(
                    st.lists(vertex, max_size=3)
                )
            else:
                computed = draw(st.lists(vertex, max_size=10))
            rounds.append((draw(vertex), computed))
        traces.append(_trace(rounds, query_id=q))
    graph = _graph(adjacency)
    width = draw(
        st.sampled_from((0, 1, graph.max_degree, graph.max_degree + 1))
        | st.integers(-1, 40)
    )
    return graph, traces, width


# ---- speculative sets ----------------------------------------------------------
class TestSpeculativeSets:
    @settings(max_examples=200, deadline=None)
    @given(case=graph_and_traces())
    def test_round_tagged_sets_match_per_iteration_loop(self, case):
        graph, traces, width = case
        lists = _precompute_lists(traces, graph, width)
        _assert_sets_equal(lists, _precompute_oracle(traces, graph, width))
        ids, bounds = _columns(traces, graph, width)
        assert ids.dtype == bounds.dtype == np.int64
        assert bounds.shape == (sum(t.num_iterations for t in traces) + 1,)
        _assert_sets_equal(_sets_by_trace(traces, ids, bounds), lists)

    @settings(max_examples=200, deadline=None)
    @given(case=graph_and_traces())
    def test_one_round_case_matches_oracle(self, case):
        graph, traces, width = case
        for trace in traces:
            for it in trace.iterations:
                got = select_speculative_candidates(
                    graph, np.asarray(it.computed, dtype=np.int64), width
                )
                assert got.dtype == np.int64
                assert np.array_equal(got, _select_oracle(graph, it.computed, width))

    @settings(max_examples=100, deadline=None)
    @given(case=graph_and_traces())
    def test_sets_are_compact(self, case):
        """The columns hold the kept vertices and nothing else."""
        graph, traces, width = case
        ids, bounds = _columns(traces, graph, width)
        assert ids.base is None
        assert ids.size == bounds[-1]
        assert bounds[0] == 0 and (np.diff(bounds) >= 0).all()

    def test_count_ties_break_by_id(self):
        # First-order {0, 1}: 2 and 3 are each linked twice, 4 and 5
        # once; ties rank by ascending id.
        graph = _graph([[5, 3, 2], [2, 3, 4], [], [], [], []])
        trace = _trace([(0, [1, 0, 1]), (0, []), (0, [0])])
        ids, bounds = _columns([trace, trace], graph, 3)
        assert ids.tolist() == [2, 3, 4, 2, 3, 5] * 2
        assert bounds.tolist() == [0, 3, 3, 6, 9, 9, 12]
        ids, bounds = rank_by_round(
            graph, np.array([1, 0, 0], dtype=np.int64),
            np.array([0, 0, 2], dtype=np.int64), 3, 1,
        )
        assert ids.tolist() == [2, 2]
        assert bounds.tolist() == [0, 1, 1, 2]

    def test_zero_degree_and_empty_trace(self):
        graph = _graph([[], [], [0]])
        ids, bounds = _columns([SearchTrace(0)], graph, 4)
        assert ids.dtype == np.int64 and ids.size == 0
        assert bounds.tolist() == [0]
        ids, bounds = _columns(
            [SearchTrace(0), _trace([(0, [0, 1])]), SearchTrace(1)], graph, 4
        )
        assert ids.dtype == np.int64 and ids.size == 0
        assert bounds.tolist() == [0, 0]

    @pytest.mark.parametrize("width", [0, 1, 3, 8, 16, 64])
    def test_hnsw_traces_match_oracle(self, small_hnsw, small_graph,
                                      small_queries, width):
        traces = small_hnsw.search_batch(small_queries, 5, ef=16)[2]
        ids, bounds = _columns(traces, small_graph, width)
        _assert_sets_equal(_sets_by_trace(traces, ids, bounds),
                           _precompute_oracle(traces, small_graph, width))

    def test_resolve_trace_uses_round_tagged_sets(self, small_hnsw,
                                                  small_queries, tiny_config,
                                                  monkeypatch):
        """A batch's new traces are remapped to physical IDs and their
        sets resolved in one column-form call; cached traces make none."""
        system = NDSearch(index=small_hnsw, config=tiny_config)
        traces = small_hnsw.search_batch(small_queries[:4], 5, ef=16)[2]
        calls = []

        def spy(*args):
            calls.append(precompute_speculative_sets(*args))
            return calls[-1]

        monkeypatch.setattr(ndsearch, "precompute_speculative_sets", spy)
        system.simulate_traces(traces + traces[:2])
        ((ids, bounds),) = calls
        remapped = [remap_trace(t, system.new_id) for t in traces]
        want = _precompute_oracle(
            remapped, system.graph, tiny_config.speculative_width
        )
        _assert_sets_equal(_sets_by_trace(remapped, ids, bounds), want)
        system.simulate_traces(traces[::-1])
        assert len(calls) == 1


# ---- trace recording -----------------------------------------------------------
def _assert_same_trace(got: SearchTrace, want: SearchTrace) -> None:
    assert got.query_id == want.query_id
    assert got.iterations == want.iterations
    for g, w in zip(got.iterations, want.iterations):
        assert type(g.entry) is int
        assert all(type(c) is int for c in g.computed)
    if want.result_ids is None:
        assert got.result_ids is None
    else:
        assert got.result_ids.dtype == want.result_ids.dtype
        assert np.array_equal(got.result_ids, want.result_ids)
        assert got.result_distances is want.result_distances


class TestTraceRecording:
    @settings(max_examples=150, deadline=None)
    @given(
        n=st.integers(1, 40),
        data=st.data(),
        with_result=st.booleans(),
    )
    def test_remap_matches_per_element_loop(self, n, data, with_result):
        vertex = st.integers(0, n - 1)
        rounds = data.draw(
            st.lists(st.tuples(vertex, st.lists(vertex, max_size=8)), max_size=8)
        )
        trace = _trace(rounds, query_id=data.draw(st.integers(0, 99)))
        if with_result:
            k = data.draw(st.integers(0, 5))
            trace = dataclasses.replace(
                trace,
                result_ids=np.asarray(
                    data.draw(st.lists(vertex, min_size=k, max_size=k)),
                    dtype=np.int64,
                ),
                result_distances=np.arange(k, dtype=np.float64),
            )
        new_id = np.asarray(data.draw(st.permutations(range(n))), dtype=np.int64)
        _assert_same_trace(remap_trace(trace, new_id), _remap_oracle(trace, new_id))

    def test_remap_empty_trace(self):
        new_id = np.array([1, 0], dtype=np.int64)
        _assert_same_trace(
            remap_trace(SearchTrace(3), new_id), _remap_oracle(SearchTrace(3), new_id)
        )

    @pytest.mark.parametrize(
        "computed",
        [
            [4, 1, 4],
            np.array([4, 1, 4], dtype=np.int32),
            np.array([4, 1, 4], dtype=np.int64),
            [],
            np.array([], dtype=np.int64),
        ],
        ids=["list", "int32-array", "int64-array", "empty-list", "empty-array"],
    )
    def test_record_iteration_stores_python_ints(self, computed):
        recorder = TraceRecorder(query_id=5)
        recorder.record_iteration(np.int64(7), computed)
        (record,) = recorder.finish().iterations
        assert type(record.entry) is int and record.entry == 7
        assert type(record.computed) is tuple
        assert record.computed == tuple(int(c) for c in computed)
        assert all(type(c) is int for c in record.computed)


# ---- trace stacking ------------------------------------------------------------
class TestStackTraces:
    @settings(max_examples=100, deadline=None)
    @given(case=graph_and_traces())
    def test_global_rounds_follow_trace_order(self, case):
        _, traces, _ = case
        computed, offsets, trace_rounds = stack_traces(traces)
        for arr in (computed, offsets, trace_rounds):
            assert arr.dtype == np.int64
        assert trace_rounds.tolist() == np.cumsum(
            [0] + [t.num_iterations for t in traces]
        ).tolist()
        rounds = [
            computed[offsets[g]:offsets[g + 1]].tolist()
            for g in range(trace_rounds[-1])
        ]
        assert rounds == [
            list(it.computed) for t in traces for it in t.iterations
        ]
