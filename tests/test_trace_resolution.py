"""Cold-trace resolution: the batch's speculative sets as columns, the
vectorized trace remap, trace stacking and trace recording must
reproduce the per-trace and per-iteration code they replace exactly."""

from __future__ import annotations

import dataclasses
from types import SimpleNamespace
from unittest import mock

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


def _rank_oracle(graph, vertices, rounds, n_rounds: int, width: int):
    """:func:`rank_by_round` as two ``np.unique`` calls, a sort of the
    gathered neighbours and a ``searchsorted`` membership probe."""
    bounds = np.zeros(n_rounds + 1, dtype=np.int64)
    if width <= 0 or vertices.size == 0:
        return np.empty(0, dtype=np.int64), bounds
    n = np.int64(graph.num_vertices)
    first = np.unique(rounds * n + vertices)
    first_round = first // n
    first_v = first - first_round * n
    starts = graph.indptr[first_v]
    lengths = graph.indptr[first_v + 1] - starts
    total = int(lengths.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64), bounds
    rows = np.repeat(np.arange(first.size), lengths)
    row_base = np.cumsum(lengths) - lengths
    gathered = graph.indices[
        starts[rows] + np.arange(total, dtype=np.int64) - row_base[rows]
    ]
    tagged = np.sort(first_round[rows] * n + gathered)
    pos = np.searchsorted(first, tagged)
    pos[pos == first.size] = first.size - 1
    candidates = tagged[first[pos] != tagged]
    if candidates.size == 0:
        return np.empty(0, dtype=np.int64), bounds
    tags, counts = np.unique(candidates, return_counts=True)
    cand_round = tags // n
    k = counts.max() + 1
    ranked = np.sort(
        (cand_round * k + (k - 1 - counts)) * n + (tags - cand_round * n)
    )
    block = np.searchsorted(cand_round, np.arange(n_rounds + 1))
    keep = np.arange(ranked.size) - block[ranked // (k * n)] < width
    np.cumsum(np.minimum(np.diff(block), width), out=bounds[1:])
    return ranked[keep] % n, bounds


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
def graph_and_traces(draw, max_traces: int = 4):
    """A random CSR graph (zero-degree vertices, self-loops and repeated
    edges allowed) and traces over it with empty iterations, duplicate
    ids within an iteration and iterations that cover every vertex."""
    n = draw(st.integers(1, 24))
    vertex = st.integers(0, n - 1)
    adjacency = draw(
        st.lists(st.lists(vertex, max_size=6), min_size=n, max_size=n)
    )
    traces = []
    for q in range(draw(st.integers(0, max_traces))):
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


@st.composite
def grouped_batches(draw):
    """A stacked batch and a group budget anywhere from 0 (every trace
    with an edge is larger than the budget) to one past the batch's
    neighbour entries (one group)."""
    graph, traces, width = draw(graph_and_traces(max_traces=8))
    computed = stack_traces(traces)[0]
    entries = int(graph.degrees[computed].sum())
    return graph, traces, width, draw(st.integers(0, entries + 1))


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


# ---- group cuts and the marked sort -------------------------------------------
def _assert_same_bytes(got: np.ndarray, want: np.ndarray) -> None:
    assert got.dtype == want.dtype == np.int64
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def _assert_grouped_like_oracles(graph, traces, width, budget) -> None:
    """``precompute_speculative_sets`` under ``budget`` is byte for byte
    one whole-batch ``_rank_oracle`` call and the per-iteration oracle."""
    computed, offsets, trace_rounds = stack_traces(traces)
    with mock.patch.object(ndsearch, "SPECULATIVE_GROUP_ENTRIES", budget):
        ids, bounds = precompute_speculative_sets(
            graph, computed, offsets, trace_rounds, width
        )
    n_total = int(trace_rounds[-1])
    rounds = np.repeat(np.arange(n_total, dtype=np.int64), np.diff(offsets))
    want_ids, want_bounds = _rank_oracle(graph, computed, rounds, n_total, width)
    _assert_same_bytes(ids, want_ids)
    _assert_same_bytes(bounds, want_bounds)
    sets = [
        _select_oracle(graph, it.computed, width)
        for trace in traces for it in trace.iterations
    ]
    _assert_same_bytes(ids, np.concatenate([np.empty(0, np.int64), *sets]))
    _assert_same_bytes(
        bounds, np.cumsum([0] + [s.size for s in sets], dtype=np.int64)
    )


class TestGroupedRanking:
    @settings(max_examples=300, deadline=None)
    @given(case=grouped_batches())
    def test_grouped_sets_match_both_oracles(self, case):
        _assert_grouped_like_oracles(*case)

    @settings(max_examples=200, deadline=None)
    @given(case=graph_and_traces(), data=st.data())
    def test_marked_sort_matches_unique_oracle(self, case, data):
        """Any rounds, in any order, with rounds left empty."""
        graph, _, width = case
        n_rounds = data.draw(st.integers(1, 6))
        size = data.draw(st.integers(0, 30))
        vertices = np.asarray(data.draw(st.lists(
            st.integers(0, graph.num_vertices - 1), min_size=size,
            max_size=size,
        )), dtype=np.int64)
        rounds = np.asarray(data.draw(st.lists(
            st.integers(0, n_rounds - 1), min_size=size, max_size=size,
        )), dtype=np.int64)
        got = rank_by_round(graph, vertices, rounds, n_rounds, width)
        want = _rank_oracle(graph, vertices, rounds, n_rounds, width)
        _assert_same_bytes(got[0], want[0])
        _assert_same_bytes(got[1], want[1])

    @pytest.mark.parametrize("width", [0, 1, 2, 50])
    @pytest.mark.parametrize("budget", [0, 1, 3, 6, 19, 20, 23, 26, 46, 99])
    def test_hand_built_batch(self, width, budget):
        # Vertices 4, 5 and 6 have no edges.  0 and 1 both link to 2
        # and 3 (a count tie at 2) and to 4 and 6 once each (a tie at
        # 1).  big's last round holds every neighbour of its members,
        # so it has no candidate.  Neighbour entries: big 20, small 3,
        # isolated 0, 46 in all; the budgets cut the batch everywhere.
        graph = _graph([[2, 3, 4], [2, 3, 6], [0], [1], [], [], []])
        big = _trace([(0, [0, 1, 1, 0]), (0, [5, 5]), (1, [1, 0, 2, 3, 4, 6])])
        small = _trace([(2, [2]), (3, [3, 3])])
        isolated = _trace([(5, [5]), (5, [5, 5])])
        traces = [
            SearchTrace(0), big, SearchTrace(1), small, isolated, small,
            SearchTrace(2), big,
        ]
        _assert_grouped_like_oracles(graph, traces, width, budget)

    def test_groups_cut_at_trace_boundaries(self, monkeypatch):
        """Each call ranks whole traces within the budget, or one trace
        larger than it, with rounds numbered from the group's first."""
        graph = _graph([[1, 2], [0], [0, 1, 2]])
        traces = [_trace([(0, [0]), (0, [2])]), SearchTrace(1),
                  _trace([(1, [1])]), _trace([(2, [2, 2])])]
        calls = []

        def spy(graph, vertices, rounds, n_rounds, width):
            calls.append((vertices.tolist(), rounds.tolist(), n_rounds))
            return rank_by_round(graph, vertices, rounds, n_rounds, width)

        monkeypatch.setattr(ndsearch, "rank_by_round", spy)
        monkeypatch.setattr(ndsearch, "SPECULATIVE_GROUP_ENTRIES", 5)
        # Entries per trace: 5, 0, 1, 6.
        _columns(traces, graph, 2)
        assert calls == [
            ([0, 2], [0, 1], 2),
            ([1], [0], 1),
            ([2, 2], [0, 0], 1),
        ]


class TestRankOverflow:
    """``rank_by_round`` refuses tags that would wrap int64; a fake graph
    with a huge vertex count and a three-edge CSR allocates nothing
    large."""

    @staticmethod
    def _huge(num_vertices: int):
        return SimpleNamespace(
            num_vertices=num_vertices,
            indptr=np.array([0, 1, 2, 3, 3], dtype=np.int64),
            indices=np.array([3, 3, 3], dtype=np.int32),
        )

    def test_marked_tags_past_int64_are_refused(self):
        graph = self._huge(2**61)
        one = np.zeros(1, dtype=np.int64)
        # 2 * 1 * 2**61 < 2**63: vertex 0's one neighbour is ranked.
        ids, bounds = rank_by_round(graph, one, one, 1, 4)
        assert ids.tolist() == [3] and bounds.tolist() == [0, 1]
        for n_rounds in (2, 3):
            with pytest.raises(ValueError, match="overflow"):
                rank_by_round(graph, one, one, n_rounds, 4)
        with pytest.raises(ValueError, match="overflow"):
            rank_by_round(self._huge(2**62), one[:0], one[:0], 1, 4)

    def test_ranking_key_past_int64_is_refused(self):
        # Counts up to c pack as n_rounds * (c + 1) * V: with V = 2**61,
        # a count of 2 fits and a count of 3 does not.
        graph = self._huge(2**61)
        two = np.array([0, 1], dtype=np.int64)
        ids, _ = rank_by_round(graph, two, np.zeros(2, np.int64), 1, 4)
        assert ids.tolist() == [3]
        three = np.array([0, 1, 2], dtype=np.int64)
        with pytest.raises(ValueError, match="overflow"):
            rank_by_round(graph, three, np.zeros(3, np.int64), 1, 4)


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
