"""Unit tests for the ProximityGraph container."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.ann.distance import DistanceMetric
from repro.ann.graph import ProximityGraph


def _tiny_graph():
    vectors = np.arange(12, dtype=np.float32).reshape(4, 3)
    adjacency = [[1, 2], [0], [3], [2, 0]]
    return ProximityGraph.from_adjacency(vectors, adjacency, entry_point=1)


class TestConstruction:
    def test_from_adjacency_csr_layout(self):
        g = _tiny_graph()
        assert g.num_vertices == 4
        assert g.num_edges == 6
        assert np.array_equal(g.indptr, [0, 2, 3, 4, 6])
        assert np.array_equal(g.neighbors(0), [1, 2])
        assert np.array_equal(g.neighbors(3), [2, 0])

    def test_degree_accessors(self):
        g = _tiny_graph()
        assert g.degree(0) == 2
        assert g.degree(1) == 1
        assert np.array_equal(g.degrees, [2, 1, 1, 2])
        assert g.max_degree == 2
        assert g.mean_degree == pytest.approx(1.5)

    def test_indptr_validation(self):
        vectors = np.zeros((2, 2), dtype=np.float32)
        with pytest.raises(ValueError):
            ProximityGraph(vectors, np.array([0, 1]), np.array([0]))
        with pytest.raises(ValueError):
            ProximityGraph(vectors, np.array([0, 2, 1]), np.array([1, 0]))

    def test_neighbor_range_validation(self):
        vectors = np.zeros((2, 2), dtype=np.float32)
        with pytest.raises(ValueError):
            ProximityGraph(vectors, np.array([0, 1, 2]), np.array([0, 5]))

    def test_entry_point_validation(self):
        vectors = np.zeros((2, 2), dtype=np.float32)
        with pytest.raises(ValueError):
            ProximityGraph(
                vectors, np.array([0, 1, 2]), np.array([1, 0]), entry_point=7
            )

    def test_adjacency_length_mismatch(self):
        with pytest.raises(ValueError):
            ProximityGraph.from_adjacency(np.zeros((3, 2), dtype=np.float32), [[1]])


class TestRelabel:
    def test_relabeled_preserves_topology(self):
        g = _tiny_graph()
        order = np.array([2, 0, 3, 1])
        r = g.relabeled(order)
        # Old vertex 2 becomes new 0; its neighbor old-3 becomes new 2.
        assert np.array_equal(r.neighbors(0), [2])
        assert np.array_equal(r.vectors[0], g.vectors[2])

    def test_relabeled_entry_point_follows(self):
        g = _tiny_graph()
        order = np.array([1, 0, 2, 3])
        r = g.relabeled(order)
        assert r.entry_point == 0  # old entry 1 is now first

    def test_relabeled_identity(self):
        g = _tiny_graph()
        r = g.relabeled(np.arange(4))
        assert np.array_equal(r.indptr, g.indptr)
        assert np.array_equal(r.indices, g.indices)

    def test_relabeled_rejects_non_permutation(self):
        with pytest.raises(ValueError):
            _tiny_graph().relabeled(np.array([0, 0, 1, 2]))

    def test_degree_multiset_invariant(self):
        g = _tiny_graph()
        r = g.relabeled(np.array([3, 2, 1, 0]))
        assert sorted(g.degrees.tolist()) == sorted(r.degrees.tolist())


def _relabeled_oracle(g: ProximityGraph, order) -> ProximityGraph:
    """``relabeled`` as a per-vertex list copied through ``from_adjacency``."""
    n = g.num_vertices
    order = np.asarray(order, dtype=np.int64)
    if sorted(order.tolist()) != list(range(n)):
        raise ValueError("order must be a permutation of all vertex IDs")
    new_id = np.empty(n, dtype=np.int64)
    new_id[order] = np.arange(n)
    adjacency = [new_id[g.neighbors(old)].astype(np.int32) for old in order]
    return ProximityGraph.from_adjacency(
        g.vectors[order], adjacency, metric=g.metric,
        entry_point=int(new_id[g.entry_point]),
    )


@st.composite
def graph_and_order(draw):
    """A graph with zero-degree vertices, self-loops and repeated edges,
    and a permutation of its vertices."""
    n = draw(st.integers(1, 20))
    vertex = st.integers(0, n - 1)
    adjacency = draw(
        st.lists(st.lists(vertex, max_size=6), min_size=n, max_size=n)
    )
    vectors = np.asarray(
        draw(st.lists(st.floats(-4, 4, width=32), min_size=2 * n,
                      max_size=2 * n)),
        dtype=np.float32,
    ).reshape(n, 2)
    graph = ProximityGraph.from_adjacency(
        vectors, adjacency,
        metric=draw(st.sampled_from(list(DistanceMetric))),
        entry_point=draw(vertex),
    )
    return graph, draw(st.permutations(range(n)))


class TestRelabelGather:
    @settings(max_examples=200, deadline=None)
    @given(case=graph_and_order())
    def test_matches_per_vertex_oracle(self, case):
        g, order = case
        got, want = g.relabeled(order), _relabeled_oracle(g, order)
        for name in ("vectors", "indptr", "indices"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype and a.shape == b.shape
            assert a.tobytes() == b.tobytes()
        assert got.metric == want.metric
        assert got.entry_point == want.entry_point
        assert type(got.entry_point) is int

    @pytest.mark.parametrize(
        "order",
        [[0, 1, 2], [0, 1, 2, 3, 4], [0, 1, 2, 2], [-1, 0, 1, 2],
         [0, 1, 2, 4], [[0, 1], [2, 3]], []],
        ids=["short", "long", "duplicate", "negative", "out-of-range",
             "2d", "empty"],
    )
    def test_non_permutations_are_refused_like_the_oracle(self, order):
        g = _tiny_graph()
        for relabel in (g.relabeled, lambda o: _relabeled_oracle(g, o)):
            with pytest.raises(ValueError, match="permutation"):
                relabel(order)


class TestUndirectedAndConnectivity:
    def test_undirected_symmetrises(self):
        g = _tiny_graph()
        u = g.undirected()
        for v in range(u.num_vertices):
            for w in u.neighbors(v):
                assert v in u.neighbors(int(w))

    def test_is_connected_true(self):
        assert _tiny_graph().is_connected()

    def test_is_connected_false(self):
        vectors = np.zeros((4, 2), dtype=np.float32)
        g = ProximityGraph.from_adjacency(vectors, [[1], [0], [3], [2]])
        assert not g.is_connected()


class TestLayoutAccounting:
    def test_padded_vs_csr_bytes(self):
        g = _tiny_graph()
        padded = g.padded_layout_bytes(max_neighbors=8)
        csr = g.csr_layout_bytes()
        # 4 vertices x (12B vector + 32B ids) vs CSR exact edges.
        assert padded == 4 * (12 + 32)
        assert csr == 4 * 12 + 6 * 4 + 5 * 8
        assert padded > csr - 5 * 8  # padding dominates sparse adjacency
