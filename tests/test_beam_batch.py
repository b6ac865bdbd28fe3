"""The lockstep batch kernel against the scalar oracle.

:func:`beam_search_batch` must return, for every row of a batch, exactly
what the original scalar loop (``beam_oracle._scalar_oracle``) returns
for that query alone: the same ``(distance, id)`` list (distance bytes
included) and the same trace columns.  Hypothesis draws the awkward
graphs: zero-degree vertices, duplicate neighbor IDs, self-loops,
duplicate entry points, more entries than ``ef``, ``ef`` from 1 past
``n``, tie-heavy integer coordinates, all three metrics, float32 and
float64 queries, groups from one query to more than one chunk, and
``max_iterations``.

The second half pins batch-composition independence at the index level
(batches span several chunks): a row searched alone, at any position, or
in any batch gives the same output.  ``PlatformBackend.search_batch``'s
per-query memo relies on it.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.ann import (
    DiskANNIndex,
    DiskANNParams,
    HCNNGIndex,
    HCNNGParams,
    HNSWIndex,
    HNSWParams,
)
from repro.ann.distance import DistanceMetric
from repro.ann.search import CHUNK_QUERIES, FrozenAdjacency, beam_search_batch
from repro.ann.trace import TraceRecorder

from beam_oracle import _scalar_oracle, beam_case


def _scalar(case):
    """Each row through the scalar oracle: results and trace columns."""
    lists = case["lists"]
    out = []
    for query, entries in zip(case["queries"], case["entries"]):
        recorder = TraceRecorder()
        results = _scalar_oracle(
            case["vectors"],
            lambda v: np.asarray(lists[v], dtype=np.int64),
            query,
            entries,
            case["ef"],
            case["metric"],
            recorder=recorder,
            max_iterations=case["max_iterations"],
        )
        trace = recorder.finish()
        out.append((results, (trace.entries, trace.offsets, trace.computed)))
    return out


def _batch(case, rows=None, record=True):
    rows = range(len(case["entries"])) if rows is None else rows
    adjacency = FrozenAdjacency.from_lists(case["vectors"].shape[0], case["lists"])
    results, columns = beam_search_batch(
        case["vectors"],
        adjacency,
        case["queries"][list(rows)],
        [case["entries"][i] for i in rows],
        case["ef"],
        case["metric"],
        record=record,
        max_iterations=case["max_iterations"],
    )
    return results, columns


def _assert_same_results(got, want):
    assert [v for _, v in got] == [v for _, v in want]
    assert (
        np.array([d for d, _ in got]).tobytes()
        == np.array([d for d, _ in want]).tobytes()
    )


def _assert_same_columns(got, want):
    for a, b in zip(got, want, strict=True):
        assert a.dtype == b.dtype == np.int64
        assert a.tobytes() == b.tobytes()


@given(beam_case())
@settings(max_examples=150, deadline=None)
def test_batch_kernel_matches_scalar_oracle(case):
    results, columns = _batch(case)
    oracle = _scalar(case)
    assert len(results) == len(columns) == len(oracle)
    for got, got_columns, (want, want_columns) in zip(results, columns, oracle):
        _assert_same_results(got, want)
        _assert_same_columns(got_columns, want_columns)
    unrecorded, none = _batch(case, record=False)
    assert none is None
    for got, want in zip(unrecorded, results):
        _assert_same_results(got, want)


@given(beam_case(), st.data())
@settings(max_examples=60, deadline=None)
def test_batch_kernel_rows_independent_of_batch(case, data):
    results, columns = _batch(case)
    rows = data.draw(st.permutations(range(len(results))))
    shuffled, shuffled_columns = _batch(case, rows)
    for j, i in enumerate(rows):
        _assert_same_results(shuffled[j], results[i])
        _assert_same_columns(shuffled_columns[j], columns[i])
    alone, alone_columns = _batch(case, [rows[0]])
    _assert_same_results(alone[0], results[rows[0]])
    _assert_same_columns(alone_columns[0], columns[rows[0]])


def test_batch_kernel_validates_arguments():
    vectors = np.zeros((3, 2), dtype=np.float32)
    adjacency = FrozenAdjacency.from_lists(3, [[1], [2], []])
    queries = np.zeros((1, 2), dtype=np.float32)
    euclidean = DistanceMetric.EUCLIDEAN
    with pytest.raises(ValueError, match="ef"):
        beam_search_batch(vectors, adjacency, queries, [[0]], 0, euclidean)
    with pytest.raises(ValueError, match="entry point"):
        beam_search_batch(vectors, adjacency, queries, [[]], 2, euclidean)
    with pytest.raises(ValueError, match="one entry list per query"):
        beam_search_batch(vectors, adjacency, queries, [[0], [1]], 2, euclidean)


class TestFrozenAdjacency:
    def test_rows_keep_list_order_and_pad_with_sentinel(self):
        lists = [[3, 1, 3], [], [0], [2, 2]]
        adjacency = FrozenAdjacency.from_lists(4, lists)
        assert adjacency.lists() == dict(enumerate(lists))
        assert adjacency.table.tolist() == [
            [3, 1, 3], [4, 4, 4], [0, 4, 4], [2, 2, 4],
        ]
        assert adjacency.rows(np.array([3, 0])).tolist() == [[2, 2, 4], [3, 1, 3]]
        assert adjacency.row(2).tolist() == [0, 4, 4]
        assert not adjacency.table.flags.writeable

    def test_compact_table_reads_missing_vertices_as_empty(self):
        adjacency = FrozenAdjacency(
            np.array([[7, 9], [2, 10], [10, 10]]), 10, np.array([3, 7])
        )
        assert adjacency.vertex_ids.tolist() == [3, 7]
        assert adjacency.rows(np.array([7, 5, 3, 11])).tolist() == [
            [2, 10], [10, 10], [7, 9], [10, 10],
        ]
        assert adjacency.row(7).tolist() == [2, 10]
        assert adjacency.row(0).tolist() == [10, 10]
        assert adjacency.lists() == {3: [7, 9], 7: [2]}


# ---- batch-composition independence of the indexes -------------------------

def _corpus(seed: int = 7):
    rng = np.random.default_rng(seed)
    centers = rng.normal(size=(5, 12))
    assign = rng.integers(0, 5, size=240)
    vectors = (centers[assign] + 0.3 * rng.normal(size=(240, 12))).astype(
        np.float32
    )
    queries = (
        vectors[rng.integers(0, 240, size=2 * CHUNK_QUERIES + 6)]
        + 0.05 * rng.normal(size=(2 * CHUNK_QUERIES + 6, 12))
    ).astype(np.float32)
    return vectors, queries


INDEXES = {
    "hnsw": lambda v, m: HNSWIndex(v, HNSWParams(M=5, ef_construction=20), m),
    "diskann": lambda v, m: DiskANNIndex(v, DiskANNParams(R=8, L=16), m),
    "hcnng": lambda v, m: HCNNGIndex(v, HCNNGParams(num_clusterings=3), m),
}


def _row(out, i):
    ids, dists, traces = out
    t = traces[i]
    return (
        ids[i].tobytes(),
        dists[i].tobytes(),
        t.entries.tobytes(),
        t.offsets.tobytes(),
        t.computed.tobytes(),
        t.result_ids.tobytes(),
        t.result_distances.tobytes(),
    )


@pytest.mark.parametrize(
    "metric", [DistanceMetric.EUCLIDEAN, DistanceMetric.ANGULAR],
    ids=lambda m: m.value,
)
@pytest.mark.parametrize("name", sorted(INDEXES))
def test_index_rows_independent_of_batch_composition(name, metric):
    vectors, queries = _corpus()
    index = INDEXES[name](vectors, metric)
    full = index.search_batch(queries, 5, ef=16)
    perm = np.random.default_rng(3).permutation(queries.shape[0])
    shuffled = index.search_batch(queries[perm], 5, ef=16)
    for j, i in enumerate(perm):
        assert _row(shuffled, j) == _row(full, i)
    for i in (0, 5, queries.shape[0] - 1):
        alone = index.search_batch(queries[i : i + 1], 5, ef=16)
        assert _row(alone, 0) == _row(full, i)
        assert alone[2][0].query_id == 0
        recorder = TraceRecorder()
        ids, dists = index.search(queries[i], 5, ef=16, recorder=recorder)
        trace = recorder.finish()
        assert ids.tobytes() == full[2][i].result_ids.tobytes()
        assert dists.tobytes() == full[2][i].result_distances.tobytes()
        assert trace.computed.tobytes() == full[2][i].computed.tobytes()
        assert trace.offsets.tobytes() == full[2][i].offsets.tobytes()
