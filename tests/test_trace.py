"""Unit tests for search traces and remapping."""

import copy
import pickle

import numpy as np
import pytest

from repro.ann.trace import (
    IterationRecord,
    SearchTrace,
    TraceRecorder,
    remap_trace,
)
from repro.workloads import TraceSet


def _sample_trace():
    return SearchTrace.from_iterations(
        [
            IterationRecord(entry=0, computed=(1, 2)),
            IterationRecord(entry=1, computed=(3,)),
            IterationRecord(entry=3, computed=()),
        ],
        query_id=3,
        result_ids=np.array([1, 3]),
        result_distances=np.array([0.1, 0.4]),
    )


class TestSearchTrace:
    def test_trace_length_counts_computed(self):
        assert _sample_trace().trace_length == 3

    def test_num_iterations(self):
        assert _sample_trace().num_iterations == 3

    def test_visited_order(self):
        assert _sample_trace().visited_vertices.tolist() == [1, 2, 3]

    def test_entries(self):
        assert _sample_trace().entries.tolist() == [0, 1, 3]

    def test_columns(self):
        trace = _sample_trace()
        assert trace.offsets.tolist() == [0, 2, 3, 3]
        assert trace.computed.tolist() == [1, 2, 3]
        assert trace.sizes.tolist() == [2, 1, 0]
        assert trace.rounds.tolist() == [0, 0, 1]
        for column in (trace.entries, trace.offsets, trace.computed):
            assert column.dtype == np.int64

    def test_iterations_view_round_trips(self):
        trace = _sample_trace()
        again = SearchTrace.from_iterations(trace.iterations)
        assert again.iterations == trace.iterations
        assert trace.iterations[2] == IterationRecord(entry=3, computed=())

    def test_empty_trace(self):
        trace = SearchTrace(query_id=5)
        assert trace.num_iterations == 0
        assert trace.trace_length == 0
        assert trace.offsets.tolist() == [0]
        assert trace.iterations == ()

    def test_inconsistent_offsets_rejected(self):
        with pytest.raises(ValueError, match="offsets"):
            SearchTrace(entries=[0, 1], offsets=[0, 2], computed=[4, 5])
        with pytest.raises(ValueError, match="offsets"):
            SearchTrace(entries=[0], offsets=[0, 3], computed=[4, 5])


class TestImmutability:
    """Batches share traces by identity, so no column may change."""

    @pytest.mark.parametrize("column", ("entries", "offsets", "computed"))
    def test_column_writes_raise(self, column):
        trace = _sample_trace()
        with pytest.raises(ValueError, match="read-only"):
            getattr(trace, column)[0] = 99

    def test_columns_cannot_be_rebound(self):
        trace = _sample_trace()
        with pytest.raises(AttributeError):
            trace.computed = np.zeros(3, dtype=np.int64)

    def test_caller_array_stays_writable(self):
        computed = np.array([1, 2, 3], dtype=np.int64)
        trace = SearchTrace(entries=[0], offsets=[0, 3], computed=computed)
        computed[0] = 7
        assert computed.flags.writeable
        assert not trace.computed.flags.writeable

    def test_recorded_columns_are_read_only(self):
        rec = TraceRecorder()
        buffer = np.array([4, 5])
        rec.record_iteration(0, buffer)
        buffer[0] = 9  # the recorder copied the caller's buffer
        trace = rec.finish()
        assert trace.computed.tolist() == [4, 5]
        with pytest.raises(ValueError, match="read-only"):
            trace.computed[0] = 1

    def test_remapped_columns_are_read_only(self):
        out = remap_trace(_sample_trace(), np.arange(4))
        for column in (out.entries, out.offsets, out.computed):
            with pytest.raises(ValueError, match="read-only"):
                column[0] = 1

    @pytest.mark.parametrize("clone_of", (
        copy.deepcopy, lambda t: pickle.loads(pickle.dumps(t)),
    ), ids=("deepcopy", "pickle"))
    def test_copies_are_read_only(self, clone_of):
        trace = _sample_trace()
        clone = clone_of(trace)
        assert clone.iterations == trace.iterations
        assert clone.result_ids.tolist() == [1, 3]
        for column in (clone.entries, clone.offsets, clone.computed):
            with pytest.raises(ValueError, match="read-only"):
                column[0] = 1

    def test_trace_set_round_trip(self, tmp_path):
        traces = [
            _sample_trace(),
            SearchTrace(query_id=1),
            SearchTrace.from_iterations(
                [IterationRecord(entry=2, computed=()),
                 IterationRecord(entry=4, computed=(5, 6, 7))]
            ),
        ]
        ids = np.array([[1, 3], [-1, -1], [5, -1]])
        dists = np.array([[0.1, 0.4], [np.inf, np.inf], [0.2, np.inf]])
        path = tmp_path / "round_trip.npz"
        TraceSet(traces=traces, result_ids=ids, result_dists=dists).save(path)
        loaded = TraceSet.load(path)
        for a, b in zip(traces, loaded.traces):
            for column in ("entries", "offsets", "computed"):
                assert np.array_equal(getattr(a, column), getattr(b, column))
                with pytest.raises(ValueError, match="read-only"):
                    getattr(b, column)[:1] = 0
            assert a.iterations == b.iterations


class TestTraceRecorder:
    def test_records_iterations_and_result(self):
        rec = TraceRecorder(query_id=7)
        rec.record_iteration(0, [4, 5])
        rec.record_iteration(4, np.array([6]))
        rec.record_result(np.array([4]), np.array([0.5]))
        trace = rec.finish()
        assert trace.query_id == 7
        assert trace.trace_length == 3
        assert trace.iterations[1].computed == (6,)
        assert trace.result_ids.tolist() == [4]


class TestRemap:
    def test_remap_rewrites_all_ids(self):
        trace = _sample_trace()
        new_id = np.array([10, 11, 12, 13])
        out = remap_trace(trace, new_id)
        assert out.iterations[0].entry == 10
        assert out.iterations[0].computed == (11, 12)
        assert out.result_ids.tolist() == [11, 13]

    def test_remap_preserves_structure(self):
        trace = _sample_trace()
        out = remap_trace(trace, np.arange(4))
        assert out.num_iterations == trace.num_iterations
        assert out.trace_length == trace.trace_length

    def test_remap_without_result(self):
        trace = SearchTrace.from_iterations(
            [IterationRecord(entry=1, computed=(0,))]
        )
        out = remap_trace(trace, np.array([5, 6]))
        assert out.result_ids is None
        assert out.iterations[0].entry == 6

    def test_remap_keeps_result_padding(self):
        # Indexes pad short result rows with -1; indexing the map with
        # -1 would turn the padding into the last vertex's new ID.
        trace = SearchTrace(result_ids=np.array([2, 1, -1]),
                            result_distances=np.array([0.1, 0.2, np.inf]))
        out = remap_trace(trace, np.array([3, 2, 1, 0]))
        assert out.result_ids.tolist() == [1, 2, -1]
        assert out.result_distances is trace.result_distances
