"""The lean scalar kernel against the scalar oracle.

:func:`greedy_beam_search` reads padded rows (sentinel ``n``), converts
each hop's distances with one ``.tolist()``, and drops the neighbors no
full beam can take before its heap loop.  None of that may change its
output: for every drawn graph it must return exactly what the original
loop (``beam_oracle._scalar_oracle``) returns over the unpadded lists,
distance bytes included, and record the same trace.  The cases add to
``beam_case``'s graphs (zero-degree vertices, duplicate neighbors,
self-loops, tie-heavy coordinates, ``ef`` from 1 to ``n + 2``, all three
metrics, ``max_iterations``) extra padding columns and TOGG's guided
``neighbor_filter``; neither the filter nor the recorder may ever see
the sentinel.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.ann.search import FrozenAdjacency, greedy_beam_search
from repro.ann.trace import TraceRecorder

from beam_oracle import _scalar_oracle, beam_case


def _half_space_filter(vectors, query, seen):
    """TOGG's stage-1 filter (keep the neighbors toward the query, and
    all of them rather than none), logging every ID it is handed."""

    def neighbor_filter(current, neighbor_ids):
        seen.append(np.array(neighbor_ids))
        offsets = vectors[neighbor_ids] - vectors[current]
        keep = offsets @ (query - vectors[current]) > 0.0
        return neighbor_ids[keep] if keep.any() else neighbor_ids

    return neighbor_filter


def _run(kernel, case, neighbors_of, query, entries, filtered):
    seen: list[np.ndarray] = []
    recorder = TraceRecorder()
    results = kernel(
        case["vectors"],
        neighbors_of,
        query,
        entries,
        case["ef"],
        case["metric"],
        recorder=recorder,
        neighbor_filter=(
            _half_space_filter(case["vectors"], query, seen) if filtered else None
        ),
        max_iterations=case["max_iterations"],
    )
    return results, recorder.finish(), seen


@given(beam_case(batches=(1, 3)), st.integers(0, 2), st.booleans())
@settings(max_examples=200, deadline=None)
def test_lean_kernel_matches_scalar_oracle(case, extra_pad, filtered):
    n = case["vectors"].shape[0]
    lists = case["lists"]
    table = FrozenAdjacency.from_lists(n, lists).table
    padded = np.concatenate(
        [table, np.full((n, extra_pad), n, dtype=np.int64)], axis=1
    )
    for query, entries in zip(case["queries"], case["entries"]):
        got, got_trace, got_seen = _run(
            greedy_beam_search, case, padded.__getitem__, query, entries, filtered
        )
        want, want_trace, want_seen = _run(
            _scalar_oracle,
            case,
            lambda v: np.asarray(lists[v], dtype=np.int64),
            query,
            entries,
            filtered,
        )
        assert [v for _, v in got] == [v for _, v in want]
        assert (
            np.array([d for d, _ in got]).tobytes()
            == np.array([d for d, _ in want]).tobytes()
        )
        for column in ("entries", "offsets", "computed"):
            assert (
                getattr(got_trace, column).tobytes()
                == getattr(want_trace, column).tobytes()
            )
        assert (got_trace.computed < n).all()
        assert len(got_seen) == len(want_seen)
        for a, b in zip(got_seen, want_seen):
            assert a.tobytes() == b.tobytes()
            assert (a < n).all()


def test_lean_kernel_validates_arguments():
    vectors = np.zeros((3, 2), dtype=np.float32)
    rows = np.array([[1, 3], [2, 3], [3, 3]]).__getitem__
    query = np.zeros(2, dtype=np.float32)
    with pytest.raises(ValueError, match="ef"):
        greedy_beam_search(vectors, rows, query, [0], 0, None)
    with pytest.raises(ValueError, match="entry point"):
        greedy_beam_search(vectors, rows, query, [], 2, None)
