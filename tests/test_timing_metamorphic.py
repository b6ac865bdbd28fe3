"""Metamorphic relations for the SearSSD timing model.

Each test prices two related inputs on one small fixed HNSW index and
checks how the answers must relate, with no reference numbers: the
model has to agree with itself.  A relation the model breaks today is
a strict xfail, so the model fix that mends it flips the test.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.ann import HNSWIndex, HNSWParams
from repro.core import NDSearch, NDSearchConfig, SchedulingFlags
from repro.data.synthetic import clustered_gaussian, split_queries

N_QUERIES = 32


@pytest.fixture(scope="module")
def index_and_traces():
    """A 1,500 x 16 HNSW (M=8) and the traces of 32 queries at ef=32."""
    vectors = clustered_gaussian(1500, 16, seed=5)
    queries = split_queries(vectors, N_QUERIES, seed=6)
    index = HNSWIndex(vectors, HNSWParams(M=8, ef_construction=32))
    _, _, traces = index.search_batch(queries, 10, ef=32)
    return index, traces


def _price(index_and_traces, config, drop=None):
    index, traces = index_and_traces
    system = NDSearch(index=index, config=config)
    if drop is not None:
        traces = traces[:drop] + traces[drop + 1:]
    return system.simulate_traces(traces)


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason=(
        "SearSSDModel._run_sub_batch (searssd.py:489-490) zeroes "
        "t_sched[1:] whenever flags.speculative is set, whatever was "
        "prefetched, so width 0 reads the same pages as speculation off "
        "but finishes sooner"
    ),
)
def test_speculative_width_zero_prices_as_speculation_off(index_and_traces):
    off = NDSearchConfig.scaled(
        dataclasses.replace(SchedulingFlags(), speculative=False)
    )
    width0 = dataclasses.replace(NDSearchConfig.scaled(), speculative_width=0)
    expected = _price(index_and_traces, off)
    got = _price(index_and_traces, width0)
    assert got.counters["speculative_page_reads"] == 0
    assert got.counters["page_reads"] == expected.counters["page_reads"]
    assert got.sim_time_s == pytest.approx(expected.sim_time_s)


@pytest.mark.parametrize(
    "flags", [SchedulingFlags.bare(), SchedulingFlags()], ids=["bare", "full"]
)
def test_dropping_a_query_never_lengthens_the_makespan(index_and_traces, flags):
    config = NDSearchConfig.scaled(flags)
    whole = _price(index_and_traces, config).sim_time_s
    longer = [
        drop for drop in range(N_QUERIES)
        if _price(index_and_traces, config, drop).sim_time_s > whole
    ]
    assert longer == []
