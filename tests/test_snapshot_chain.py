"""``chain_digest``: the chained hash snapshots keep over retired requests.

A snapshot hashes each retired request once and carries the running
chain forward, so the chain must not depend on how a history was split
across captures, and it must see every byte of every item folded in.
"""

from __future__ import annotations

import dataclasses

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.serving.request import CACHE_HIT, COMPLETED, SHED, Request
from repro.sim.snapshot import chain_digest

_times = st.one_of(st.none(), st.floats(0.0, 10.0))


@st.composite
def requests(draw, request_id: int = 0) -> Request:
    k = draw(st.integers(min_value=1, max_value=4))
    served = draw(st.booleans())
    ids = draw(st.lists(st.integers(-1, 1000), min_size=k, max_size=k))
    dists = draw(
        st.lists(st.floats(0.0, 100.0, width=32), min_size=k, max_size=k)
    )
    return Request(
        request_id=request_id,
        query_id=draw(st.integers(0, 127)),
        arrival_s=draw(st.floats(0.0, 10.0, allow_nan=False)),
        k=k,
        priority=draw(st.integers(0, 2)),
        deadline_s=draw(_times),
        batched_s=draw(_times),
        start_s=draw(_times),
        completion_s=draw(_times),
        outcome=draw(st.sampled_from((COMPLETED, CACHE_HIT, SHED))),
        result_ids=np.array(ids, dtype=np.int64) if served else None,
        result_dists=np.array(dists, dtype=np.float32) if served else None,
    )


@st.composite
def histories(draw) -> list[Request]:
    size = draw(st.integers(min_value=1, max_value=8))
    return [draw(requests(request_id=i)) for i in range(size)]


@given(histories(), st.data())
@settings(max_examples=60, deadline=None)
def test_any_split_folds_to_the_same_chain(history, data):
    whole = chain_digest("", history)
    cuts = sorted(
        data.draw(
            st.lists(st.integers(0, len(history)), max_size=len(history))
        )
    )
    chain, start = "", 0
    for cut in [*cuts, len(history)]:
        chain = chain_digest(chain, history[start:cut])
        start = cut
    assert chain == whole


def _changed(value):
    """A value unequal to ``value`` (an unset field gets an array)."""
    if value is None:
        return np.zeros(1, dtype=np.int64)
    if isinstance(value, str):
        return value + "!"
    return value + 1


@given(histories(), st.data())
@settings(max_examples=60, deadline=None)
def test_any_changed_field_or_byte_changes_the_chain(history, data):
    before = chain_digest("", history)
    victim = history[data.draw(st.integers(0, len(history) - 1))]
    name = data.draw(
        st.sampled_from([f.name for f in dataclasses.fields(Request)])
    )
    value = getattr(victim, name)
    if isinstance(value, np.ndarray):
        raw = value.view(np.uint8)
        raw[data.draw(st.integers(0, raw.size - 1))] ^= 0xFF
    else:
        setattr(victim, name, _changed(value))
    assert chain_digest("", history) != before


def test_empty_fold_is_the_identity():
    assert chain_digest("", []) == ""
    link = chain_digest("", [Request(0, 1, 0.0, outcome=SHED)])
    assert chain_digest(link, []) == link
    assert len(link) == 64
