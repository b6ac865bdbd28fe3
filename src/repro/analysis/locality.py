"""Data-locality metrics from the motivation study (Figs. 4 and 14).

* :func:`page_access_ratio` — (number of page accesses) / (length of
  the searching trace).  High ratio = each page access returns few of
  the vertices the query needed = poor spatial locality.
* :func:`accessed_vector_fraction` — (bytes of requested feature
  vectors) / (bytes of page data fetched).  Low fraction = most of
  every fetched page is irrelevant.
* :func:`lun_coverage` — fraction of vertex-holding LUNs touched by a
  batch (Fig. 4b reports > 82% per batch of 2048, motivating LUN-level
  parallelism).
"""

from __future__ import annotations

import numpy as np

from repro.ann.trace import SearchTrace
from repro.core.placement import VertexPlacement
from repro.core.rounds import distinct

_NONE = np.zeros(0, dtype=np.int64)


def _page_accesses(
    traces: list[SearchTrace], placement: VertexPlacement, shared: bool
) -> np.ndarray:
    """Distinct pages sensed per (round, trace), summed per trace.

    With ``shared`` the traces of a batch pool each round's pages, and
    the one-element result is the batch total.
    """
    vertex = np.concatenate([_NONE, *(t.computed for t in traces)])
    rnd = np.concatenate([_NONE, *(t.rounds for t in traces)])
    owner = np.repeat(np.arange(len(traces)), [t.trace_length for t in traces])
    if shared:
        owner = np.zeros_like(owner)
    keys = placement.page_keys(vertex)
    key_span = int(keys.max(initial=0)) + 1
    n_rounds = int(rnd.max(initial=0)) + 1
    pages = distinct((owner * n_rounds + rnd) * key_span + keys)
    return np.bincount(
        pages // key_span // n_rounds, minlength=1 if shared else len(traces)
    )


def _walked(
    traces: list[SearchTrace], placement: VertexPlacement
) -> tuple[np.ndarray, np.ndarray]:
    """Trace lengths and page accesses of the traces that computed
    at least one vertex."""
    lengths = np.array([t.trace_length for t in traces], dtype=np.int64)
    walked = lengths > 0
    return lengths[walked], _page_accesses(traces, placement, False)[walked]


def page_access_ratio(
    traces: list[SearchTrace], placement: VertexPlacement
) -> float:
    """Mean (#accessed pages / trace length) over queries.

    Page accesses are counted per iteration (the page buffer holds one
    page; a page revisited in a later iteration is re-sensed, matching
    the paper's counting of accesses rather than distinct pages).
    """
    lengths, accesses = _walked(traces, placement)
    return float(np.mean(accesses / lengths)) if lengths.size else 0.0


def accessed_vector_fraction(
    traces: list[SearchTrace],
    placement: VertexPlacement,
    vector_bytes: int,
) -> float:
    """Mean (accessed vector bytes / fetched page bytes) over queries."""
    page_size = placement.geometry.page_size
    lengths, accesses = _walked(traces, placement)
    if not lengths.size:
        return 0.0
    return float(np.mean((lengths * vector_bytes) / (accesses * page_size)))


def lun_coverage(
    traces: list[SearchTrace], placement: VertexPlacement
) -> float:
    """Fraction of vertex-holding LUNs accessed by this batch."""
    holding = np.unique(placement.lun)
    if holding.size == 0:
        return 0.0
    vertex = np.concatenate([_NONE, *(t.computed for t in traces)])
    return distinct(placement.lun[vertex]).size / int(holding.size)


def batch_page_accesses(
    traces: list[SearchTrace],
    placement: VertexPlacement,
    shared: bool,
) -> int:
    """Total page senses for a batch, with or without cross-query
    sharing (the Fig. 15 normalised-page-access metric)."""
    return int(_page_accesses(traces, placement, shared).sum())
