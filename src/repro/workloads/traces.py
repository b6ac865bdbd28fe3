"""Persistent trace sets: the unit of exchange between the functional
search layer and the trace-driven simulators.

The paper's methodology (Section VII-A) generates memory traces once —
by instrumenting the search code — and feeds them to the simulator.
:class:`TraceSet` is that artifact: a batch of per-query
:class:`~repro.ann.trace.SearchTrace` objects with the search results,
serialisable to a single ``.npz`` so expensive graph construction and
trace generation run once per (dataset, algorithm) and every
experiment replays from cache.

The file holds the traces' columns concatenated: ``entries`` and
``computed``, with ``iter_offsets`` (each trace's first iteration) and
``computed_offsets`` (each iteration's first computed vertex) as
boundaries.  Saving concatenates each trace's columns; loading slices
them back out, with no per-iteration objects either way.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.ann.trace import SearchTrace


def zipf_weights(pool_size: int, exponent: float = 1.0) -> np.ndarray:
    """Normalised Zipf popularity weights over ``pool_size`` ranks.

    Rank ``r`` (1-based) gets probability proportional to ``r**-exponent``.
    ``exponent=0`` degenerates to uniform; production query logs typically
    sit around 0.7-1.2 (a small head of queries dominates traffic).
    """
    if pool_size < 1:
        raise ValueError("pool_size must be >= 1")
    if exponent < 0:
        raise ValueError("exponent must be >= 0")
    ranks = np.arange(1, pool_size + 1, dtype=np.float64)
    weights = ranks**-exponent
    return weights / weights.sum()


@dataclass
class ZipfianSampler:
    """Skewed query-popularity sampler over a finite query pool.

    Models the popularity skew of real serving traffic: queries are
    drawn from a pool of ``pool_size`` distinct queries with Zipfian
    rank-frequency weights.  By default the popularity ranking is
    shuffled (seeded) so that "hot" queries are scattered across the
    pool rather than being the lowest indices — pool index and
    popularity rank stay independent, as in real query logs.

    Deterministic: the same ``(pool_size, exponent, seed)`` and call
    sequence reproduce the same query IDs.
    """

    pool_size: int
    exponent: float = 1.0
    seed: int = 0
    shuffle: bool = True

    _rng: np.random.Generator = field(init=False, repr=False)
    _weights: np.ndarray = field(init=False, repr=False)
    _ids: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self._rng = np.random.default_rng(self.seed)
        self._weights = zipf_weights(self.pool_size, self.exponent)
        self._ids = np.arange(self.pool_size, dtype=np.int64)
        if self.shuffle:
            self._ids = self._rng.permutation(self._ids)

    def sample(self, size: int) -> np.ndarray:
        """Draw ``size`` query IDs (int64 indices into the pool)."""
        if size < 0:
            raise ValueError("size must be >= 0")
        return self._rng.choice(self._ids, size=size, p=self._weights)

    def expected_hit_rate(self, cache_entries: int) -> float:
        """Popularity mass of the ``cache_entries`` hottest queries —
        an upper bound on the steady-state hit rate of a cache that
        holds that many entries."""
        if cache_entries <= 0:
            return 0.0
        return float(self._weights[: min(cache_entries, self.pool_size)].sum())


@dataclass
class TraceSet:
    """A batch of search traces plus the search outputs."""

    traces: list[SearchTrace]
    result_ids: np.ndarray
    result_dists: np.ndarray

    def __len__(self) -> int:
        return len(self.traces)

    def subset(self, batch_size: int) -> "TraceSet":
        """The first ``batch_size`` queries (prefix slicing keeps all
        experiments on identical query populations)."""
        if batch_size > len(self.traces):
            raise ValueError(
                f"requested batch {batch_size} exceeds pool of {len(self.traces)}"
            )
        return TraceSet(
            traces=self.traces[:batch_size],
            result_ids=self.result_ids[:batch_size],
            result_dists=self.result_dists[:batch_size],
        )

    # ---- statistics -----------------------------------------------------
    def mean_trace_length(self) -> float:
        return float(np.mean([t.trace_length for t in self.traces]))

    def mean_iterations(self) -> float:
        return float(np.mean([t.num_iterations for t in self.traces]))

    # ---- persistence ------------------------------------------------------
    def save(self, path: str | Path) -> None:
        """Write every trace's columns, concatenated, to one ``.npz``."""
        traces = self.traces
        empty = np.zeros(0, dtype=np.int64)
        # Each trace's offsets restart at 0: shift them onto the
        # concatenated ``computed`` and keep one leading 0 overall.
        bases = np.cumsum([0] + [t.trace_length for t in traces]).tolist()
        np.savez_compressed(
            Path(path),
            entries=np.concatenate([empty] + [t.entries for t in traces]),
            iter_offsets=np.cumsum(
                [0] + [t.num_iterations for t in traces], dtype=np.int64
            ),
            computed=np.concatenate([empty] + [t.computed for t in traces]),
            computed_offsets=np.concatenate(
                [np.zeros(1, dtype=np.int64)]
                + [t.offsets[1:] + b for t, b in zip(traces, bases)]
            ),
            result_ids=self.result_ids,
            result_dists=self.result_dists,
        )

    @classmethod
    def load(cls, path: str | Path) -> "TraceSet":
        """Slice each trace's columns out of the concatenated arrays."""
        with np.load(Path(path)) as data:
            entries = data["entries"]
            iter_offsets = data["iter_offsets"].tolist()
            computed = data["computed"]
            computed_offsets = data["computed_offsets"]
            result_ids = data["result_ids"]
            result_dists = data["result_dists"]
        traces: list[SearchTrace] = []
        for q, (lo, hi) in enumerate(zip(iter_offsets, iter_offsets[1:])):
            offsets = computed_offsets[lo:hi + 1]
            start = int(offsets[0])
            traces.append(SearchTrace(
                query_id=q,
                entries=entries[lo:hi],
                offsets=offsets - start,
                computed=computed[start:int(offsets[-1])],
                result_ids=result_ids[q],
                result_distances=result_dists[q],
            ))
        return cls(traces=traces, result_ids=result_ids, result_dists=result_dists)

    @classmethod
    def from_search(
        cls, ids: np.ndarray, dists: np.ndarray, traces: list[SearchTrace]
    ) -> "TraceSet":
        return cls(traces=traces, result_ids=ids, result_dists=dists)
