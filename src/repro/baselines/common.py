"""Shared helpers for the baseline platform models."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.ann.trace import SearchTrace


@dataclass(frozen=True)
class WorkloadStats:
    """Aggregate trace statistics every baseline consumes."""

    batch_size: int
    total_accesses: int
    """Computed (query, vertex) pairs across the batch."""

    total_iterations: int
    max_iterations: int
    mean_trace_length: float

    @classmethod
    def from_traces(cls, traces: list[SearchTrace]) -> "WorkloadStats":
        if not traces:
            return cls(0, 0, 0, 0, 0.0)
        lengths = [t.trace_length for t in traces]
        iters = [t.num_iterations for t in traces]
        return cls(
            batch_size=len(traces),
            total_accesses=int(sum(lengths)),
            total_iterations=int(sum(iters)),
            max_iterations=int(max(iters)),
            mean_trace_length=float(np.mean(lengths)),
        )


def cache_hit_count(
    traces: list[SearchTrace], cached_vertices: np.ndarray | None
) -> int:
    """Accesses served by a host/DRAM cache of hot vertices."""
    if cached_vertices is None or len(cached_vertices) == 0 or not traces:
        return 0
    computed = np.concatenate([t.computed for t in traces])
    return int(np.isin(computed, cached_vertices).sum())


@dataclass(frozen=True)
class DatasetProfile:
    """What a baseline needs to know about the stored dataset."""

    name: str
    num_vectors: int
    dim: int
    vector_bytes: int
    footprint_bytes: int
    """Vectors + adjacency, the working set that must be resident."""

    def fits_in(self, capacity_bytes: int) -> bool:
        return self.footprint_bytes <= capacity_bytes
