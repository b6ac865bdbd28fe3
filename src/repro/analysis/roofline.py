"""Roofline analysis (paper Fig. 2b).

The paper locates the ANNS workloads in the bandwidth-bound region of
a roofline with two ceilings: the host PCIe link (15.4 GB/s) and the
SSD-internal aggregate page-buffer bandwidth (819.2 GB/s when all 256
LUNs stream simultaneously).  NDSearch "lifts" the workload from the
PCIe ceiling to the internal ceiling — that ratio bounds the
achievable speedup, and the measured speedups sit below it.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.config import NDSearchConfig


@dataclass(frozen=True)
class RooflinePoint:
    """One workload's position on the roofline."""

    label: str
    operational_intensity: float
    """FLOPs per byte moved from storage."""

    attainable_pcie_gflops: float
    attainable_internal_gflops: float

    @property
    def lift(self) -> float:
        """Ceiling ratio: the headroom NDSearch unlocks."""
        if self.attainable_pcie_gflops <= 0:
            return 0.0
        return self.attainable_internal_gflops / self.attainable_pcie_gflops


def operational_intensity(dim: int, vector_bytes: int, page_bytes: int) -> float:
    """FLOPs per byte for the distance kernel on paged storage.

    One distance costs ~3*dim FLOPs; serving it from storage moves a
    whole page (the access granularity), of which one vector is used.
    """
    if page_bytes <= 0:
        raise ValueError("page_bytes must be positive")
    return (3.0 * dim) / page_bytes


def roofline_model(
    config: NDSearchConfig,
    dim: int,
    label: str = "anns",
    compute_peak_gflops: float = 1000.0,
) -> RooflinePoint:
    """Place a workload on the two-ceiling roofline."""
    vector_bytes = dim * 4
    oi = operational_intensity(dim, vector_bytes, config.geometry.page_size)
    pcie_bw = config.timing.pcie_host_bw
    internal_bw = config.internal_bandwidth
    return RooflinePoint(
        label=label,
        operational_intensity=oi,
        attainable_pcie_gflops=min(compute_peak_gflops, oi * pcie_bw / 1e9),
        attainable_internal_gflops=min(compute_peak_gflops, oi * internal_bw / 1e9),
    )
