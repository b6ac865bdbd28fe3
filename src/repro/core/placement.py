"""Vertex-to-flash mapping (paper Section VI-A2, Fig. 11).

After reordering, vertices are written to NAND pages.  Two schemes are
modelled:

* ``interleaved`` — the conventional SSD allocation: consecutive pages
  stripe round-robin across LUNs, cycling planes once per full LUN
  sweep.  This spreads load but leaves the two planes of a LUN holding
  *unrelated* vertex ranges at any given page number, so multi-plane
  reads almost never align.
* ``multiplane`` — the paper's mapping: fill page *i* of plane *j* in
  LUN *m*, then the same page *i* in plane *j+1* of the same LUN, then
  move to the next LUN, and only then advance the page number.
  Adjacent (post-reordering, i.e. topologically close) vertices land on
  the same page number of sibling planes, satisfying the ONFI
  multi-plane restrictions, so one multi-plane command fetches both.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.flash.geometry import PhysicalAddress, SSDGeometry


@dataclass
class VertexPlacement:
    """Physical location of every vertex's feature-vector slice.

    Arrays are indexed by (post-reordering) vertex ID.  ``block`` is the
    *logical* block within the plane (the FTL / LUNCSR BLK array tracks
    the physical block).
    """

    geometry: SSDGeometry
    vectors_per_page: int
    lun: np.ndarray
    plane: np.ndarray
    block: np.ndarray
    page: np.ndarray
    slot: np.ndarray
    scheme: str

    @property
    def num_vertices(self) -> int:
        return self.lun.shape[0]

    def address_of(self, vertex: int, vector_bytes: int) -> PhysicalAddress:
        """Full physical address of a vertex's vector."""
        return PhysicalAddress(
            lun=int(self.lun[vertex]),
            plane=int(self.plane[vertex]),
            block=int(self.block[vertex]),
            page=int(self.page[vertex]),
            byte=int(self.slot[vertex]) * vector_bytes,
        )

    def page_key(self, vertex: int) -> tuple[int, int, int, int]:
        """Hashable identity of the page holding ``vertex``."""
        return (
            int(self.lun[vertex]),
            int(self.plane[vertex]),
            int(self.block[vertex]),
            int(self.page[vertex]),
        )

    def page_keys(self, vertices: np.ndarray) -> np.ndarray:
        """Vectorised page identity: one int64 key per vertex."""
        g = self.geometry
        return (
            (
                (self.lun[vertices].astype(np.int64) * g.planes_per_lun
                 + self.plane[vertices])
                * g.blocks_per_plane
                + self.block[vertices]
            )
            * g.pages_per_block
            + self.page[vertices]
        )

    def occupancy_by_lun(self) -> np.ndarray:
        """Vertex count per LUN (used by locality statistics)."""
        return np.bincount(self.lun, minlength=self.geometry.total_luns)


def map_vertices(
    num_vertices: int,
    geometry: SSDGeometry,
    vector_bytes: int,
    scheme: str = "multiplane",
) -> VertexPlacement:
    """Assign vertices (in their current ID order) to flash pages.

    Parameters
    ----------
    num_vertices:
        Number of vertices; IDs 0..n-1 are mapped in order, so callers
        apply reordering by relabeling the graph *before* mapping.
    vector_bytes:
        Bytes per feature-vector slice (vector + per-vertex metadata).
    scheme:
        ``"multiplane"`` (paper Fig. 11) or ``"interleaved"``.
    """
    if scheme not in ("multiplane", "interleaved"):
        raise ValueError(f"unknown mapping scheme {scheme!r}")
    if vector_bytes <= 0:
        raise ValueError("vector_bytes must be positive")
    vpp = geometry.page_size // vector_bytes
    if vpp < 1:
        raise ValueError(
            f"vector ({vector_bytes} B) does not fit a page "
            f"({geometry.page_size} B)"
        )
    n_pages_needed = -(-num_vertices // vpp)
    total_pages = geometry.total_planes * geometry.pages_per_plane
    if n_pages_needed > total_pages:
        raise ValueError(
            f"dataset needs {n_pages_needed} pages but device has {total_pages}"
        )

    n_luns = geometry.total_luns
    n_planes = geometry.planes_per_lun

    # Enumerate page *slots* in fill order, producing for the k-th page
    # written its (lun, plane, plane_page) coordinates.
    slots = np.arange(n_pages_needed, dtype=np.int64)
    if scheme == "multiplane":
        # Fill order: plane fastest, then LUN, then page number.
        plane_idx = slots % n_planes
        lun_idx = (slots // n_planes) % n_luns
        page_idx = slots // (n_planes * n_luns)
    else:
        # Conventional striping: LUN fastest, plane cycles once per
        # LUN sweep, page number advances once per (LUN x plane) cycle.
        lun_idx = slots % n_luns
        plane_idx = (slots // n_luns) % n_planes
        page_idx = slots // (n_luns * n_planes)

    if page_idx.size and page_idx.max() >= geometry.pages_per_plane:
        raise ValueError("mapping overflows plane capacity")

    vertex_ids = np.arange(num_vertices, dtype=np.int64)
    page_of_vertex = vertex_ids // vpp
    slot_in_page = vertex_ids % vpp

    plane_page = page_idx[page_of_vertex]
    return VertexPlacement(
        geometry=geometry,
        vectors_per_page=vpp,
        lun=lun_idx[page_of_vertex].astype(np.int32),
        plane=plane_idx[page_of_vertex].astype(np.int32),
        block=(plane_page // geometry.pages_per_block).astype(np.int32),
        page=(plane_page % geometry.pages_per_block).astype(np.int32),
        slot=slot_in_page.astype(np.int32),
        scheme=scheme,
    )
