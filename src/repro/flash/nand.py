"""Functional NAND array model: planes, LUNs, chips and page buffers.

This is the *functional* layer of the flash substrate: it actually
stores bytes, tracks which page each plane's page buffer currently
holds, and honours the multi-plane addressing restrictions when asked
to perform multi-plane reads.  The timing layer (platform models) books
latencies separately using :class:`repro.flash.timing.FlashTiming`; the
functional layer is what the unit and property tests exercise to show
that data written is data read, across refreshes and corruption.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.flash.commands import validate_multi_plane_group
from repro.flash.geometry import PhysicalAddress, SSDGeometry


@dataclass
class Plane:
    """One plane: a block array plus a single page buffer."""

    geometry: SSDGeometry
    lun_index: int
    plane_index: int
    _store: dict[tuple[int, int], np.ndarray] = field(default_factory=dict, repr=False)
    buffered_page: tuple[int, int] | None = None
    page_loads: int = 0
    buffer_hits: int = 0

    def program(self, block: int, page: int, data: np.ndarray) -> None:
        """Program one page (used to lay out the dataset)."""
        if data.dtype != np.uint8:
            raise TypeError("pages store uint8 bytes")
        if data.size > self.geometry.page_size:
            raise ValueError(
                f"data ({data.size} B) exceeds page size {self.geometry.page_size}"
            )
        padded = np.zeros(self.geometry.page_size, dtype=np.uint8)
        padded[: data.size] = data
        self._store[(block, page)] = padded

    def load_page(self, block: int, page: int) -> bool:
        """Sense a page into the page buffer.

        Returns True if the page was already buffered (a page-buffer
        hit, free) and False if a real array read happened.
        """
        key = (block, page)
        if self.buffered_page == key:
            self.buffer_hits += 1
            return True
        self.buffered_page = key
        self.page_loads += 1
        return False

    def read_buffer(self, byte: int, length: int) -> np.ndarray:
        """Read bytes out of the current page buffer (column access)."""
        if self.buffered_page is None:
            raise RuntimeError("no page sensed into the buffer")
        if byte + length > self.geometry.page_size:
            raise ValueError("column read crosses the page boundary")
        data = self._store.get(self.buffered_page)
        if data is None:
            return np.zeros(length, dtype=np.uint8)
        return data[byte : byte + length].copy()

    def erase(self, block: int) -> None:
        """Erase a block (drop its pages)."""
        for key in [k for k in self._store if k[0] == block]:
            del self._store[key]
        if self.buffered_page is not None and self.buffered_page[0] == block:
            self.buffered_page = None

    def move_block(self, old_block: int, new_block: int) -> int:
        """Relocate a block's valid pages (FTL refresh). Returns count."""
        moved = 0
        for (blk, page) in [k for k in self._store if k[0] == old_block]:
            self._store[(new_block, page)] = self._store.pop((blk, page))
            moved += 1
        if self.buffered_page is not None and self.buffered_page[0] == old_block:
            self.buffered_page = None
        return moved


@dataclass
class Lun:
    """A LUN: the minimal independently commanded unit (>=1 planes)."""

    geometry: SSDGeometry
    lun_index: int
    planes: list[Plane] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.planes:
            self.planes = [
                Plane(self.geometry, self.lun_index, p)
                for p in range(self.geometry.planes_per_lun)
            ]

    def read(self, address: PhysicalAddress, length: int) -> np.ndarray:
        """Single-plane read: sense + column read."""
        if address.lun != self.lun_index:
            raise ValueError("address targets a different LUN")
        plane = self.planes[address.plane]
        plane.load_page(address.block, address.page)
        return plane.read_buffer(address.byte, length)

    def multi_plane_read(
        self, addresses: list[PhysicalAddress], length: int
    ) -> list[np.ndarray]:
        """Simultaneous sense on multiple planes (one command sequence).

        Validates the ONFI restrictions first; all senses count as one
        parallel operation (the timing layer charges a single tR).
        """
        validate_multi_plane_group(addresses)
        if addresses[0].lun != self.lun_index:
            raise ValueError("multi-plane group targets a different LUN")
        out = []
        for address in addresses:
            plane = self.planes[address.plane]
            plane.load_page(address.block, address.page)
            out.append(plane.read_buffer(address.byte, length))
        return out

    @property
    def page_loads(self) -> int:
        return sum(p.page_loads for p in self.planes)


@dataclass
class FlashChip:
    """A flash chip: a group of LUNs sharing the chip's data bus."""

    geometry: SSDGeometry
    chip_index: int
    luns: list[Lun] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.luns:
            base = self.chip_index * self.geometry.luns_per_chip
            self.luns = [
                Lun(self.geometry, base + i) for i in range(self.geometry.luns_per_chip)
            ]

    def lun(self, global_lun: int) -> Lun:
        local = global_lun - self.chip_index * self.geometry.luns_per_chip
        if not 0 <= local < self.geometry.luns_per_chip:
            raise ValueError(f"LUN {global_lun} is not on chip {self.chip_index}")
        return self.luns[local]
