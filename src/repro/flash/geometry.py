"""SSD physical organisation and addressing (paper Section II-B1).

NAND flash is organised hierarchically: channels contain chips, chips
contain LUNs (the minimal unit that executes commands independently),
LUNs contain planes, planes contain blocks, blocks contain pages.  A
flash address splits into a *row address* (LUN, block, page) and a
*column address* (byte/word within a page), as in the paper's Fig. 5(b)
and Fig. 9(b).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True, order=True)
class PhysicalAddress:
    """Full physical location of a byte range inside the SSD.

    ``lun`` is the *global* LUN index (across all channels/chips); the
    geometry provides conversions to per-channel/per-chip coordinates.
    """

    lun: int
    plane: int
    block: int
    page: int
    byte: int = 0

    def row_address(self, geometry: "SSDGeometry") -> int:
        """Pack (lun, plane, block, page) into the ONFI-style row address.

        Layout (low to high): page bits, block bits, plane bits, LUN
        bits — matching the 26-bit row-address field of the paper's
        ``<SearchPage>`` instruction at paper-scale geometry.
        """
        addr = self.page
        addr |= self.block << geometry.page_bits
        addr |= self.plane << (geometry.page_bits + geometry.block_bits)
        addr |= self.lun << (geometry.page_bits + geometry.block_bits + geometry.plane_bits)
        return addr

    def column_address(self) -> int:
        """Byte offset within the page (the ONFI column address)."""
        return self.byte


def _bits_for(n: int) -> int:
    """Number of address bits needed to index ``n`` items."""
    if n <= 1:
        return 0
    return (n - 1).bit_length()


@dataclass(frozen=True)
class SSDGeometry:
    """Static shape of the NAND storage array.

    The paper's SearSSD configuration (Section IV-C) is 32 channels x
    4 chips x 4 planes per chip with 2 planes per LUN (so 2 LUNs per
    chip), 512 blocks per plane, 128 pages per block, 16 KB pages —
    512 GB total, 256 LUNs.  Use :meth:`paper` for that preset and
    :meth:`scaled` for the laptop-scale preset used by the benchmarks.
    """

    channels: int = 32
    chips_per_channel: int = 4
    luns_per_chip: int = 2
    planes_per_lun: int = 2
    blocks_per_plane: int = 512
    pages_per_block: int = 128
    page_size: int = 16 * 1024

    def __post_init__(self) -> None:
        for name in (
            "channels",
            "chips_per_channel",
            "luns_per_chip",
            "planes_per_lun",
            "blocks_per_plane",
            "pages_per_block",
            "page_size",
        ):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")

    @classmethod
    def paper(cls) -> "SSDGeometry":
        """The 512 GB SearSSD configuration from the paper."""
        return cls()

    @classmethod
    def scaled(cls) -> "SSDGeometry":
        """Benchmark-scale geometry preserving the hierarchy shape.

        4 channels x 2 chips x 2 LUNs x 2 planes = 32 planes / 16 LUNs,
        with small blocks so that the scaled datasets span many pages
        and blocks the way billion-vector datasets span the paper-scale
        device.
        """
        return cls(
            channels=4,
            chips_per_channel=2,
            luns_per_chip=2,
            planes_per_lun=2,
            blocks_per_plane=64,
            pages_per_block=32,
            page_size=4 * 1024,
        )

    # ---- derived sizes -------------------------------------------------
    @property
    def planes_per_chip(self) -> int:
        return self.luns_per_chip * self.planes_per_lun

    @property
    def luns_per_channel(self) -> int:
        return self.chips_per_channel * self.luns_per_chip

    @property
    def total_chips(self) -> int:
        return self.channels * self.chips_per_channel

    @property
    def total_luns(self) -> int:
        return self.channels * self.luns_per_channel

    @property
    def total_planes(self) -> int:
        return self.total_luns * self.planes_per_lun

    @property
    def pages_per_plane(self) -> int:
        return self.blocks_per_plane * self.pages_per_block

    @property
    def pages_per_lun(self) -> int:
        return self.pages_per_plane * self.planes_per_lun

    @property
    def block_size(self) -> int:
        return self.pages_per_block * self.page_size

    @property
    def capacity_bytes(self) -> int:
        return self.total_planes * self.pages_per_plane * self.page_size

    # ---- address bit widths -------------------------------------------
    @property
    def page_bits(self) -> int:
        return _bits_for(self.pages_per_block)

    @property
    def block_bits(self) -> int:
        return _bits_for(self.blocks_per_plane)

    @property
    def plane_bits(self) -> int:
        return _bits_for(self.planes_per_lun)

    @property
    def lun_bits(self) -> int:
        return _bits_for(self.total_luns)

    @property
    def row_address_bits(self) -> int:
        return self.page_bits + self.block_bits + self.plane_bits + self.lun_bits

    # ---- coordinate conversions ----------------------------------------
    def channel_of_lun(self, lun: int) -> int:
        """Channel that a global LUN index lives on."""
        self._check_lun(lun)
        return lun // self.luns_per_channel

    def chip_of_lun(self, lun: int) -> int:
        """Global chip index of a global LUN index."""
        self._check_lun(lun)
        return lun // self.luns_per_chip

    def lun_within_chip(self, lun: int) -> int:
        self._check_lun(lun)
        return lun % self.luns_per_chip

    def global_lun(self, channel: int, chip: int, lun_in_chip: int) -> int:
        """Compose a global LUN index from hierarchical coordinates."""
        if not 0 <= channel < self.channels:
            raise ValueError(f"channel {channel} out of range")
        if not 0 <= chip < self.chips_per_channel:
            raise ValueError(f"chip {chip} out of range")
        if not 0 <= lun_in_chip < self.luns_per_chip:
            raise ValueError(f"lun {lun_in_chip} out of range")
        return (channel * self.chips_per_channel + chip) * self.luns_per_chip + lun_in_chip

    def page_key(self, address: PhysicalAddress) -> tuple[int, int, int, int]:
        """Hashable identity of the page holding ``address``."""
        return (address.lun, address.plane, address.block, address.page)

    def validate(self, address: PhysicalAddress) -> None:
        """Raise ``ValueError`` if the address is outside the geometry."""
        self._check_lun(address.lun)
        if not 0 <= address.plane < self.planes_per_lun:
            raise ValueError(f"plane {address.plane} out of range")
        if not 0 <= address.block < self.blocks_per_plane:
            raise ValueError(f"block {address.block} out of range")
        if not 0 <= address.page < self.pages_per_block:
            raise ValueError(f"page {address.page} out of range")
        if not 0 <= address.byte < self.page_size:
            raise ValueError(f"byte {address.byte} out of range")

    def _check_lun(self, lun: int) -> None:
        if not 0 <= lun < self.total_luns:
            raise ValueError(f"lun {lun} out of range (total {self.total_luns})")

    def address_of_flat_page(self, flat_page: int) -> PhysicalAddress:
        """Inverse of page enumeration: flat page index -> address.

        Pages are enumerated plane-major within a LUN: for LUN l, plane
        p, block b, page g the flat index is
        ``((l * planes + p) * blocks + b) * pages + g``.
        """
        total_pages = self.total_planes * self.pages_per_plane
        if not 0 <= flat_page < total_pages:
            raise ValueError(f"flat page {flat_page} out of range")
        page = flat_page % self.pages_per_block
        rest = flat_page // self.pages_per_block
        block = rest % self.blocks_per_plane
        rest //= self.blocks_per_plane
        plane = rest % self.planes_per_lun
        lun = rest // self.planes_per_lun
        return PhysicalAddress(lun=lun, plane=plane, block=block, page=page)

    def flat_page_index(self, address: PhysicalAddress) -> int:
        """Flat page enumeration (see :meth:`address_of_flat_page`)."""
        self.validate(address)
        return (
            (address.lun * self.planes_per_lun + address.plane) * self.blocks_per_plane
            + address.block
        ) * self.pages_per_block + address.page
