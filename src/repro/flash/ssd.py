"""The assembled SSD device: chips + FTL + ECC + internal DRAM model.

Functional container behind the functional SearSSD device
(:class:`~repro.core.searssd.SearSSDDevice`, which adds in-LUN
compute).  The platform timing models price page reads analytically
and never touch it; serving's stateful flash
(:mod:`repro.serving.storage`) keeps its own FTL and ECC models
without the chip and plane page buffers.  All addressing through this
class uses *logical* block numbers — the FTL translates to physical
blocks, so block-level refreshing is transparent to readers, exactly
as Section II-B2 describes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.flash.ecc import BERModel, LDPCModel
from repro.flash.ftl import FlashTranslationLayer
from repro.flash.geometry import PhysicalAddress, SSDGeometry
from repro.flash.nand import FlashChip
from repro.flash.timing import FlashTiming
from repro.sim.stats import Counters


@dataclass
class SSD:
    """A complete (modified-capable) SSD device.

    Parameters
    ----------
    geometry / timing:
        Physical shape and latency constants.
    dram_bytes:
        Internal DRAM capacity (paper: 4 GB) available for the LUNCSR
        index arrays and the query property table.
    ldpc:
        ECC decode model (hard-decision failure probability knob).
    """

    geometry: SSDGeometry = field(default_factory=SSDGeometry.scaled)
    timing: FlashTiming = field(default_factory=FlashTiming)
    dram_bytes: int = 4 * 1024**3
    ldpc: LDPCModel = field(default_factory=LDPCModel)
    chips: list[FlashChip] = field(default_factory=list)
    ftl: FlashTranslationLayer = field(init=False)
    ber: BERModel = field(init=False)
    counters: Counters = field(default_factory=Counters)

    def __post_init__(self) -> None:
        if not self.chips:
            self.chips = [
                FlashChip(self.geometry, i) for i in range(self.geometry.total_chips)
            ]
        self.ftl = FlashTranslationLayer(self.geometry)
        self.ber = BERModel(self.geometry.total_planes)

    # ---- helpers -----------------------------------------------------------
    def _chip_of(self, lun: int) -> FlashChip:
        return self.chips[self.geometry.chip_of_lun(lun)]

    def _physical(self, address: PhysicalAddress) -> PhysicalAddress:
        """Translate logical block -> physical block via the FTL."""
        physical_block = self.ftl.physical_block(
            address.lun, address.plane, address.block
        )
        if physical_block == address.block:
            return address
        return PhysicalAddress(
            lun=address.lun,
            plane=address.plane,
            block=physical_block,
            page=address.page,
            byte=address.byte,
        )

    # ---- functional access --------------------------------------------------
    def program(self, address: PhysicalAddress, data: np.ndarray) -> None:
        """Program bytes at a (logical-block) address."""
        self.geometry.validate(address)
        phys = self._physical(address)
        plane = self._chip_of(phys.lun).lun(phys.lun).planes[phys.plane]
        if address.byte != 0:
            raise ValueError("programming starts at page boundary")
        plane.program(phys.block, phys.page, data)

    def read(self, address: PhysicalAddress, length: int) -> np.ndarray:
        """Read bytes at a (logical-block) address, through ECC.

        Counts a page read, an ECC hard decode and (on injected
        failure) a soft decode; the timing layers consume these
        counters.
        """
        self.geometry.validate(address)
        phys = self._physical(address)
        lun = self._chip_of(phys.lun).lun(phys.lun)
        data = lun.read(phys, length)
        self.counters["page_reads"] += 1
        self.counters["ecc_hard_decodes"] += 1
        if not self.ldpc.decode_page():
            self.counters["ecc_soft_decodes"] += 1
        # Read disturbance: the FTL refreshes the block once its read
        # count crosses the threshold (Section II-B2) — transparently,
        # since callers address logical blocks.
        if self.ftl.record_read(address.lun, address.plane, address.block):
            self.refresh(address.lun, address.plane, address.block)
            self.counters["disturb_refreshes"] += 1
        return data

    def multi_plane_read(
        self, addresses: list[PhysicalAddress], length: int
    ) -> list[np.ndarray]:
        """Multi-plane read through the FTL (one parallel sense)."""
        phys = [self._physical(a) for a in addresses]
        lun = self._chip_of(phys[0].lun).lun(phys[0].lun)
        out = lun.multi_plane_read(phys, length)
        self.counters["page_reads"] += len(addresses)
        self.counters["multiplane_reads"] += len(addresses) - 1
        self.counters["ecc_hard_decodes"] += len(addresses)
        for _ in addresses:
            if not self.ldpc.decode_page():
                self.counters["ecc_soft_decodes"] += 1
        return out

    def refresh(self, lun: int, plane: int, logical_block: int) -> None:
        """Perform a block-level refresh, moving the data functionally."""
        old_phys = self.ftl.physical_block(lun, plane, logical_block)
        event = self.ftl.refresh_block(lun, plane, logical_block)
        assert event.old_block == old_phys
        plane_obj = self._chip_of(lun).lun(lun).planes[plane]
        moved = plane_obj.move_block(event.old_block, event.new_block)
        self.counters["refresh_pages_moved"] += moved
        self.counters["refreshes"] += 1
