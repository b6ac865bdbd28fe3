"""Integration tests for the assembled SSD device."""

import numpy as np
import pytest

from repro.flash.ecc import LDPCModel
from repro.flash.geometry import PhysicalAddress
from repro.flash.ssd import SSD
from repro.flash.timing import FlashTiming


@pytest.fixture()
def ssd(tiny_geometry):
    return SSD(geometry=tiny_geometry, timing=FlashTiming())


class TestFunctionalAccess:
    def test_program_read_roundtrip(self, ssd):
        addr = PhysicalAddress(lun=2, plane=1, block=1, page=3)
        data = np.arange(100, dtype=np.uint8)
        ssd.program(addr, data)
        assert np.array_equal(ssd.read(addr, 100), data)

    def test_read_counts_page_and_ecc(self, ssd):
        addr = PhysicalAddress(lun=0, plane=0, block=0, page=0)
        ssd.read(addr, 8)
        assert ssd.counters["page_reads"] == 1
        assert ssd.counters["ecc_hard_decodes"] == 1

    def test_soft_decode_injection(self, tiny_geometry):
        ssd = SSD(
            geometry=tiny_geometry,
            ldpc=LDPCModel(hard_failure_prob=1.0),
        )
        ssd.read(PhysicalAddress(lun=0, plane=0, block=0, page=0), 8)
        assert ssd.counters["ecc_soft_decodes"] == 1

    def test_program_mid_page_rejected(self, ssd):
        with pytest.raises(ValueError):
            ssd.program(
                PhysicalAddress(lun=0, plane=0, block=0, page=0, byte=4),
                np.zeros(4, dtype=np.uint8),
            )

    def test_invalid_address_rejected(self, ssd):
        with pytest.raises(ValueError):
            ssd.read(PhysicalAddress(lun=999, plane=0, block=0, page=0), 8)

    def test_multi_plane_read_counters(self, ssd):
        addrs = [
            PhysicalAddress(lun=0, plane=0, block=0, page=0),
            PhysicalAddress(lun=0, plane=1, block=0, page=0),
        ]
        ssd.multi_plane_read(addrs, 8)
        assert ssd.counters["page_reads"] == 2
        assert ssd.counters["multiplane_reads"] == 1


class TestRefreshTransparency:
    def test_data_survives_refresh(self, ssd):
        addr = PhysicalAddress(lun=1, plane=0, block=2, page=1)
        data = np.arange(32, dtype=np.uint8)
        ssd.program(addr, data)
        ssd.refresh(1, 0, 2)
        # Same logical address still returns the data.
        assert np.array_equal(ssd.read(addr, 32), data)
        assert ssd.counters["refreshes"] == 1
        assert ssd.counters["refresh_pages_moved"] == 1

    def test_repeated_refreshes(self, ssd):
        addr = PhysicalAddress(lun=0, plane=1, block=0, page=0)
        data = np.full(16, 42, dtype=np.uint8)
        ssd.program(addr, data)
        for _ in range(5):
            ssd.refresh(0, 1, 0)
        assert np.array_equal(ssd.read(addr, 16), data)
        ssd.ftl.check_consistency()
