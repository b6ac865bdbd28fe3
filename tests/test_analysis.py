"""Tests for locality metrics, breakdowns, roofline and reporting."""

import numpy as np
import pytest

from repro.analysis import (
    accessed_vector_fraction,
    cpu_breakdown,
    format_table,
    lun_coverage,
    ndsearch_breakdown,
    page_access_ratio,
    roofline_model,
)
from repro.analysis.locality import batch_page_accesses
from repro.analysis.roofline import operational_intensity
from repro.ann.trace import IterationRecord, SearchTrace
from repro.core.config import NDSearchConfig
from repro.core.placement import map_vertices
from repro.sim.stats import SimResult


@pytest.fixture()
def placement(tiny_geometry):
    return map_vertices(600, tiny_geometry, vector_bytes=64)


def _trace(vertex_lists):
    return SearchTrace.from_iterations([
        IterationRecord(entry=vs[0] if vs else 0, computed=tuple(vs))
        for vs in vertex_lists
    ])


class TestLocalityMetrics:
    def test_page_access_ratio_perfect_locality(self, placement):
        vpp = placement.vectors_per_page
        trace = _trace([list(range(vpp))])  # one full page
        ratio = page_access_ratio([trace], placement)
        assert ratio == pytest.approx(1.0 / vpp)

    def test_page_access_ratio_scattered(self, placement):
        vpp = placement.vectors_per_page
        scattered = [0, vpp, 2 * vpp, 3 * vpp]  # one page each
        ratio = page_access_ratio([_trace([scattered])], placement)
        assert ratio == pytest.approx(1.0)

    def test_reordering_improves_ratio(self, small_hnsw, tiny_config,
                                       small_queries):
        """Fig. 14: our reordering lowers the page-access ratio versus
        no reordering."""
        from repro.ann.trace import remap_trace
        from repro.core import NDSearch, SchedulingFlags

        _, _, traces = small_hnsw.search_batch(small_queries, 5, ef=24)
        reordered = NDSearch(index=small_hnsw, config=tiny_config)
        plain = NDSearch(
            index=small_hnsw,
            config=tiny_config.with_flags(SchedulingFlags.bare()),
        )
        r_re = page_access_ratio(
            [remap_trace(t, reordered.new_id) for t in traces],
            reordered._model.placement,
        )
        r_plain = page_access_ratio(
            [remap_trace(t, plain.new_id) for t in traces],
            plain._model.placement,
        )
        assert r_re < r_plain

    def test_accessed_vector_fraction_bounds(self, placement):
        trace = _trace([[0, 1], [30, 60]])
        frac = accessed_vector_fraction([trace], placement, vector_bytes=64)
        assert 0.0 < frac <= 1.0

    def test_lun_coverage_full(self, placement, tiny_geometry):
        all_vertices = list(range(0, 600, 5))
        coverage = lun_coverage([_trace([all_vertices])], placement)
        assert coverage == 1.0

    def test_lun_coverage_partial(self, placement):
        vpp = placement.vectors_per_page
        coverage = lun_coverage([_trace([[0]])], placement)
        assert 0.0 < coverage < 1.0

    def test_batch_page_accesses_sharing(self, placement):
        traces = [_trace([[0, 1, 2]]) for _ in range(4)]
        shared = batch_page_accesses(traces, placement, shared=True)
        unshared = batch_page_accesses(traces, placement, shared=False)
        assert shared < unshared


class TestBreakdowns:
    def test_cpu_breakdown_groups(self):
        r = SimResult("cpu", "hnsw", "sift-1b", 8, 1.0, component_busy_s={
            "ssd_io_read": 0.7, "host_memory": 0.2, "compute": 0.05,
            "sort": 0.05,
        })
        frac = cpu_breakdown(r)
        assert frac["ssd_io_read"] == pytest.approx(0.7)
        assert frac["compute_and_sort"] == pytest.approx(0.3)

    def test_ndsearch_breakdown_sums_to_one(self):
        r = SimResult("ndsearch", "hnsw", "sift-1b", 8, 1.0, component_busy_s={
            "nand_read": 0.3, "dram": 0.2, "embedded_cores": 0.1,
            "vgenerator": 0.05, "allocator": 0.05, "fpga_sort": 0.1,
            "pcie_host": 0.05, "channel_bus": 0.15,
        })
        frac = ndsearch_breakdown(r)
        assert sum(frac.values()) == pytest.approx(1.0)
        assert frac["allocating"] == pytest.approx(0.1)

    def test_empty_breakdown(self):
        r = SimResult("cpu", "hnsw", "x", 1, 1.0)
        assert all(v == 0.0 for v in cpu_breakdown(r).values())


class TestRoofline:
    def test_operational_intensity(self):
        oi = operational_intensity(dim=128, vector_bytes=512, page_bytes=4096)
        assert oi == pytest.approx(3 * 128 / 4096)

    def test_lift_matches_bandwidth_ratio(self):
        cfg = NDSearchConfig.paper()
        point = roofline_model(cfg, dim=128, compute_peak_gflops=1e9)
        expected = cfg.internal_bandwidth / cfg.timing.pcie_host_bw
        assert point.lift == pytest.approx(expected, rel=1e-6)

    def test_compute_ceiling_caps_lift(self):
        cfg = NDSearchConfig.paper()
        point = roofline_model(cfg, dim=128, compute_peak_gflops=10.0)
        assert point.attainable_internal_gflops == 10.0

    def test_workload_is_bandwidth_bound(self):
        """Fig. 2(b): ANNS sits far below the compute ceiling."""
        cfg = NDSearchConfig.paper()
        point = roofline_model(cfg, dim=128)
        assert point.attainable_pcie_gflops < 10.0  # << 1000 GFLOP/s peak


class TestReporting:
    def test_format_table_alignment(self):
        out = format_table(["a", "bbb"], [["x", 1.0], ["yy", 2.5]], title="T")
        lines = out.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "bbb" in lines[1]
        assert len(lines) == 5

    def test_row_width_mismatch(self):
        with pytest.raises(ValueError):
            format_table(["a"], [["x", "y"]])

    def test_float_formatting(self):
        out = format_table(["v"], [[0.123456]])
        assert "0.123" in out
