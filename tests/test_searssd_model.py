"""Tests for the trace-driven SearSSD timing model."""

import numpy as np
import pytest

from repro.ann.trace import IterationRecord, SearchTrace, stack_traces
from repro.core.config import SchedulingFlags
from repro.core.placement import map_vertices
from repro.core.searssd import SearSSDModel
from repro.flash.ecc import LDPCModel


def _make_traces(n_queries, iterations, vertices_per_iter, n_vertices, seed=0):
    rng = np.random.default_rng(seed)
    traces = []
    for q in range(n_queries):
        records = []
        for _ in range(iterations):
            entry = int(rng.integers(n_vertices))
            computed = tuple(
                int(v) for v in rng.choice(n_vertices, vertices_per_iter,
                                           replace=False)
            )
            records.append(IterationRecord(entry=entry, computed=computed))
        traces.append(SearchTrace.from_iterations(records, query_id=q))
    return traces


def _run(model, traces):
    """Price ``traces`` as one batch, compiled without spec sets."""
    return model.run_batch(model.compile_batch(*stack_traces(traces)))


@pytest.fixture()
def model(tiny_config):
    placement = map_vertices(600, tiny_config.geometry, 64)
    return SearSSDModel(config=tiny_config, placement=placement, dim=16)


class TestBasicRun:
    def test_nonzero_makespan_and_counters(self, model):
        traces = _make_traces(8, 5, 6, 600)
        result = _run(model, traces)
        assert result.sim_time_s > 0
        assert result.counters["page_reads"] > 0
        assert result.counters["distance_computations"] == 8 * 5 * 6
        assert result.qps > 0

    def test_empty_batch(self, model):
        result = _run(model, [])
        assert result.sim_time_s == 0.0

    def test_busy_components_populated(self, model):
        result = _run(model, _make_traces(4, 3, 4, 600))
        for key in ("nand_read", "vgenerator", "allocator", "fpga_sort",
                    "pcie_host"):
            assert result.component_busy_s[key] > 0

    def test_more_queries_more_time(self, model):
        small = _run(model, _make_traces(4, 5, 6, 600, seed=1))
        large = _run(model, _make_traces(32, 5, 6, 600, seed=1))
        assert large.sim_time_s > small.sim_time_s


class TestSchedulingEffects:
    def test_dynamic_alloc_reduces_page_reads(self, tiny_config):
        placement = map_vertices(600, tiny_config.geometry, 64)
        # Queries share targets heavily: same trace for everyone.
        base = _make_traces(1, 6, 8, 600, seed=2)[0]
        traces = []
        for q in range(16):
            traces.append(
                SearchTrace.from_iterations(base.iterations, query_id=q)
            )
        on = _run(SearSSDModel(
            config=tiny_config.with_flags(
                SchedulingFlags(True, True, True, False)
            ),
            placement=placement,
            dim=16,
        ), traces)
        off = _run(SearSSDModel(
            config=tiny_config.with_flags(
                SchedulingFlags(True, True, False, False)
            ),
            placement=placement,
            dim=16,
        ), traces)
        assert on.counters["page_reads"] < off.counters["page_reads"]
        assert on.sim_time_s < off.sim_time_s

    def test_multiplane_merging_counted(self, tiny_config):
        placement = map_vertices(600, tiny_config.geometry, 64, scheme="multiplane")
        vpp = placement.vectors_per_page
        # Accesses deliberately span sibling planes at equal pages.
        t = SearchTrace.from_iterations(
            [IterationRecord(entry=0, computed=(0, vpp))]
        )
        model = SearSSDModel(config=tiny_config, placement=placement, dim=16)
        result = _run(model, [t])
        assert result.counters["multiplane_reads"] == 1

    def test_cached_vertices_skip_nand(self, tiny_config):
        placement = map_vertices(600, tiny_config.geometry, 64)
        traces = _make_traces(4, 4, 5, 600, seed=3)
        cached = np.arange(600, dtype=np.int64)  # everything cached
        model = SearSSDModel(
            config=tiny_config, placement=placement, dim=16,
            cached_vertices=cached,
        )
        result = _run(model, traces)
        # All demand accesses served from internal DRAM.
        demand_reads = (
            result.counters["page_reads"]
            - result.counters["speculative_page_reads"]
        )
        assert demand_reads == 0
        assert result.counters["cache_hits"] == 4 * 4 * 5


class TestSubBatching:
    def test_oversized_batch_splits(self, tiny_config):
        placement = map_vertices(600, tiny_config.geometry, 64)
        model = SearSSDModel(config=tiny_config, placement=placement, dim=16)
        capacity = tiny_config.max_batch_capacity
        single = _run(model, _make_traces(capacity, 3, 4, 600, seed=4))
        double = _run(model, _make_traces(2 * capacity, 3, 4, 600, seed=4))
        # Two sequential sub-batches: clearly more than one batch's time.
        assert double.sim_time_s > 1.8 * single.sim_time_s


class TestECCInjection:
    def test_soft_decodes_slow_the_batch(self, tiny_config):
        placement = map_vertices(600, tiny_config.geometry, 64)
        traces = _make_traces(8, 5, 6, 600, seed=5)
        clean = _run(SearSSDModel(
            config=tiny_config, placement=placement, dim=16,
            ldpc=LDPCModel(hard_failure_prob=0.0),
        ), traces)
        faulty = _run(SearSSDModel(
            config=tiny_config, placement=placement, dim=16,
            ldpc=LDPCModel(hard_failure_prob=0.3),
        ), traces)
        assert faulty.counters["ecc_soft_decodes"] > 0
        assert clean.counters["ecc_soft_decodes"] == 0
        assert faulty.sim_time_s > clean.sim_time_s
