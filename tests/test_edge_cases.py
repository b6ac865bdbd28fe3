"""Edge cases and failure injection across module boundaries."""

import numpy as np
import pytest

from repro.ann import HNSWIndex, HNSWParams
from repro.ann.trace import IterationRecord, SearchTrace, stack_traces
from repro.core import NDSearch, NDSearchConfig, SchedulingFlags
from repro.core.placement import map_vertices
from repro.core.searssd import SearSSDModel
from repro.flash.ecc import LDPCModel
from repro.flash.ftl import FlashTranslationLayer


class TestDegenerateInputs:
    def test_single_vertex_index(self):
        vectors = np.ones((1, 4), dtype=np.float32)
        index = HNSWIndex(vectors, HNSWParams(M=2, ef_construction=2))
        ids, dists = index.search(vectors[0], k=1, ef=1)
        assert ids.tolist() == [0]

    def test_two_vertex_index(self):
        vectors = np.array([[0.0] * 4, [1.0] * 4], dtype=np.float32)
        index = HNSWIndex(vectors, HNSWParams(M=2, ef_construction=2))
        ids, _ = index.search(np.full(4, 0.9, dtype=np.float32), k=2, ef=2)
        assert set(ids.tolist()) == {0, 1}

    def test_duplicate_vectors(self):
        vectors = np.ones((50, 8), dtype=np.float32)
        index = HNSWIndex(vectors, HNSWParams(M=4, ef_construction=8))
        ids, dists = index.search(vectors[0], k=3, ef=8)
        assert np.allclose(dists, 0.0)

    def test_trace_with_empty_iterations_simulates(self, tiny_config):
        placement = map_vertices(100, tiny_config.geometry, 64)
        model = SearSSDModel(config=tiny_config, placement=placement, dim=16)
        trace = SearchTrace.from_iterations([
            IterationRecord(entry=0, computed=()),
            IterationRecord(entry=1, computed=(2, 3)),
        ])
        result = model.run_batch(model.compile_batch(*stack_traces([trace])))
        assert result.sim_time_s > 0

    def test_batch_of_one(self, small_hnsw, tiny_config, small_queries):
        nd = NDSearch(index=small_hnsw, config=tiny_config)
        ids, dists, sim = nd.search_batch(small_queries[:1], k=3, ef=8)
        assert ids.shape == (1, 3)
        assert sim.batch_size == 1


class TestFailureInjection:
    def test_total_ecc_failure_still_completes(self, tiny_config):
        placement = map_vertices(200, tiny_config.geometry, 64)
        model = SearSSDModel(
            config=tiny_config,
            placement=placement,
            dim=16,
            ldpc=LDPCModel(hard_failure_prob=1.0),
        )
        trace = SearchTrace.from_iterations(
            [IterationRecord(entry=0, computed=(1, 50, 99))]
        )
        result = model.run_batch(model.compile_batch(*stack_traces([trace])))
        assert result.counters["ecc_soft_decodes"] == result.counters[
            "ecc_hard_decodes"
        ]
        assert result.sim_time_s > 0

    def test_ftl_refuses_without_free_blocks(self, tiny_geometry):
        ftl = FlashTranslationLayer(tiny_geometry, reserved_per_plane=1)
        ftl._free[0][0] = []  # simulate exhaustion
        with pytest.raises(RuntimeError):
            ftl.refresh_block(0, 0, 0)

    def test_functional_search_survives_heavy_refresh(
        self, small_hnsw, tiny_config, small_queries
    ):
        """Refresh a large share of blocks, then verify the hardware
        path still returns correct results through LUNCSR."""
        nd = NDSearch(index=small_hnsw, config=tiny_config)
        before, _ = nd.search_batch_functional(small_queries[:3], k=3, ef=12)
        device = nd.device()
        rng = np.random.default_rng(0)
        for _ in range(40):
            lun = int(rng.integers(tiny_config.geometry.total_luns))
            plane = int(rng.integers(tiny_config.geometry.planes_per_lun))
            block = int(rng.integers(device.ssd.ftl.usable_blocks))
            device.ssd.refresh(lun, plane, block)
        after, _ = nd.search_batch_functional(small_queries[:3], k=3, ef=12)
        assert np.array_equal(before, after)


class TestPaperScaleConfig:
    def test_paper_geometry_simulates(self, small_hnsw, small_queries):
        """The full 512 GB / 256-LUN configuration runs end to end."""
        nd = NDSearch(index=small_hnsw, config=NDSearchConfig.paper())
        ids, dists, sim = nd.search_batch(small_queries[:4], k=5, ef=16)
        assert sim.sim_time_s > 0
        assert ids.shape == (4, 5)

    def test_paper_machine_scales_with_batch(self, small_hnsw, small_queries):
        """The 256-LUN machine absorbs a 4x larger batch with far less
        than 4x the latency (parallel headroom), unlike a single LUN's
        serial floor."""
        _, _, traces = small_hnsw.search_batch(small_queries, 5, ef=16)
        nd = NDSearch(index=small_hnsw, config=NDSearchConfig.paper())
        t_small = nd.simulate_traces(traces[:4]).sim_time_s
        t_large = nd.simulate_traces(traces[:16]).sim_time_s
        assert t_large < 3.0 * t_small


class TestFlagInteractions:
    @pytest.mark.parametrize("reorder", [False, True])
    @pytest.mark.parametrize("multiplane", [False, True])
    @pytest.mark.parametrize("dynamic_alloc", [False, True])
    @pytest.mark.parametrize("speculative", [False, True])
    def test_all_sixteen_flag_combinations_run(
        self, small_hnsw, tiny_config, small_queries,
        reorder, multiplane, dynamic_alloc, speculative,
    ):
        flags = SchedulingFlags(reorder, multiplane, dynamic_alloc, speculative)
        nd = NDSearch(index=small_hnsw, config=tiny_config.with_flags(flags))
        _, _, sim = nd.search_batch(small_queries[:4], k=3, ef=8)
        assert sim.sim_time_s > 0
        if not speculative:
            assert sim.counters["speculative_page_reads"] == 0
