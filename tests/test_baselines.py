"""Tests for the baseline platform models (CPU, GPU, SmartSSD, DS-c/cp)."""

import numpy as np
import pytest

from repro.ann.trace import IterationRecord, SearchTrace, remap_trace
from repro.baselines import CPUModel, DeepStoreModel, GPUModel, SmartSSDModel
from repro.baselines.common import DatasetProfile, WorkloadStats, cache_hit_count
from repro.core.config import HostConfig
from repro.core.placement import map_vertices
from repro.flash.timing import FlashTiming


def _traces(n_queries=8, iterations=6, per_iter=5, n_vertices=600, seed=0):
    rng = np.random.default_rng(seed)
    out = []
    for q in range(n_queries):
        records = []
        for _ in range(iterations):
            computed = tuple(
                int(v) for v in rng.choice(n_vertices, per_iter, replace=False)
            )
            records.append(
                IterationRecord(entry=int(rng.integers(n_vertices)),
                                computed=computed)
            )
        out.append(SearchTrace.from_iterations(records, query_id=q))
    return out


def _profile(footprint=10 * 1024**2, name="sift-1b"):
    return DatasetProfile(
        name=name, num_vectors=600, dim=16, vector_bytes=64,
        footprint_bytes=footprint,
    )


@pytest.fixture()
def host():
    return HostConfig(dram_capacity_bytes=1024**2, vram_capacity_bytes=1024**2)


class TestWorkloadStats:
    def test_aggregates(self):
        stats = WorkloadStats.from_traces(_traces(4, 3, 5))
        assert stats.batch_size == 4
        assert stats.total_accesses == 4 * 3 * 5
        assert stats.total_iterations == 12
        assert stats.max_iterations == 3

    def test_empty(self):
        stats = WorkloadStats.from_traces([])
        assert stats.batch_size == 0

    def test_cache_hit_count(self):
        traces = _traces(2, 2, 4, n_vertices=10, seed=1)
        all_cached = cache_hit_count(traces, np.arange(10))
        assert all_cached == 2 * 2 * 4
        assert cache_hit_count(traces, None) == 0


class TestCPUModel:
    def test_out_of_memory_pays_io(self, host):
        cpu = CPUModel(timing=FlashTiming(), host=host)
        result = cpu.run_batch(_traces(), _profile(footprint=10 * 1024**2))
        assert result.component_busy_s["ssd_io_read"] > 0
        assert result.counters["pcie_bytes"] > 0

    def test_in_memory_pays_no_io(self, host):
        cpu = CPUModel(timing=FlashTiming(), host=host)
        result = cpu.run_batch(_traces(), _profile(footprint=1024))
        assert result.component_busy_s["ssd_io_read"] == 0.0

    def test_io_dominates_out_of_memory(self, host):
        """Fig. 1: SSD I/O read is the majority of CPU time."""
        cpu = CPUModel(timing=FlashTiming(), host=host)
        result = cpu.run_batch(
            _traces(n_queries=64, seed=2), _profile(), algorithm="hnsw"
        )
        frac = result.component_busy_s["ssd_io_read"] / result.sim_time_s
        assert frac > 0.5

    def test_cpu_t_everything_fits(self, host):
        cpu_t = CPUModel(timing=FlashTiming(), host=host, terabyte_dram=True)
        result = cpu_t.run_batch(_traces(), _profile(footprint=10**12))
        assert result.platform == "cpu-t"
        assert result.component_busy_s["ssd_io_read"] == 0.0

    def test_hot_cache_reduces_io(self, host):
        cpu = CPUModel(timing=FlashTiming(), host=host)
        traces = _traces(seed=3)
        without = cpu.run_batch(traces, _profile())
        with_cache = cpu.run_batch(
            traces, _profile(), cached_vertices=np.arange(300)
        )
        assert (
            with_cache.component_busy_s["ssd_io_read"]
            < without.component_busy_s["ssd_io_read"]
        )
        assert with_cache.counters["cache_hits"] > 0


class TestGPUModel:
    def test_out_of_memory_io(self, host):
        gpu = GPUModel(timing=FlashTiming(), host=host)
        result = gpu.run_batch(_traces(), _profile())
        assert result.component_busy_s["ssd_io_read"] > 0

    def test_in_memory_faster_than_cpu(self, host):
        # High-dimensional vectors: the CPU pays multi-cacheline
        # fetches while the GPU's gathers stay latency-bound.
        timing = FlashTiming()
        profile = DatasetProfile(
            name="glove-100", num_vectors=600, dim=128, vector_bytes=512,
            footprint_bytes=1024,
        )
        traces = _traces(n_queries=32, seed=4)
        gpu = GPUModel(timing=timing, host=host).run_batch(traces, profile)
        cpu = CPUModel(timing=timing, host=host).run_batch(traces, profile)
        assert gpu.sim_time_s < cpu.sim_time_s

    def test_kernel_launch_overhead_scales_with_rounds(self, host):
        gpu = GPUModel(timing=FlashTiming(), host=host)
        short = gpu.run_batch(_traces(iterations=2, seed=5), _profile(1024))
        long = gpu.run_batch(_traces(iterations=20, seed=5), _profile(1024))
        assert (
            long.component_busy_s["kernel_launch"]
            > short.component_busy_s["kernel_launch"]
        )


class TestSmartSSD:
    def test_runs_and_counts(self, tiny_config):
        model = SmartSSDModel(config=tiny_config)
        result = model.run_batch(_traces(), _profile())
        assert result.platform == "smartssd"
        assert result.counters["pcie_private_bytes"] > 0
        assert result.sim_time_s > 0

    def test_beats_cpu_on_big_data(self, host):
        # Needs the benchmark-scale device: the private P2P path only
        # pays off with real internal NAND parallelism.
        from repro.core.config import NDSearchConfig

        cfg = NDSearchConfig.scaled()
        traces = _traces(n_queries=256, seed=6)
        smart = SmartSSDModel(config=cfg).run_batch(traces, _profile())
        cpu = CPUModel(timing=cfg.timing, host=cfg.host).run_batch(
            traces, _profile()
        )
        assert smart.sim_time_s < cpu.sim_time_s


class TestDeepStore:
    @pytest.fixture()
    def placement(self, tiny_config):
        return map_vertices(600, tiny_config.geometry, 64)

    def test_level_validation(self, tiny_config, placement):
        with pytest.raises(ValueError):
            DeepStoreModel(config=tiny_config, placement=placement, level="die")

    def test_chip_level_beats_channel_level(self, tiny_config, placement):
        """The paper's inversion: DS-cp > DS-c for ANNS workloads."""
        traces = _traces(n_queries=32, seed=7)
        cp = DeepStoreModel(
            config=tiny_config, placement=placement, level="chip"
        ).run_batch(traces, _profile())
        c = DeepStoreModel(
            config=tiny_config, placement=placement, level="channel"
        ).run_batch(traces, _profile())
        assert cp.sim_time_s < c.sim_time_s
        assert cp.platform == "ds-cp"
        assert c.platform == "ds-c"

    def test_pages_leave_the_chip(self, tiny_config, placement):
        model = DeepStoreModel(config=tiny_config, placement=placement)
        result = model.run_batch(_traces(seed=8), _profile())
        # Every sensed page crosses a bus (internal_bytes = pages x size).
        assert result.counters["internal_bytes"] == (
            result.counters["page_reads"] * tiny_config.geometry.page_size
        )

    def test_dynamic_alloc_helps_ds_cp(self, tiny_config, placement):
        traces = []
        base = _traces(1, 5, 6, seed=9)[0]
        for q in range(16):
            traces.append(
                SearchTrace.from_iterations(base.iterations, query_id=q)
            )
        on = DeepStoreModel(
            config=tiny_config, placement=placement, dynamic_alloc=True
        ).run_batch(traces, _profile())
        off = DeepStoreModel(
            config=tiny_config, placement=placement, dynamic_alloc=False
        ).run_batch(traces, _profile())
        assert on.counters["page_reads"] < off.counters["page_reads"]

    def test_empty_batch(self, tiny_config, placement):
        result = DeepStoreModel(config=tiny_config, placement=placement).run_batch(
            [], _profile()
        )
        assert result.sim_time_s == 0.0

    @pytest.mark.parametrize("dynamic_alloc", [True, False])
    @pytest.mark.parametrize("level", ["chip", "channel"])
    def test_relabel_map_equals_remapped_traces(self, tiny_config, placement,
                                                level, dynamic_alloc):
        """Mapping the concatenated computed column once prices exactly
        like remapping every trace first."""
        model = DeepStoreModel(config=tiny_config, placement=placement,
                               level=level, dynamic_alloc=dynamic_alloc)
        traces = _traces(n_queries=12, seed=11)
        new_id = np.random.default_rng(5).permutation(600)
        hot = np.arange(0, 600, 7)
        got = model.run_batch(traces, _profile(), cached_vertices=hot,
                              new_id=new_id)
        want = model.run_batch([remap_trace(t, new_id) for t in traces],
                               _profile(), cached_vertices=hot)
        assert got.sim_time_s == want.sim_time_s
        assert list(got.counters.items()) == list(want.counters.items())
        assert got.component_busy_s == want.component_busy_s
        assert got.timeline == want.timeline
