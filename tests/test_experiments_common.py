"""Tests for the experiment infrastructure (workloads, caching, runs).

These run at a tiny scale (scale=0.05, 16-query pools) so the full
pipeline — dataset generation, graph construction, trace recording,
disk caching, platform dispatch — is exercised in seconds.
"""

import dataclasses
import weakref

import numpy as np
import pytest

from repro.core import NDSearchConfig, SchedulingFlags
from repro.experiments import common


@pytest.fixture(scope="module")
def tiny_workload(tmp_path_factory, request):
    cache = tmp_path_factory.mktemp("expcache")
    monkey = pytest.MonkeyPatch()
    monkey.setenv("REPRO_CACHE_DIR", str(cache))
    request.addfinalizer(monkey.undo)
    common._memory_cache.clear()
    return common.get_workload("sift-1b", "hnsw", scale=0.05, pool=16)


class TestWorkloadGeneration:
    def test_workload_contents(self, tiny_workload):
        w = tiny_workload
        assert w.graph.num_vertices == w.dataset.num_vectors
        assert len(w.trace_set) == 16
        assert w.ground_truth.shape == (16, 10)
        assert 0.0 <= w.recall <= 1.0

    def test_recall_reasonable_even_tiny(self, tiny_workload):
        assert tiny_workload.recall > 0.7

    def test_disk_cache_roundtrip(self, tiny_workload):
        common._memory_cache.clear()
        again = common.get_workload("sift-1b", "hnsw", scale=0.05, pool=16)
        assert np.array_equal(again.graph.indptr, tiny_workload.graph.indptr)
        assert np.array_equal(
            again.trace_set.result_ids, tiny_workload.trace_set.result_ids
        )
        assert again.recall == pytest.approx(tiny_workload.recall)

    def test_memory_cache_identity(self):
        a = common.get_workload("sift-1b", "hnsw", scale=0.05, pool=16)
        b = common.get_workload("sift-1b", "hnsw", scale=0.05, pool=16)
        assert a is b

    def test_disk_cache_keys_on_k(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        common._memory_cache.clear()
        common.get_workload("sift-1b", "hnsw", scale=0.05, pool=16, k=10)
        common._memory_cache.clear()
        narrow = common.get_workload(
            "sift-1b", "hnsw", scale=0.05, pool=16, k=5
        )
        common._memory_cache.clear()
        assert narrow.ground_truth.shape == (16, 5)
        assert narrow.trace_set.result_ids.shape == (16, 5)

    def test_profile_consistency(self, tiny_workload):
        profile = tiny_workload.profile()
        assert profile.dim == tiny_workload.dataset.dim
        assert profile.footprint_bytes > 0


class TestSearchEf:
    def test_small_datasets_narrower(self):
        assert common.search_ef("glove-100", "hnsw") < common.search_ef(
            "sift-1b", "hnsw"
        )

    def test_default_by_algorithm(self):
        assert common.search_ef("sift-1b", "diskann") == 64


class TestRunPlatform:
    @pytest.mark.parametrize(
        "platform",
        ["cpu", "cpu-t", "gpu", "smartssd", "ds-c", "ds-cp", "ndsearch"],
    )
    def test_every_platform_dispatches(self, tiny_workload, platform):
        result = common.run_platform(platform, tiny_workload, batch=8)
        assert result.sim_time_s > 0
        assert result.batch_size == 8
        assert result.platform == platform
        assert result.power_w > 0

    def test_unknown_platform(self, tiny_workload):
        with pytest.raises(ValueError):
            common.run_platform("tpu", tiny_workload, batch=8)

    def test_flags_override(self, tiny_workload):
        bare = common.run_platform(
            "ndsearch", tiny_workload, batch=8, flags=SchedulingFlags.bare()
        )
        full = common.run_platform("ndsearch", tiny_workload, batch=8)
        assert bare.counters["speculative_page_reads"] == 0
        assert full.sim_time_s <= bare.sim_time_s

    def test_memo_keys_on_the_whole_config(self, tiny_workload):
        """A config that differs from an earlier one only outside the
        flags, geometry and page-read time is simulated, not answered
        with the earlier config's result."""
        scaled = NDSearchConfig.scaled()
        narrow = dataclasses.replace(scaled, speculative_width=1)
        wide = common.run_platform(
            "ndsearch", tiny_workload, config=scaled, batch=8
        )
        got = common.run_platform(
            "ndsearch", tiny_workload, config=narrow, batch=8
        )
        fresh = common.run_platform(
            "ndsearch", dataclasses.replace(tiny_workload), config=narrow,
            batch=8,
        )
        assert got.counters == fresh.counters
        assert (got.counters["speculative_page_reads"]
                != wide.counters["speculative_page_reads"])
        assert tiny_workload.ndsearch(narrow) is not tiny_workload.ndsearch(
            scaled
        )

    def test_memo_dies_with_its_workload(self, tiny_workload):
        """Nothing outside a workload holds its memo, and nothing in the
        memo refers back to it, so dropping it frees it at once."""
        shell = dataclasses.replace(tiny_workload)
        first = common.run_platform("ndsearch", shell, batch=8)
        assert common.run_platform("ndsearch", shell, batch=8) is first
        alive = weakref.ref(shell)
        del shell
        assert alive() is None

    def test_ndsearch_system_cached_per_flags(self, tiny_workload):
        cfg = NDSearchConfig.scaled()
        a = tiny_workload.ndsearch(cfg)
        b = tiny_workload.ndsearch(cfg)
        c = tiny_workload.ndsearch(cfg.with_flags(SchedulingFlags.bare()))
        assert a is b
        assert a is not c

    def test_index_shim_refuses_search(self, tiny_workload):
        shim = common._IndexShim(tiny_workload)
        with pytest.raises(NotImplementedError):
            shim.search_batch(None, 5)

    def test_index_shim_hot_vertices(self, tiny_workload):
        shim = common._IndexShim(tiny_workload)
        hot = shim.hot_vertices(0.1)
        assert hot.size == max(1, int(0.1 * tiny_workload.graph.num_vertices))
