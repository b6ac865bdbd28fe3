"""The unified platform layer: registry, one interface, timeline contract."""

from __future__ import annotations

import numpy as np
import pytest

from repro import platform as platform_api
from repro.core import NDSearch, NDSearchConfig
from repro.serving.backends import dataset_profile

ALL_PLATFORMS = ("cpu", "cpu-t", "gpu", "smartssd", "ds-c", "ds-cp", "ndsearch")


@pytest.fixture(scope="module")
def config():
    return NDSearchConfig.scaled()


@pytest.fixture(scope="module")
def traces(small_hnsw, small_queries):
    _, _, traces = small_hnsw.search_batch(small_queries, 5)
    return traces


@pytest.fixture(scope="module")
def profile(small_vectors, small_hnsw):
    return dataset_profile(small_vectors, small_hnsw)


class TestRegistry:
    def test_available_covers_all_platforms(self):
        assert set(ALL_PLATFORMS) <= set(platform_api.available())

    @pytest.mark.parametrize("name", ALL_PLATFORMS)
    def test_every_platform_constructs_and_simulates(
        self, name, config, small_hnsw, traces, profile
    ):
        model = platform_api.get(name, config, index=small_hnsw)
        assert model.name == name
        result = model.simulate(traces, profile, algorithm="hnsw")
        assert result.platform == name
        assert result.sim_time_s > 0
        assert result.batch_size == len(traces)

    def test_alias_resolves(self, config, small_hnsw):
        model = platform_api.get("deepstore", config, index=small_hnsw)
        assert model.name == "ds-cp"

    def test_unknown_platform_raises_with_choices(self, config):
        with pytest.raises(ValueError, match="ndsearch"):
            platform_api.get("tpu", config)

    def test_in_storage_platforms_need_context(self, config):
        with pytest.raises(ValueError, match="index"):
            platform_api.get("ndsearch", config)

    def test_prebuilt_system_is_reused(self, config, small_hnsw):
        system = NDSearch(index=small_hnsw, config=config)
        model = platform_api.get("ndsearch", config, system=system)
        assert model.system is system
        ds = platform_api.get("ds-c", config, system=system)
        assert ds.system is system

    def test_register_adds_new_platform(self, config):
        @platform_api.register("test-dummy")
        def _build(cfg, **_):
            return platform_api.get("cpu", cfg)

        try:
            assert "test-dummy" in platform_api.available()
            model = platform_api.get("test-dummy", config)
            assert model.name == "cpu"
        finally:
            from repro.platform import registry

            del registry._REGISTRY["test-dummy"]


class TestTimelineContract:
    @pytest.mark.parametrize("name", ALL_PLATFORMS)
    def test_timeline_valid_and_covers_makespan(
        self, name, config, small_hnsw, traces, profile
    ):
        model = platform_api.get(name, config, index=small_hnsw)
        result = model.simulate(traces, profile)
        assert result.timeline, f"{name} emitted no phase timeline"
        result.validate_timeline()  # monotone, in-bounds, no overlap
        # The stage chain reproduces the batch makespan exactly: an
        # unloaded pipelined device must serve at sim_time_s latency.
        stages = result.pipeline_stages()
        assert all(duration >= 0 for _, duration in stages)
        total = sum(duration for _, duration in stages)
        assert total == pytest.approx(result.sim_time_s, rel=1e-9)

    @pytest.mark.parametrize("name", ALL_PLATFORMS)
    def test_per_resource_segments_are_monotone(
        self, name, config, small_hnsw, traces, profile
    ):
        model = platform_api.get(name, config, index=small_hnsw)
        result = model.simulate(traces, profile)
        by_resource: dict[str, list] = {}
        starts = [seg.start for seg in result.timeline]
        assert starts == sorted(starts)
        for seg in result.timeline:
            assert seg.end >= seg.start
            by_resource.setdefault(seg.resource, []).append(seg)
        for resource, segs in by_resource.items():
            for prev, cur in zip(segs, segs[1:]):
                assert cur.start >= prev.end - 1e-15, (
                    f"{name}:{resource} segments overlap"
                )

    def test_empty_timeline_falls_back_to_opaque_device(self):
        from repro.sim.stats import SimResult

        result = SimResult("cpu", "hnsw", "synthetic", 4, 1.5)
        assert result.pipeline_stages() == [("device", 1.5)]
        result.validate_timeline()

    def test_validate_rejects_double_booking(self):
        from repro.sim.stats import PhaseSegment, SimResult

        result = SimResult(
            "cpu", "hnsw", "synthetic", 4, 1.0,
            timeline=[
                PhaseSegment("a", 0.0, 0.6, resource="engine"),
                PhaseSegment("b", 0.4, 0.9, resource="engine"),
            ],
        )
        with pytest.raises(ValueError, match="double-booked"):
            result.validate_timeline()

    def test_validate_rejects_out_of_bounds(self):
        from repro.sim.stats import PhaseSegment, SimResult

        result = SimResult(
            "cpu", "hnsw", "synthetic", 4, 1.0,
            timeline=[PhaseSegment("a", 0.5, 1.5, resource="engine")],
        )
        with pytest.raises(ValueError, match="outside"):
            result.validate_timeline()


class TestExperimentsIntegration:
    def test_run_platform_goes_through_registry(self):
        """`experiments.common.run_platform` has no per-platform branches."""
        import inspect

        from repro.experiments import common

        source = inspect.getsource(common.run_platform)
        assert "platform_registry.get" in source
        assert "CPUModel" not in source
