"""Shared fixtures: small datasets, graphs and device configurations.

Everything here is deliberately tiny (hundreds of vectors, a handful of
flash channels) so the full suite runs in seconds; the benchmarks
exercise the paper-scale ratios.
"""

from __future__ import annotations

import functools
import os

import numpy as np
import pytest
from hypothesis import settings

# Property tests run *randomized* by default: random example generation
# is what once surfaced the HNSW self-recall miss (a stored vector not
# returned at distance 0 for k=1, ef=8 — fixed since by multi-entry
# restart pivots, the nearest-neighbor in-link pass and the ef floor in
# HNSWIndex.search), and randomization is the suite's bug-finding
# power.  Set REPRO_DERANDOMIZE=1 to pin example generation (the
# fixed-seed fallback CI's tier-1 gate uses, so that gate stays
# deterministic while a separate CI job keeps hunting with fresh
# examples).
settings.register_profile("deterministic", derandomize=True)
settings.register_profile("randomized", derandomize=False)
settings.load_profile(
    "deterministic"
    if os.environ.get("REPRO_DERANDOMIZE", "") not in ("", "0")
    else "randomized"
)

from repro.ann import HNSWIndex, HNSWParams
from repro.ann.distance import DistanceMetric
from repro.ann.graph import ProximityGraph
from repro.core.config import HostConfig, NDSearchConfig, SchedulingFlags
from repro.flash.geometry import SSDGeometry
from repro.flash.timing import FlashTiming


@pytest.fixture()
def rng():
    """A fresh generator per test: draws never shift another fixture."""
    return np.random.default_rng(42)


@functools.cache
def _small_corpus() -> tuple[np.ndarray, np.ndarray]:
    """The (400, 16) corpus and its 16 queries, from one private seed."""
    gen = np.random.default_rng(42)
    centers = gen.normal(size=(8, 16))
    assign = gen.integers(0, 8, size=400)
    vectors = (centers[assign] + 0.3 * gen.normal(size=(400, 16))).astype(
        np.float32
    )
    picks = gen.integers(0, vectors.shape[0], size=16)
    noise = 0.05 * gen.normal(size=(16, 16)).astype(np.float32)
    return vectors, vectors[picks] + noise


@pytest.fixture(scope="session")
def small_vectors():
    """A clustered (400, 16) float32 corpus."""
    return _small_corpus()[0]


@pytest.fixture(scope="session")
def small_queries():
    return _small_corpus()[1]


@pytest.fixture(scope="session")
def small_hnsw(small_vectors):
    return HNSWIndex(small_vectors, HNSWParams(M=6, ef_construction=24))


@pytest.fixture(scope="session")
def small_graph(small_hnsw) -> ProximityGraph:
    return small_hnsw.base_graph()


@pytest.fixture(scope="session")
def tiny_geometry() -> SSDGeometry:
    """2 channels x 2 chips x 2 LUNs x 2 planes, 1 KB pages."""
    return SSDGeometry(
        channels=2,
        chips_per_channel=2,
        luns_per_chip=2,
        planes_per_lun=2,
        blocks_per_plane=8,
        pages_per_block=8,
        page_size=1024,
    )


@pytest.fixture()
def tiny_config(tiny_geometry) -> NDSearchConfig:
    return NDSearchConfig(
        geometry=tiny_geometry,
        timing=FlashTiming(read_page_s=20e-6),
        host=HostConfig(
            dram_capacity_bytes=64 * 1024, vram_capacity_bytes=64 * 1024
        ),
        flags=SchedulingFlags(),
        dram_bytes=16 * 1024**2,
    )


@pytest.fixture(scope="session")
def ring_graph() -> ProximityGraph:
    """A 32-vertex ring: deterministic topology for scheduling tests."""
    n = 32
    adjacency = [[(v - 1) % n, (v + 1) % n] for v in range(n)]
    vectors = np.arange(n, dtype=np.float32)[:, None].repeat(4, axis=1)
    return ProximityGraph.from_adjacency(vectors, adjacency)
