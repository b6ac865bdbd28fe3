"""Golden digests of every registered platform's priced output.

Each digest pins one platform's :class:`SimResult` on a small, fixed
workload: ``sim_time_s`` (as ``repr``), the sorted counters, the
per-component busy seconds, the phase timeline and the energy.  The
locality metrics of :mod:`repro.analysis.locality` are pinned the same
way.  The HNSW workload prices plain traces; the DiskANN workload adds
a hot-vertex cache, so the cache-hit paths of every model are covered.

A refactor of trace storage or of any platform's pricing must leave
every digest unchanged.  The data is generated here from a private
seed, so the digests do not depend on which other tests ran first.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro import platform as platform_api
from repro.analysis.locality import (
    accessed_vector_fraction,
    batch_page_accesses,
    lun_coverage,
    page_access_ratio,
)
from repro.ann import DiskANNIndex, DiskANNParams, HNSWIndex, HNSWParams
from repro.core import NDSearch
from repro.core.config import HostConfig, NDSearchConfig
from repro.flash.geometry import SSDGeometry
from repro.flash.timing import FlashTiming
from repro.serving.backends import dataset_profile

PLATFORMS = ("cpu", "cpu-t", "gpu", "smartssd", "ds-c", "ds-cp", "ndsearch")

SIM_GOLDENS = {
    ("hnsw", "cpu"):
        "eeaeb76b5b0cd0b9e57a6ce8fba8311a3fdacb25ab89053e1c10bba1ac2eee58",
    ("hnsw", "cpu-t"):
        "169d4de70b4535fa8ec9cd24a65bf888684f07c50c5c7c4d57d5dd5c12c0c07f",
    ("hnsw", "gpu"):
        "6fb8e7bdc15490bda9d3fa58d86223507d10e66a0068b88074c8d07cff89f11b",
    ("hnsw", "smartssd"):
        "0dde0de4d15bfc7df746a08a66b73190e665bef811d39ec40b76a86b387865f5",
    ("hnsw", "ds-c"):
        "af5af3049dd8a1a6af0167acb198226891b7cf06760a70e17bc51e4410e8bad5",
    ("hnsw", "ds-cp"):
        "69473a12430b3052fe903e3f812cf1715b5a7580fb75bdb4120bd1d4b1f75822",
    ("hnsw", "ndsearch"):
        "633005ffddcd908296aa5dbc3c052ad3d669f8f3902c9ddadd0c497945135b3b",
    ("diskann", "cpu"):
        "bf4b1fccf9aa565eb6ed0f09ebe5088c19b0d85bc37699f64b72d717d8893aae",
    ("diskann", "cpu-t"):
        "111c680aa9baac95851b3061b6d01b40af77b9ddfb6f2f0075f02283cf150f23",
    ("diskann", "gpu"):
        "481ddf1833c38d5dcf33e5c25532596d14272e8e92478cdf78ee7c483f882c02",
    ("diskann", "smartssd"):
        "74e2f4d1e2b046edc8d8a102455b74831cc63656cfdb3f1a63f7af43f28c5adc",
    ("diskann", "ds-c"):
        "1af5baf0cb4a8aa87e642a52dd8f12a23177905feaab046147a0ee81e1bdd948",
    ("diskann", "ds-cp"):
        "f2235717340c8dcf9e12285a5022def68d788efed349d13104b9aa7287ce2e81",
    ("diskann", "ndsearch"):
        "2c27b9c8b4cc7d99fc5b2531992fd5756e7af73423763a8dd2115e16522de86e",
}

LOCALITY_GOLDENS = {
    "hnsw": "fe912196eff1ee973bcbcd0f868a370777b1c23fcc38abe74f1a0acde996c20c",
    "diskann": "0fc3ad3471a9fe06b5b0ee2cdec16281455d3395f636f688e2bd56b94d45ac4c",
}


def _config() -> NDSearchConfig:
    # 2 channels x 2 chips x 2 LUNs x 2 planes: several LUNs under each
    # DeepStore accelerator, so bus contention shows in the digests.
    geometry = SSDGeometry(
        channels=2,
        chips_per_channel=2,
        luns_per_chip=2,
        planes_per_lun=2,
        blocks_per_plane=8,
        pages_per_block=8,
        page_size=1024,
    )
    return NDSearchConfig(
        geometry=geometry,
        timing=FlashTiming(read_page_s=20e-6),
        host=HostConfig(
            dram_capacity_bytes=64 * 1024, vram_capacity_bytes=64 * 1024
        ),
        dram_bytes=16 * 1024**2,
        max_queries_per_lun=2,
    )


def _digest(parts) -> str:
    return hashlib.sha256(repr(parts).encode()).hexdigest()


def _sim_digest(result) -> str:
    return _digest((
        repr(result.sim_time_s),
        sorted(result.counters.items()),
        sorted(result.component_busy_s.items()),
        list(result.timeline),
        repr(result.energy_j),
    ))


def _build_workloads():
    """``(config, {name: (system, traces, profile, hot)})``."""
    rng = np.random.default_rng(20240601)
    centers = rng.normal(size=(6, 16))
    assign = rng.integers(0, 6, size=300)
    vectors = (centers[assign] + 0.3 * rng.normal(size=(300, 16))).astype(
        np.float32
    )
    picks = rng.integers(0, 300, size=12)
    queries = vectors[picks] + 0.05 * rng.normal(size=(12, 16)).astype(
        np.float32
    )
    config = _config()
    out = {}
    indexes = {
        "hnsw": HNSWIndex(vectors, HNSWParams(M=6, ef_construction=24)),
        "diskann": DiskANNIndex(vectors, DiskANNParams(R=8, L=16)),
    }
    for name, index in indexes.items():
        # DiskANN picks its hot vertices from the visits this search
        # leaves behind, so the system is built after it.
        _, _, traces = index.search_batch(queries, 5, ef=20)
        system = NDSearch(index=index, config=config)
        hot = (
            index.hot_vertices(config.hot_cache_fraction)
            if name == "diskann"
            else None
        )
        out[name] = (system, traces, dataset_profile(vectors, index), hot)
    return config, out


@pytest.fixture(scope="module")
def workloads():
    return _build_workloads()


@pytest.mark.parametrize("workload", ("hnsw", "diskann"))
@pytest.mark.parametrize("name", PLATFORMS)
def test_platform_output_matches_golden(workloads, workload, name):
    config, table = workloads
    system, traces, profile, hot = table[workload]
    model = platform_api.get(name, config, system=system)
    result = model.simulate(
        traces, profile, algorithm=workload, dataset="golden",
        cached_vertices=hot,
    )
    assert _sim_digest(result) == SIM_GOLDENS[(workload, name)]


@pytest.mark.parametrize("workload", ("hnsw", "diskann"))
def test_locality_metrics_match_golden(workloads, workload):
    _, table = workloads
    system, traces, profile, _ = table[workload]
    placement = system.placement
    parts = (
        repr(page_access_ratio(traces, placement)),
        repr(accessed_vector_fraction(traces, placement, profile.vector_bytes)),
        repr(lun_coverage(traces, placement)),
        batch_page_accesses(traces, placement, shared=True),
        batch_page_accesses(traces, placement, shared=False),
    )
    assert _digest(parts) == LOCALITY_GOLDENS[workload]
