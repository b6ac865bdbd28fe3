"""Golden digests of every index's ``search_batch`` output.

Each digest pins one (index, metric) pair on a small, fixed corpus: the
result ID and distance bytes, and for every trace its ``query_id``, its
``entries``/``offsets``/``computed`` columns and its result columns.
DiskANN's digest also covers ``hot_vertices(0.2)`` after the search,
which depends on the order the search counted its visits in.

The parity digests and platform goldens price traces, not distances,
so a search kernel that returned wrong distances (say, L2 from an
ANGULAR index) would pass them.  These digests catch it.  They were
recorded with the per-query search loop, before the lockstep kernel
existed, and a rewrite of the search kernels must leave every one
unchanged.  The batch spans several lockstep chunks, so chunk
boundaries are covered.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.ann import (
    DiskANNIndex,
    DiskANNParams,
    HCNNGIndex,
    HCNNGParams,
    HNSWIndex,
    HNSWParams,
    IVFFlatIndex,
    IVFParams,
    TOGGIndex,
    TOGGParams,
)
from repro.ann.distance import DistanceMetric

K = 5
EF = 20
NUM_QUERIES = 80

BUILDERS = {
    "hnsw": lambda v, m: HNSWIndex(v, HNSWParams(M=6, ef_construction=24), m),
    "diskann": lambda v, m: DiskANNIndex(v, DiskANNParams(R=8, L=16), m),
    "hcnng": lambda v, m: HCNNGIndex(v, HCNNGParams(num_clusterings=4), m),
    "togg": lambda v, m: TOGGIndex(v, TOGGParams(knn=8), m),
    "ivf": lambda v, m: IVFFlatIndex(v, IVFParams(n_lists=16, nprobe=4), m),
}

GOLDENS = {
    ("hnsw", "euclidean"):
        "09cff7434256acec7c49261bf37b7cf3651d7740e4d95857fe0e6b8c32963b9c",
    ("hnsw", "angular"):
        "372959c0c44cc40adc8159be57561b8461e246248a96a33dbcbcbbd4882f600e",
    ("hnsw", "inner_product"):
        "07627fb6b62f235e4ddc2c5f09c41c4af549fcca900f2df4c0bbbf9af63e95ae",
    ("diskann", "euclidean"):
        "edcaf322c1d0bb3074d5cbc779bb11f10d027119d4d7d8a9ed62774197dc9683",
    ("diskann", "angular"):
        "c9756ab18fe34a384b794d549ad19c164b51f9467b5b5b80094c062bdf07c2fb",
    ("diskann", "inner_product"):
        "74fa6c9b1b3e4f12fc4605d1f8511a82654aa38b69010b7156111d13df9abcad",
    ("hcnng", "euclidean"):
        "d37be5ee6372e43f915b77fc92838a9bff1822dac21b802b4551048a44161e0c",
    ("hcnng", "angular"):
        "e3dc3556548ef5532f9a375ae060f2e30877526c0589b58aabe793e312c871b7",
    ("hcnng", "inner_product"):
        "76baacc97790dce88b9e97cbd4464ca0a6ae76439bea654ccc5d6c943444c92e",
    ("togg", "euclidean"):
        "2aaff2291d1641c292355e1c92eb24ad844458fec39cc1ac72bd90203f4c7f8d",
    ("togg", "angular"):
        "737d09afea341c868c4b3d4606a03d9a7b510c626e701e9cf60a1ef9242f1279",
    ("togg", "inner_product"):
        "c1970f795161984105a7992997d15774e05908208122a13fa83388d8ffffd332",
    ("ivf", "euclidean"):
        "48266d5bb8cf7977fe586a77f55344c00d59acccadc0251ad009473535041683",
    ("ivf", "angular"):
        "575be20a7ac673005e4226323c6eb4256150438279864f1967c34ac2a1414a93",
    ("ivf", "inner_product"):
        "97dace3c45fe249a67e8b74340a755663801e4b3f5da18aaf10f00b3af27903d",
}


def _data() -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(20241018)
    centers = rng.normal(size=(6, 16))
    assign = rng.integers(0, 6, size=300)
    vectors = (centers[assign] + 0.3 * rng.normal(size=(300, 16))).astype(
        np.float32
    )
    picks = rng.integers(0, 300, size=NUM_QUERIES)
    queries = vectors[picks] + 0.05 * rng.normal(size=(NUM_QUERIES, 16)).astype(
        np.float32
    )
    return vectors, queries


def search_digest(algorithm: str, metric: DistanceMetric) -> str:
    vectors, queries = _data()
    index = BUILDERS[algorithm](vectors, metric)
    ids, dists, traces = index.search_batch(queries, K, ef=EF)
    h = hashlib.sha256()
    h.update(ids.tobytes())
    h.update(dists.tobytes())
    for trace in traces:
        h.update(repr(trace.query_id).encode())
        for column in (trace.entries, trace.offsets, trace.computed):
            h.update(column.tobytes())
        h.update(np.asarray(trace.result_ids, dtype=np.int64).tobytes())
        h.update(np.asarray(trace.result_distances, dtype=np.float64).tobytes())
    if algorithm == "diskann":
        h.update(index.hot_vertices(0.2).tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("metric", list(DistanceMetric), ids=lambda m: m.value)
@pytest.mark.parametrize("algorithm", sorted(BUILDERS))
def test_search_batch_matches_golden(algorithm, metric):
    assert search_digest(algorithm, metric) == GOLDENS[(algorithm, metric.value)]


if __name__ == "__main__":
    # Print the table above (run from the repo root with PYTHONPATH=src).
    for algorithm, metric_name in GOLDENS:
        digest = search_digest(algorithm, DistanceMetric(metric_name))
        print(f'    ("{algorithm}", "{metric_name}"): "{digest}",')
