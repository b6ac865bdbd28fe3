"""Distance kernels for ANNS (Euclidean, angular, inner product).

These are the kernels the SiN engines execute in-flash (the 2-bit
"Distance" field of the ``<SearchPage>`` instruction selects among
them).  All kernels are *smaller is better*: inner product is negated
and angular is ``1 - cosine`` so every algorithm can minimise
uniformly.
"""

from __future__ import annotations

from enum import Enum

import numpy as np


class DistanceMetric(Enum):
    """Supported metrics, matching the instruction encoding."""

    EUCLIDEAN = "euclidean"
    ANGULAR = "angular"
    INNER_PRODUCT = "inner_product"

    @property
    def instruction_code(self) -> int:
        """2-bit code used by :class:`repro.flash.commands.SearchPage`."""
        return {"euclidean": 0, "angular": 1, "inner_product": 2}[self.value]


def distances_to_query(
    vectors: np.ndarray, query: np.ndarray, metric: DistanceMetric
) -> np.ndarray:
    """Distances from ``query`` (d,) to each row of ``vectors`` (m, d).

    The beam kernels (:mod:`repro.ann.search`) call it once per query
    and expanded vertex for ANGULAR and INNER_PRODUCT.  For EUCLIDEAN
    they, and HNSW's neighbor selection, call :func:`squared_euclidean`
    directly, which is this function's arithmetic without the shape
    checks.
    """
    if vectors.ndim != 2:
        raise ValueError(f"vectors must be 2-D, got shape {vectors.shape}")
    if query.shape != (vectors.shape[1],):
        raise ValueError(
            f"query shape {query.shape} incompatible with vectors {vectors.shape}"
        )
    if metric is DistanceMetric.EUCLIDEAN:
        return squared_euclidean(vectors, query)
    if metric is DistanceMetric.INNER_PRODUCT:
        return -vectors @ query
    if metric is DistanceMetric.ANGULAR:
        norms = np.linalg.norm(vectors, axis=1) * np.linalg.norm(query)
        norms = np.where(norms == 0.0, 1.0, norms)
        return 1.0 - (vectors @ query) / norms
    raise ValueError(f"unsupported metric {metric!r}")


def squared_euclidean(points: np.ndarray, at: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances of the rows of ``points`` (m, d) to
    ``at``: one point (d,), or one point per row (m, d).  No shape checks.

    One row-wise ``einsum``: a row's value does not depend on the other
    rows of the call, and ``(a - b)**2`` equals ``(b - a)**2`` exactly,
    so callers may group the same pairs into calls however they like
    and get the same bits.
    """
    diff = points - at
    return np.einsum("ij,ij->i", diff, diff)


def pairwise_distances(
    a: np.ndarray, b: np.ndarray, metric: DistanceMetric
) -> np.ndarray:
    """Full (n, m) distance matrix between row sets ``a`` and ``b``."""
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[1]:
        raise ValueError(f"incompatible shapes {a.shape} and {b.shape}")
    if metric is DistanceMetric.EUCLIDEAN:
        # (x - y)^2 = |x|^2 + |y|^2 - 2 x.y, clipped for numeric safety.
        sq_a = np.einsum("ij,ij->i", a, a)[:, None]
        sq_b = np.einsum("ij,ij->i", b, b)[None, :]
        d = sq_a + sq_b - 2.0 * (a @ b.T)
        return np.maximum(d, 0.0)
    if metric is DistanceMetric.INNER_PRODUCT:
        return -(a @ b.T)
    if metric is DistanceMetric.ANGULAR:
        na = np.linalg.norm(a, axis=1)[:, None]
        nb = np.linalg.norm(b, axis=1)[None, :]
        denom = na * nb
        denom = np.where(denom == 0.0, 1.0, denom)
        return 1.0 - (a @ b.T) / denom
    raise ValueError(f"unsupported metric {metric!r}")


def distance(a: np.ndarray, b: np.ndarray, metric: DistanceMetric) -> float:
    """Scalar distance between two vectors."""
    return float(distances_to_query(b[None, :], a, metric)[0])
