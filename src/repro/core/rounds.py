"""Round-kernel helpers shared by the one-pass batch pricers.

SearSSD (:mod:`repro.core.searssd`) and DeepStore
(:mod:`repro.baselines.deepstore`) price every round of a batch at once
over round-tagged columns, and must stay bit-exact with a per-round
replay that adds its floats one at a time.  These helpers are the
pieces both need: run heads and distinct values on sorted tags, and
sums that add strictly left to right.
"""

from __future__ import annotations

import numpy as np


def run_heads(values: np.ndarray) -> np.ndarray:
    """Mask of the first element of every run of equal ``values``.

    On sorted values this yields what ``np.unique`` does — the heads
    are the distinct values — at a fraction of its cost on the small
    arrays a trace or sub-batch holds.
    """
    return np.concatenate(([True], values[1:] != values[:-1]))[: values.size]


def distinct(values: np.ndarray) -> np.ndarray:
    """The sorted distinct ``values``."""
    ordered = np.sort(values)
    return ordered[run_heads(ordered)]


def ordered_sums(values: np.ndarray, seg: np.ndarray, n_seg: int) -> np.ndarray:
    """Per-segment sums of ``values`` rows, added strictly left to right.

    ``seg`` is each column's segment id, non-decreasing.  Columns land
    in a zero-padded ``(segment, position)`` matrix whose sequential
    ``cumsum`` reproduces a Python ``+=`` loop bit for bit; ``np.sum``
    and ``add.reduceat`` sum pairwise and may round differently.
    """
    starts = np.searchsorted(seg, np.arange(n_seg))
    pos = np.arange(seg.size) - starts[seg]
    width = int(pos.max()) + 1 if pos.size else 1
    mat = np.zeros((values.shape[0], n_seg, width))
    mat[:, seg, pos] = values
    return np.cumsum(mat, axis=2)[..., -1]


def ordered_total(values: np.ndarray) -> float:
    """``0.0 + values[0] + values[1] + ...``, added left to right."""
    return float(np.cumsum(np.concatenate(([0.0], values)))[-1])
