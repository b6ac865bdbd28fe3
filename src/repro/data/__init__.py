"""Synthetic datasets standing in for the paper's five benchmarks.

The paper evaluates on glove-100, fashion-mnist, sift-1b, deep-1b and
spacev-1b.  Billion-scale corpora are neither shippable nor needed to
reproduce the *architectural* results — what matters is each dataset's
dimensionality, value distribution, metric and, crucially, whether its
footprint exceeds host/GPU memory in the scaled world.
:mod:`repro.data.datasets` provides named scaled analogues with those
properties (its docstring holds the substitution table).
"""

from repro.data.synthetic import (
    clustered_gaussian,
    quantized_descriptors,
    unit_normalized,
)
from repro.data.datasets import Dataset, dataset_names, load_dataset

__all__ = [
    "clustered_gaussian",
    "quantized_descriptors",
    "unit_normalized",
    "Dataset",
    "dataset_names",
    "load_dataset",
]
