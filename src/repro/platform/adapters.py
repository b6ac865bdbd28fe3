"""Adapters giving every device model the `PlatformModel` interface.

Three shapes cover the repo:

* :class:`BaselinePlatform` — the stateless host-side models
  (CPU / CPU-T / GPU / SmartSSD) whose ``run_batch`` already consumes
  original-ID traces directly.
* :class:`NDSearchPlatform` — a built :class:`~repro.core.NDSearch`
  system; trace remapping to the reordered physical layout, the
  speculative-set cache and energy attachment all live inside
  ``simulate_traces``.
* :class:`DeepStorePlatform` — the DS-c/DS-cp models, which share
  NDSearch's static layout per the paper's methodology: the adapter
  hands the companion NDSearch system's vertex renumbering to
  ``run_batch``, which applies it once to the batch's computed column,
  and remaps the hot-vertex cache itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.ann.trace import SearchTrace
from repro.baselines.common import DatasetProfile
from repro.baselines.cpu import CPUModel
from repro.baselines.deepstore import DeepStoreModel
from repro.baselines.gpu import GPUModel
from repro.baselines.smartssd import SmartSSDModel
from repro.core.ndsearch import NDSearch
from repro.sim.stats import SimResult


@dataclass
class BaselinePlatform:
    """A host-side baseline model behind the platform interface."""

    model: CPUModel | GPUModel | SmartSSDModel
    name: str = field(default="")

    def __post_init__(self) -> None:
        if not self.name:
            self.name = self.model.platform

    def simulate(
        self,
        traces: list[SearchTrace],
        profile: DatasetProfile | None = None,
        *,
        algorithm: str = "hnsw",
        dataset: str | None = None,
        cached_vertices: np.ndarray | None = None,
    ) -> SimResult:
        if profile is None:
            raise ValueError(f"platform {self.name!r} needs a DatasetProfile")
        result = self.model.run_batch(
            traces, profile, algorithm, cached_vertices=cached_vertices
        )
        if dataset is not None:
            result.dataset = dataset
        return result


@dataclass
class NDSearchPlatform:
    """A built NDSearch system behind the platform interface.

    The hot-vertex cache is configured at system construction (from the
    index's ``hot_vertices``), so ``cached_vertices`` is ignored here —
    passing a different set per batch would contradict the device's
    provisioned internal-DRAM contents.
    """

    system: NDSearch
    name: str = "ndsearch"

    def simulate(
        self,
        traces: list[SearchTrace],
        profile: DatasetProfile | None = None,
        *,
        algorithm: str = "hnsw",
        dataset: str | None = None,
        cached_vertices: np.ndarray | None = None,
    ) -> SimResult:
        if dataset is None:
            dataset = profile.name if profile is not None else "synthetic"
        return self.system.simulate_traces(
            traces, dataset=dataset, algorithm=algorithm
        )


@dataclass
class DeepStorePlatform:
    """A DS-c / DS-cp model sharing an NDSearch system's static layout."""

    system: NDSearch
    model: DeepStoreModel
    name: str = field(default="")

    def __post_init__(self) -> None:
        if not self.name:
            self.name = self.model.platform

    def simulate(
        self,
        traces: list[SearchTrace],
        profile: DatasetProfile | None = None,
        *,
        algorithm: str = "hnsw",
        dataset: str | None = None,
        cached_vertices: np.ndarray | None = None,
    ) -> SimResult:
        if profile is None:
            raise ValueError(f"platform {self.name!r} needs a DatasetProfile")
        new_id = self.system.new_id
        hot = new_id[cached_vertices] if cached_vertices is not None else None
        result = self.model.run_batch(
            traces, profile, algorithm, cached_vertices=hot, new_id=new_id
        )
        if dataset is not None:
            result.dataset = dataset
        return result
