"""NDSearch core: the paper's contribution.

* :mod:`repro.core.config` — system configuration presets.
* :mod:`repro.core.luncsr` — the LUNCSR graph format (CSR + LUN/BLK arrays).
* :mod:`repro.core.placement` — vertex-to-flash mapping (Fig. 11).
* :mod:`repro.core.static_scheduling` — degree-ascending BFS reordering
  and the bandwidth metric beta (Eq. 1).
* :mod:`repro.core.speculative` — speculative searching (Section VI-B2).
* :mod:`repro.core.vgenerator` / :mod:`repro.core.allocator` /
  :mod:`repro.core.sin` — the SearSSD functional units.
* :mod:`repro.core.searssd` — the SearSSD timing model (round-based
  replay of search traces, Algorithm 1).
* :mod:`repro.core.ndsearch` — the complete system and public API.
"""

from repro.core.config import NDSearchConfig, SchedulingFlags
from repro.core.placement import VertexPlacement, map_vertices
from repro.core.luncsr import LUNCSR
from repro.core.static_scheduling import (
    bandwidth_beta,
    degree_ascending_bfs,
    random_bfs,
)
from repro.core.speculative import select_speculative_candidates
from repro.core.searssd import SearSSDModel
from repro.core.ndsearch import NDSearch

__all__ = [
    "NDSearchConfig",
    "SchedulingFlags",
    "VertexPlacement",
    "map_vertices",
    "LUNCSR",
    "bandwidth_beta",
    "degree_ascending_bfs",
    "random_bfs",
    "select_speculative_candidates",
    "SearSSDModel",
    "NDSearch",
]
