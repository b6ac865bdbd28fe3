"""NDSearch: the complete system and its public API.

An :class:`NDSearch` instance wraps a built ANNS index (HNSW, DiskANN,
HCNNG or TOGG — anything exposing ``search_batch`` and ``base_graph``),
applies static scheduling (degree-ascending BFS reordering when
enabled), maps the reordered graph onto the SearSSD flash array, and
offers two execution paths:

* :meth:`search_batch` — the fast path used by experiments: the search
  runs functionally on the host index (recording access traces), the
  traces are remapped to the reordered/physical vertex IDs and replayed
  on the :class:`~repro.core.searssd.SearSSDModel` timing simulator.
  Returns real top-k results *and* a :class:`~repro.sim.stats.SimResult`
  with simulated latency, counters and energy.

* :meth:`search_batch_functional` — the validation path: Algorithm 1
  executed end-to-end through the functional SearSSD device (NAND page
  buffers, SiN MACs, FPGA bitonic sorter).  Bit-identical to a host
  beam search over the same graph; integration tests rely on this.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.ann.graph import ProximityGraph
from repro.ann.trace import SearchTrace, remap_trace
from repro.core.config import NDSearchConfig
from repro.core.placement import map_vertices
from repro.core.processing_model import NDPProcessingModel
from repro.core.searssd import SearSSDDevice, SearSSDModel
from repro.core.speculative import rank_by_round
from repro.core.static_scheduling import degree_ascending_bfs, random_bfs
from repro.flash.ecc import LDPCModel
from repro.sim.energy import EnergyModel
from repro.sim.stats import SimResult


def precompute_speculative_sets(
    traces: list[SearchTrace], graph: ProximityGraph, width: int
) -> list[list[np.ndarray]]:
    """Per-query, per-iteration speculative candidate sets.

    ``sets[q][i]`` is what the Pref Unit would prefetch during query
    ``q``'s iteration ``i`` (second-order neighbors of that iteration's
    computed vertices, ranked by connectivity back into the set).
    Depends only on the graph and the trace: :class:`NDSearch` computes
    it once per trace, when it compiles the trace's replay.
    Each trace resolves in one :func:`rank_by_round` pass, and its sets
    are slices of one compact array holding only the kept vertices.
    """
    out: list[list[np.ndarray]] = []
    for trace in traces:
        n_rounds = trace.num_iterations
        ids, bounds = rank_by_round(
            graph, trace.computed, trace.rounds, n_rounds, width
        )
        b = bounds.tolist()
        out.append([ids[b[r]:b[r + 1]] for r in range(n_rounds)])
    return out


@dataclass
class NDSearch:
    """The NDSearch system: index + static scheduling + SearSSD.

    Parameters
    ----------
    index:
        A built ANNS index (e.g. :class:`repro.ann.hnsw.HNSWIndex`).
    config:
        System configuration; ``config.flags`` selects which of the
        paper's techniques are active.
    reorder_seed:
        Seed for the ``random_bfs`` alternative (``reorder_mode``).
    reorder_mode:
        ``"ours"`` (degree-ascending BFS, the paper's method),
        ``"random_bfs"`` (prior-work baseline) or ``"none"``.
        Only consulted when ``config.flags.reorder`` is set.
    """

    index: object
    config: NDSearchConfig
    reorder_mode: str = "ours"
    reorder_seed: int = 0
    hard_failure_prob: float = 0.01

    graph: ProximityGraph = field(init=False)
    order: np.ndarray = field(init=False)
    new_id: np.ndarray = field(init=False)
    _model: SearSSDModel = field(init=False, repr=False)
    _device: SearSSDDevice | None = field(default=None, init=False, repr=False)
    _compiled: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self) -> None:
        base = self.index.base_graph()
        n = base.num_vertices
        if self.config.flags.reorder:
            if self.reorder_mode == "ours":
                self.order = degree_ascending_bfs(base)
            elif self.reorder_mode == "random_bfs":
                self.order = random_bfs(base, seed=self.reorder_seed)
            elif self.reorder_mode == "none":
                self.order = np.arange(n, dtype=np.int64)
            else:
                raise ValueError(f"unknown reorder mode {self.reorder_mode!r}")
        else:
            self.order = np.arange(n, dtype=np.int64)
        self.new_id = np.empty(n, dtype=np.int64)
        self.new_id[self.order] = np.arange(n)
        self.graph = base.relabeled(self.order)
        vector_bytes = self.graph.dim * self.graph.vectors.itemsize
        scheme = "multiplane" if self.config.flags.multiplane else "interleaved"
        placement = map_vertices(
            n, self.config.geometry, vector_bytes, scheme=scheme
        )
        cached = self._cached_vertices()
        self._model = SearSSDModel(
            config=self.config,
            placement=placement,
            dim=self.graph.dim,
            ldpc=LDPCModel(hard_failure_prob=self.hard_failure_prob),
            cached_vertices=cached,
        )

    @property
    def placement(self):
        """The physical vertex placement of the reordered graph.

        Exposed for layout-sharing platform models (the paper builds
        DS-c/DS-cp on the same static data layout as NDSearch).
        """
        return self._model.placement

    def _cached_vertices(self) -> np.ndarray | None:
        """Hot vertices cacheable in internal DRAM (DiskANN mode)."""
        hot = getattr(self.index, "hot_vertices", None)
        if hot is None:
            return None
        vertices = hot(self.config.hot_cache_fraction)
        return self.new_id[vertices]

    # ---- fast (trace-replay) path ----------------------------------------------
    def search_batch(
        self,
        queries: np.ndarray,
        k: int,
        ef: int | None = None,
        dataset: str = "synthetic",
        algorithm: str | None = None,
    ) -> tuple[np.ndarray, np.ndarray, SimResult]:
        """Search a batch; returns (ids, distances, SimResult).

        IDs are in the *original* dataset numbering (the reordering is
        an internal physical-layout concern, invisible to callers).
        """
        ids, dists, traces = self.index.search_batch(queries, k, ef=ef)
        result = self.simulate_traces(
            traces,
            dataset=dataset,
            algorithm=algorithm or type(self.index).__name__.lower(),
        )
        return ids, dists, result

    def _resolve_trace(self, trace: SearchTrace):
        """The trace remapped to physical IDs, and its speculative sets
        (``None`` with speculation off)."""
        remapped = remap_trace(trace, self.new_id)
        spec = None
        if self.config.flags.speculative:
            spec = precompute_speculative_sets(
                [remapped], self.graph, self.config.speculative_width
            )[0]
        return remapped, spec

    def simulate_traces(
        self,
        traces: list[SearchTrace],
        dataset: str = "synthetic",
        algorithm: str = "hnsw",
    ) -> SimResult:
        """Replay pre-recorded traces on the SearSSD timing model.

        A trace's compiled replay depends only on the single trace and
        the immutable graph/config, never on batch composition, so it
        is cached by the trace itself: a trace that recurs across
        batches (the serving layer memoizes per-query searches)
        compiles once, and a repeated batch of the same compiled
        replays is answered from the model's memo.  ``SearchTrace``
        hashes by identity and the key keeps its trace alive, so an
        entry can only hit for its own trace.  A batch's new traces are
        all resolved before any is compiled: resolving walks the graph
        and compiling the placement, and keeping one phase's arrays
        warm in cache is faster than alternating them trace by trace.
        """
        cache = self._compiled
        compiled = {t: cache.get(t) for t in traces}
        fresh = [(t, self._resolve_trace(t))
                 for t, c in compiled.items() if c is None]
        for trace, resolved in fresh:
            compiled[trace] = self._model.compile(*resolved)
            if len(cache) >= 8192:
                cache.pop(next(iter(cache)))
            cache[trace] = compiled[trace]
        result = self._model.run_batch(
            [compiled[t] for t in traces],
            algorithm=algorithm, dataset=dataset,
        )
        EnergyModel.ndsearch().attach(result)
        return result

    # ---- functional (hardware datapath) path ----------------------------------------
    def device(self) -> SearSSDDevice:
        """Lazily build the functional SearSSD device."""
        if self._device is None:
            self._device = SearSSDDevice(self.graph, self.config)
        return self._device

    def search_batch_functional(
        self, queries: np.ndarray, k: int, ef: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Run Algorithm 1 through the functional hardware path.

        Results come back in original dataset numbering.
        """
        model = NDPProcessingModel(self.device(), ef=ef, k=k)
        ids, dists = model.run_batch(np.ascontiguousarray(queries, dtype=np.float32))
        mapped = np.where(ids >= 0, self.order[np.clip(ids, 0, None)], -1)
        return mapped, dists
