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

from bisect import bisect_right
from dataclasses import dataclass, field

import numpy as np

from repro.ann.graph import ProximityGraph
from repro.ann.trace import SearchTrace, stack_traces
from repro.core.config import NDSearchConfig
from repro.core.placement import map_vertices
from repro.core.processing_model import NDPProcessingModel
from repro.core.searssd import SearSSDDevice, SearSSDModel
from repro.core.speculative import rank_by_round
from repro.core.static_scheduling import degree_ascending_bfs, random_bfs
from repro.flash.ecc import LDPCModel
from repro.sim.energy import EnergyModel
from repro.sim.stats import SimResult


#: Neighbour entries (the sum of ``graph.degrees`` over the computed
#: vertices) that :func:`precompute_speculative_sets` ranks in one
#: :func:`~repro.core.speculative.rank_by_round` call.  Swept on the
#: captured inputs of the e2e benchmark's paper-fig13 (128 traces of
#: about 7k entries each) and cold-unique-batch (11 batches of about
#: 62k entries) workloads at seed 31, median ms per repetition on a
#: 2-vCPU x86-64 VM:
#:
#: ==============  ===========  =================
#: budget          paper-fig13  cold-unique-batch
#: ==============  ===========  =================
#: one trace       37           52
#: 8k entries      38           32
#: 16k–64k         33–35        28–31
#: whole batch     69           33
#: ==============  ===========  =================
SPECULATIVE_GROUP_ENTRIES = 1 << 15


def precompute_speculative_sets(
    graph: ProximityGraph,
    computed: np.ndarray,
    offsets: np.ndarray,
    trace_rounds: np.ndarray,
    width: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Speculative candidate sets of a batch of traces, as columns.

    The traces come stacked as :func:`~repro.ann.trace.stack_traces`
    stacks them, with ``computed`` in ``graph``'s vertex numbering.
    Returns ``(ids, bounds)`` over the global rounds:
    ``ids[bounds[g]:bounds[g + 1]]`` is what the Pref Unit would
    prefetch during round ``g`` (second-order neighbors of that
    round's computed vertices, ranked by connectivity back into the
    set).  Depends only on the graph and the traces: :class:`NDSearch`
    computes it for a batch's new traces when it compiles their replays.

    The traces are cut at trace boundaries into groups of consecutive
    traces, each ranked by one :func:`rank_by_round` call over its
    rounds (numbered from the group's first round, so every round keeps
    its own set and the cut cannot change one).  A group takes traces
    while their neighbour entries stay within
    :data:`SPECULATIVE_GROUP_ENTRIES`; a trace larger than that is a
    group of its own.  The bound is a measured middle: a call per trace
    pays numpy's fixed per-call cost hundreds of times, and one call
    over the whole batch runs its passes over multi-MB temporaries that
    fall out of cache.
    """
    n_total = int(trace_rounds[-1])
    bounds = np.zeros(n_total + 1, dtype=np.int64)
    rounds = np.repeat(np.arange(n_total, dtype=np.int64), np.diff(offsets))
    # Neighbour entries before each trace; a group ends at the last
    # trace boundary within the budget of its start.
    entries = np.zeros(computed.size + 1, dtype=np.int64)
    np.cumsum(graph.degrees[computed], out=entries[1:])
    before = entries[offsets[trace_rounds]].tolist()
    cuts = trace_rounds.tolist()
    parts = [np.empty(0, dtype=np.int64)]
    kept = 0
    t, n_traces = 0, len(cuts) - 1
    while t < n_traces:
        end = max(
            bisect_right(before, before[t] + SPECULATIVE_GROUP_ENTRIES) - 1,
            t + 1,
        )
        lo, hi = cuts[t], cuts[end]
        v_lo, v_hi = offsets[lo], offsets[hi]
        ids, own = rank_by_round(
            graph, computed[v_lo:v_hi], rounds[v_lo:v_hi] - lo, hi - lo,
            width,
        )
        bounds[lo + 1:hi + 1] = own[1:] + kept
        kept += ids.size
        parts.append(ids)
        t = end
    return np.concatenate(parts), bounds


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
        entry can only hit for its own trace.

        A batch's new traces are resolved and compiled together: their
        ``computed`` columns are stacked over one global round
        numbering and remapped to physical IDs in one gather, their
        speculative sets come back as one pair of columns, and
        :meth:`SearSSDModel.compile_batch` compiles them all in one
        pass and cuts out each trace's replay.
        """
        cache = self._compiled
        compiled = {t: cache.get(t) for t in traces}
        fresh = [t for t, c in compiled.items() if c is None]
        if fresh:
            computed, offsets, trace_rounds = stack_traces(fresh)
            computed = self.new_id[computed]
            spec = None
            if self.config.flags.speculative:
                spec = precompute_speculative_sets(
                    self.graph, computed, offsets, trace_rounds,
                    self.config.speculative_width,
                )
            pieces = self._model.compile_batch(
                computed, offsets, trace_rounds, spec
            )
            for trace, piece in zip(fresh, pieces):
                compiled[trace] = piece
                if len(cache) >= 8192:
                    cache.pop(next(iter(cache)))
                cache[trace] = piece
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
