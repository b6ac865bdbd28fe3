"""SearSSD: the modified SSD device and its timing simulator.

Two layers:

* :class:`SearSSDDevice` — the *functional* device: a real
  :class:`repro.flash.ssd.SSD` with the graph's feature vectors
  programmed into NAND pages per the placement, LUNCSR built and
  mirrored to the FTL, one LUN-level accelerator per LUN, plus the
  Vgenerator, Allocator and FPGA sorter.  Used by the processing model
  (Algorithm 1) to compute real search results through the hardware
  path.

* :class:`SearSSDModel` — the *timing* simulator: a trace-driven,
  round-based replay in the style of the paper's SSD-Sim-based
  in-house simulator.  Each round advances every active query by one
  search iteration; page senses, multi-plane merges, channel-bus
  readouts, controller work, ECC faults and speculative prefetches are
  booked per component, and the round's critical path accumulates into
  the batch makespan.
"""

from __future__ import annotations

import numpy as np

from repro.ann.graph import ProximityGraph
from repro.core.allocator import Allocator
from repro.core.config import NDSearchConfig
from repro.core.luncsr import LUNCSR
from repro.core.placement import VertexPlacement, map_vertices
from repro.core.rounds import distinct, ordered_sums, run_heads
from repro.core.sin import LunAccelerator, SiNEngine
from repro.core.vgenerator import Vgenerator
from repro.flash.ecc import LDPCModel
from repro.flash.geometry import PhysicalAddress
from repro.flash.ssd import SSD
from repro.sim.stats import Counters, PhaseSegment, SimResult
from repro.sorting.fpga import FPGASorter


# =============================================================================
# Functional device
# =============================================================================
class SearSSDDevice:
    """A fully assembled, functional SearSSD holding one graph."""

    def __init__(self, graph: ProximityGraph, config: NDSearchConfig) -> None:
        self.config = config
        self.graph = graph
        self.ssd = SSD(geometry=config.geometry, timing=config.timing)
        self.vector_bytes = graph.dim * graph.vectors.itemsize
        scheme = "multiplane" if config.flags.multiplane else "interleaved"
        self.placement = map_vertices(
            graph.num_vertices, config.geometry, self.vector_bytes, scheme=scheme
        )
        self._program_vectors()
        self.luncsr = LUNCSR.build(graph, self.placement, self.vector_bytes)
        self.luncsr.attach_to_ftl(self.ssd.ftl)
        self.vgenerator = Vgenerator(self.luncsr, config.vgen_buffer_bytes)
        self.allocator = Allocator(self.luncsr, config.alloc_buffer_bytes)
        self.fpga = FPGASorter(timing=config.timing)
        self._accelerators: dict[int, LunAccelerator] = {}
        self.sin_engines: list[SiNEngine] = []
        self._build_sins()

    def _program_vectors(self) -> None:
        """Write every vertex's vector bytes into its flash page slot."""
        placement, geometry = self.placement, self.config.geometry
        page_bytes: dict[tuple[int, int, int, int], np.ndarray] = {}
        for v in range(self.graph.num_vertices):
            key = placement.page_key(v)
            buf = page_bytes.get(key)
            if buf is None:
                buf = np.zeros(geometry.page_size, dtype=np.uint8)
                page_bytes[key] = buf
            start = int(placement.slot[v]) * self.vector_bytes
            buf[start : start + self.vector_bytes] = np.frombuffer(
                self.graph.vectors[v].tobytes(), dtype=np.uint8
            )
        for (lun, plane, block, page), buf in page_bytes.items():
            self.ssd.program(
                PhysicalAddress(lun=lun, plane=plane, block=block, page=page), buf
            )

    def _build_sins(self) -> None:
        geometry = self.config.geometry
        for chip in self.ssd.chips:
            accelerators = []
            for lun in chip.luns:
                acc = LunAccelerator(
                    lun=lun,
                    geometry=geometry,
                    dim=self.graph.dim,
                    query_queue_capacity=self.config.max_queries_per_lun,
                )
                self._accelerators[lun.lun_index] = acc
                accelerators.append(acc)
            self.sin_engines.append(SiNEngine(accelerators=accelerators))

    def accelerator_of(self, lun: int) -> LunAccelerator:
        return self._accelerators[lun]

    def total_counters(self) -> Counters:
        total = Counters()
        total.update(self.vgenerator.counters)
        total.update(self.allocator.counters)
        total.update(self.fpga.counters)
        for engine in self.sin_engines:
            total.update(engine.counters)
        return total


# =============================================================================
# Timing simulator
# =============================================================================
class _CompiledTrace:
    """One trace's replay, pre-resolved to per-round LUN work.

    Everything about a single query's rounds — speculative hits, cache
    hits, per-LUN page keys, load/merge counts, the spec-prefetch
    contribution — is a pure function of the trace content, the
    speculative sets and the (immutable) model configuration.  The
    owner of the traces compiles each one once and reuses it across
    every batch it appears in; :meth:`SearSSDModel.compile_batch`
    compiles all of a batch's new traces in one pass and cuts this
    replay out of the result.  Only the cross-query aggregation (LUN
    pooling under dynamic allocation, the ECC fault stream, stage
    timing) remains batch-coupled and is redone per sub-batch.

    The replay is columnar over the trace's own rounds ``0 ..
    n_rounds - 1``, so a sub-batch stacks its traces with one
    ``concatenate`` per field:

    * ``rounds`` — int64 ``(len(ROUND_FIELDS), n_rounds)``, one row per
      :data:`ROUND_FIELDS` entry and one column per round;
    * ``groups`` — int64 ``(len(GROUP_FIELDS), n_groups)``, one column
      per ``(round, LUN)`` group of demand pages, in that order;
    * ``keys`` — the sorted distinct demand page keys, round-tagged as
      ``round * K + key`` (``K`` the device's page-key space);
    * ``spec_keys`` — every prefetched vertex's page key, tagged alike.

    ``serial`` is unique per model and never reused, so a tuple of
    serials names a batch composition.  A compiled trace owns its
    arrays: it keeps no reference to the trace, the speculative sets or
    the batch arrays it was cut from.
    """

    ROUND_FIELDS = ("round", "had", "pairs", "hits", "n_cached",
                    "spec_count", "spec_loads", "spec_merged")
    GROUP_FIELDS = ("round", "lun", "raw", "loads", "merged")

    __slots__ = ("rounds", "groups", "keys", "spec_keys",
                 "n_rounds", "trace_length", "serial")

    def __init__(self, rounds, groups, keys, spec_keys, n_rounds,
                 trace_length, serial) -> None:
        self.rounds = rounds
        self.groups = groups
        self.keys = keys
        self.spec_keys = spec_keys
        self.n_rounds = n_rounds
        self.trace_length = trace_length
        self.serial = serial


#: FIFO bound on a model's priced-batch memo.
_BATCH_MEMO_LIMIT = 4096

#: Timeline ``(stage, resource)`` labels, shared by every memo entry.
_HOST_IN = ("host_in", "host_in")
_SCHEDULE = ("schedule", "engine")
_SEARCH = ("search", "engine")
_GATHER = ("gather", "engine")
_SORT = ("sort", "sorter")
_HOST_OUT = ("host_out", "host_out")
#: Every label by stage index: host-in, then schedule/search/gather
#: per round, then sort and host-out.
_STAGE_LABELS = np.fromiter(
    (_HOST_IN, _SCHEDULE, _SEARCH, _GATHER, _SORT, _HOST_OUT),
    dtype=object, count=6,
)

#: Row of each field in a compiled trace's ``rounds`` array.
_ROW = {name: i for i, name in enumerate(_CompiledTrace.ROUND_FIELDS)}

#: Counters each query touches in a round, in the order it touches
#: them; ``_QUERY_PRESENT`` holds the row whose non-zero entries touch
#: each one and ``_QUERY_VALUE`` the row it sums.
_QUERY_COUNTERS = ("speculative_hits", "cache_hits", "distance_computations")
_QUERY_PRESENT = [_ROW["hits"], _ROW["n_cached"], _ROW["had"]]
_QUERY_VALUE = [_ROW["hits"], _ROW["n_cached"], _ROW["pairs"]]


class SearSSDModel:
    """Trace-driven timing simulation of one batch on SearSSD."""

    def __init__(
        self,
        config: NDSearchConfig,
        placement: VertexPlacement,
        dim: int,
        ldpc: LDPCModel | None = None,
        cached_vertices: np.ndarray | None = None,
    ) -> None:
        self.config = config
        self.placement = placement
        self.dim = dim
        self.ldpc = ldpc or LDPCModel(hard_failure_prob=0.01)
        g = config.geometry
        self._plane_span = g.blocks_per_plane * g.pages_per_block
        self._lun_span = self._plane_span * g.planes_per_lun
        self._key_space = g.total_luns * self._lun_span
        # Hot-vertex membership (DiskANN's internal-DRAM cache) as a
        # lookup table over the vertices.
        self._hot = None
        if cached_vertices is not None:
            self._hot = np.zeros(placement.num_vertices, dtype=bool)
            self._hot[np.asarray(cached_vertices, dtype=np.int64)] = True
        self._next_serial = 0
        # Priced batches keyed by their compiled traces' serials.
        # Config, placement and the hot-vertex set are fixed at
        # construction and the LDPC stream restarts every batch, so a
        # batch's price depends on nothing else.
        self._batches: dict[tuple, tuple] = {}

    # ---- helpers ---------------------------------------------------------------
    def _page_keys(self, vertices: np.ndarray) -> np.ndarray:
        return self.placement.page_keys(vertices)

    def _tagged_loads(self, tagged: np.ndarray, lo: np.ndarray, hi: np.ndarray):
        """Distinct pages and multi-plane merges per ``[lo, hi)`` range.

        ``tagged`` holds page keys offset by a multiple of the LUN span,
        which leaves each key's plane field intact.  Returns the sorted
        distinct keys, each range's start/stop into them, and each
        range's merge count: pages folded into another plane's sense of
        the same (block, page), i.e. distinct pages minus distinct
        plane-stripped pages.
        """
        uniq = distinct(tagged)
        plane = (uniq // self._plane_span) % self.config.geometry.planes_per_lun
        stripped = distinct(uniq - plane * self._plane_span)
        starts = np.searchsorted(uniq, lo)
        stops = np.searchsorted(uniq, hi)
        merged = (stops - starts) - (
            np.searchsorted(stripped, hi) - np.searchsorted(stripped, lo)
        )
        return uniq, starts, stops, merged

    # ---- main entry ----------------------------------------------------------------
    def run_batch(
        self,
        compiled: list[_CompiledTrace],
        algorithm: str = "hnsw",
        dataset: str = "synthetic",
    ) -> SimResult:
        """Simulate a batch of compiled traces (:meth:`compile_batch`),
        splitting into sub-batches if needed.

        A batch whose compiled traces were priced before is answered
        from the memo; every call returns a freshly built result, so
        callers may mutate it (``EnergyModel.attach`` does).
        """
        key = tuple(c.serial for c in compiled)
        priced = self._batches.get(key)
        if priced is None:
            priced = self._price_batch(compiled)
            if len(self._batches) >= _BATCH_MEMO_LIMIT:
                self._batches.pop(next(iter(self._batches)))
            self._batches[key] = priced
        makespan, counters, busy, labels, bounds = priced
        return SimResult(
            platform="ndsearch",
            algorithm=algorithm,
            dataset=dataset,
            batch_size=len(compiled),
            sim_time_s=makespan,
            counters=Counters(counters),
            component_busy_s=dict(busy),
            timeline=[
                PhaseSegment(stage, start, end, resource)
                for (stage, resource), (start, end) in zip(
                    labels, bounds.tolist()
                )
            ],
        )

    def _price_batch(self, compiled: list[_CompiledTrace]):
        """Price one batch: ``(makespan, counters, busy, labels, bounds)``.

        The timeline is stored compactly: ``labels`` holds each
        segment's ``(stage, resource)`` and ``bounds`` its start/end on
        the batch clock as a float64 ``(n, 2)`` array.
        """
        # Deterministic fault injection: the same batch always sees the
        # same hard-decode failure stream.
        self.ldpc.reset()
        capacity = self.config.max_batch_capacity
        counters = Counters()
        busy: dict[str, float] = {}
        labels: list[tuple[str, str]] = []
        spans: list[np.ndarray] = []
        makespan = 0.0
        for start in range(0, len(compiled), capacity):
            sub = compiled[start : start + capacity]
            t, c, b, sub_labels, sub_bounds = self._run_sub_batch(sub)
            # Sub-batch segments are relative to the sub-batch's own
            # start; shift them onto the batch clock.
            labels.extend(sub_labels)
            spans.append(sub_bounds + makespan)
            makespan += t
            counters.update(c)
            for key, val in b.items():
                busy[key] = busy.get(key, 0.0) + val
        bounds = np.concatenate(spans) if spans else np.empty((0, 2))
        return makespan, counters, busy, tuple(labels), bounds

    # ---- trace compilation -----------------------------------------------------------
    def compile_batch(
        self,
        computed: np.ndarray,
        offsets: np.ndarray,
        trace_rounds: np.ndarray,
        spec: tuple[np.ndarray, np.ndarray] | None = None,
    ) -> list[_CompiledTrace]:
        """Pre-resolve a batch of traces' rounds to per-LUN demand work.

        The traces come stacked over one global round numbering
        (:func:`~repro.ann.trace.stack_traces`): trace ``t`` owns rounds
        ``trace_rounds[t]`` to ``trace_rounds[t + 1] - 1``, and round
        ``g`` computed the physical vertices
        ``computed[offsets[g]:offsets[g + 1]]``.  ``spec`` holds the
        speculative sets as ``(ids, bounds)`` columns over the same
        rounds (ignored unless speculation is enabled).  Returns one
        compiled trace per trace, in batch order, each under a new
        serial; callers cache them.

        Every vertex is tagged with its global round (``g * V + v`` for
        speculative hits, ``g * K + key`` for page keys; ``V`` is the
        vertex count, ``K`` the device's page-key space), so one pass of
        sorts and bisections resolves every round of every trace.  Each
        trace's piece is then cut out at its round offsets and re-based
        to its own rounds.
        """
        flags = self.config.flags
        key_space = self._key_space
        n_vertices = self.placement.num_vertices
        trace_rounds = np.asarray(trace_rounds, dtype=np.int64)
        n_total = int(trace_rounds[-1])
        if n_total * key_space >= 2**63 or (n_total + 1) * n_vertices >= 2**63:
            raise ValueError(
                f"{n_total} rounds overflow the int64 round tags of a "
                f"{key_space}-page device; compile fewer traces at once"
            )
        n_iters = np.diff(trace_rounds)
        all_rounds = np.arange(n_total, dtype=np.int64)
        # The global number of each round's trace's round 0.
        base = np.repeat(trace_rounds[:-1], n_iters)
        sizes = np.diff(offsets)
        flat = computed
        rid = np.repeat(all_rounds, sizes)
        hits = n_cached = np.zeros(n_total, dtype=np.int64)
        spec_flat = spec_rid = rid[:0]
        spec_on = flags.speculative and spec is not None
        if spec_on:
            spec_ids, spec_bounds = spec
            spec_rid = np.repeat(all_rounds, np.diff(spec_bounds))
            # The set of round g is prefetched in g and can hit in
            # g + 1; a trace's last-round set is never prefetched (it
            # would otherwise credit the next trace's round 0).
            live = np.ones(n_total, dtype=bool)
            live[trace_rounds[1:][n_iters > 0] - 1] = False
            keep = live[spec_rid]
            spec_flat, spec_rid = spec_ids[keep], spec_rid[keep]
            # Speculative hits: vertices the previous round's overlap
            # window already computed.
            prefetched = np.sort((spec_rid + 1) * n_vertices + spec_flat)
            if prefetched.size:
                tags = rid * n_vertices + flat
                pos = np.searchsorted(prefetched, tags)
                mask = prefetched[np.minimum(pos, prefetched.size - 1)] == tags
                hits = np.bincount(rid[mask], minlength=n_total)
                flat, rid = flat[~mask], rid[~mask]
        # Internal-DRAM cache (DiskANN hot vertices).
        if self._hot is not None:
            mask = self._hot[flat]
            n_cached = np.bincount(rid[mask], minlength=n_total)
            flat, rid = flat[~mask], rid[~mask]
        pairs = np.bincount(rid, minlength=n_total)

        # Demand pages per (round, LUN): tagged keys sort round-major,
        # then LUN, so each group is one contiguous range.
        tagged = rid * key_space + self._page_keys(flat)
        lun_tags = np.sort(tagged // self._lun_span)
        heads = np.flatnonzero(run_heads(lun_tags))
        group_ids = lun_tags[heads]
        raw = np.append(heads[1:], lun_tags.size) - heads
        lo = group_ids * self._lun_span
        keys, starts, stops, merged = self._tagged_loads(
            tagged, lo, lo + self._lun_span
        )
        group_round, group_lun = np.divmod(
            group_ids, self.config.geometry.total_luns
        )
        groups = np.stack((group_round - base[group_round], group_lun, raw,
                           stops - starts, merged))

        # Each round's prefetch contribution (overlaps the next round's
        # scheduling window).  spec_loads/spec_merged pre-resolve the
        # common case of a single query prefetching in a round;
        # multi-query rounds must still pool the keys at batch time.
        spec_count = spec_loads = spec_merged = np.zeros(n_total, dtype=np.int64)
        spec_keys = tagged[:0]
        if spec_on:
            spec_keys = spec_rid * key_space + self._page_keys(spec_flat)
            edges = np.arange(n_total + 1, dtype=np.int64) * key_space
            _, starts, stops, spec_merged = self._tagged_loads(
                spec_keys, edges[:-1], edges[1:]
            )
            spec_count = np.bincount(spec_rid, minlength=n_total)
            spec_loads = stops - starts
        rounds = np.stack((all_rounds - base, sizes > 0, pairs, hits, n_cached,
                           spec_count, spec_loads, spec_merged))

        # Cut each trace's piece out at its round offsets, re-based to
        # its own rounds.  Pieces are copies, so a cached piece never
        # keeps the batch arrays alive.
        round_cut = trace_rounds.tolist()
        group_cut = np.searchsorted(group_round, trace_rounds).tolist()
        key_cut = np.searchsorted(keys, trace_rounds * key_space).tolist()
        spec_cut = np.searchsorted(spec_rid, trace_rounds).tolist()
        key_base = base * key_space
        keys = keys - key_base[keys // key_space]
        spec_keys = spec_keys - key_base[spec_rid]
        lengths = np.diff(offsets[trace_rounds]).tolist()
        pieces = []
        for t, (n_rounds, length) in enumerate(zip(n_iters.tolist(), lengths)):
            pieces.append(_CompiledTrace(
                rounds[:, round_cut[t]:round_cut[t + 1]].copy(),
                groups[:, group_cut[t]:group_cut[t + 1]].copy(),
                keys[key_cut[t]:key_cut[t + 1]].copy(),
                spec_keys[spec_cut[t]:spec_cut[t + 1]].copy(),
                n_rounds, length, self._next_serial,
            ))
            self._next_serial += 1
        return pieces

    # ---- one sub-batch ---------------------------------------------------------------
    def _run_sub_batch(self, compiled: list[_CompiledTrace]):
        """Price one sub-batch: ``(makespan, counters, busy, labels, bounds)``.

        Each round advances every active query by one search iteration
        through the scheduling, searching and gathering stages (Fig. 5),
        with speculative prefetch overlapping the next round.  All rounds
        and all ``(round, LUN)`` groups are priced in one pass over the
        stacked compiled traces.  Every float is accumulated in the order
        a per-round replay would add it (:func:`ordered_sums`, sequential
        ``cumsum``), so the result is bit-exact with it.
        """
        timing = self.config.timing
        flags = self.config.flags
        geometry = self.config.geometry
        n_luns = geometry.total_luns
        batch = len(compiled)
        n_rounds = max(c.n_rounds for c in compiled)
        mac_s = timing.distance_mac_s(self.dim)

        # Per-round batch totals.  Sorting the stacked round columns by
        # round (stably, so queries stay in batch order) walks them in
        # the order a per-round replay visits them.
        cols = np.concatenate([c.rounds for c in compiled], axis=1)
        cols = cols[:, np.argsort(cols[0], kind="stable")]
        per_round = np.add.reduceat(
            cols, np.searchsorted(cols[0], np.arange(n_rounds)), axis=1
        )
        (_, _, n_pairs, _, cached, spec_vertices, spec_loads,
         spec_merged) = per_round
        n_active = np.bincount(cols[0], minlength=n_rounds)

        # Scheduling stage: Vgenerator pipeline + Allocator dispatch.
        # Speculative searching launches the next iteration's Allocating
        # stage during the current Searching stage (Fig. 12), hiding the
        # scheduling latency of every round after the first.
        t_vgen = (n_active + 2) * timing.vgen_stage_s
        t_alloc = n_pairs * timing.alloc_dispatch_s
        dram_ops = 3 * n_active + 2 * n_pairs + cached
        t_dram_sched = dram_ops * timing.dram_access_s
        t_sched = np.maximum(t_vgen + t_alloc, t_dram_sched)
        if flags.speculative:
            t_sched[1:] = 0.0

        # Searching stage: pool the queries' (round, LUN) groups, then
        # walk them in the order a per-round replay first touches them
        # — by round, then by the first query needing the LUN, then by
        # LUN.  The ECC fault stream consumes its draws in this order.
        groups = np.concatenate([c.groups for c in compiled], axis=1)
        owner = np.repeat(np.arange(batch), [c.groups.shape[1] for c in compiled])
        key = groups[0] * n_luns + groups[1]
        by_key = np.argsort(key, kind="stable")
        key = key[by_key]
        heads = np.flatnonzero(run_heads(key))
        g_round, g_lun = np.divmod(key[heads], n_luns)
        n_queries = np.append(heads[1:], key.size) - heads
        first_query = owner[by_key[heads]]
        order = np.argsort((g_round * batch + first_query) * n_luns + g_lun)
        g_round, g_lun, n_queries = g_round[order], g_lun[order], n_queries[order]
        n_vectors, loads, merged = np.add.reduceat(
            groups[2:, by_key], heads, axis=1
        )[:, order]
        # Dynamic allocation pools each LUN's round demand: one sense
        # covers every query that needs the page, so a group's loads
        # and merges come from the *union* of its queries' page sets.
        # A single query's union is its own compiled set, so one pass
        # over every group's round-tagged keys is exact for all.
        if flags.dynamic_alloc and (n_queries > 1).any():
            lo = (g_round * n_luns + g_lun) * self._lun_span
            _, starts, stops, merged = self._tagged_loads(
                np.concatenate([c.keys for c in compiled]), lo,
                lo + self._lun_span,
            )
            loads = stops - starts
        if not flags.multiplane:
            merged = np.zeros_like(merged)
        # ECC fault injection: failed hard decodes fall back to the soft
        # decoder on the embedded cores and stall their LUN.
        failures = self.ldpc.decode_runs(loads)
        t_soft = failures * timing.ecc_soft_decode_s
        t_nand = (loads - merged) * (
            timing.read_page_s + timing.ecc_hard_decode_s
        ) + t_soft
        t_mac = n_vectors * mac_s
        lun_time = t_nand + t_mac
        nand_r, mac_r, queue_r, ecc_r, soft_r = ordered_sums(
            np.array((t_nand, t_mac, lun_time,
                      loads * timing.ecc_hard_decode_s, t_soft)),
            g_round, n_rounds,
        )
        # Every LUN works in parallel; a channel's LUNs then read their
        # output buffers out over the shared channel bus in turn.
        n_channels = -(-n_luns // geometry.luns_per_channel)
        rc = g_round * n_channels + g_lun // geometry.luns_per_channel
        by_channel = np.argsort(rc, kind="stable")
        rc = rc[by_channel]
        rc_heads = run_heads(rc)
        rc_first = np.flatnonzero(rc_heads)
        readout_bytes = n_vectors * 8 + 16
        (readout,) = ordered_sums(
            (readout_bytes[by_channel] / timing.channel_bus_bw + 0.5e-6)[None],
            np.cumsum(rc_heads) - 1, rc_first.size,
        )
        compute = np.maximum.reduceat(lun_time[by_channel], rc_first)
        # Critical-path attribution: the slowest channel's compute time
        # counts as NAND read, the remainder as channel-bus readout.
        rc_round = rc[rc_first] // n_channels
        round_first = np.flatnonzero(run_heads(rc_round))
        t_search = np.zeros(n_rounds)
        t_crit = np.zeros(n_rounds)
        t_search[rc_round[round_first]] = np.maximum.reduceat(
            compute + readout, round_first
        )
        t_crit[rc_round[round_first]] = np.maximum.reduceat(compute, round_first)

        # Gathering stage: Reduce/Apply on the QPT.
        gather_dram = n_pairs * timing.dram_access_s
        gather_cores = n_active * timing.embedded_core_op_s
        t_gather = gather_dram + gather_cores

        # Speculative searching overlaps the next round's scheduling
        # window; it only adds NAND activity + counters.  A page two
        # queries prefetch in one round is sensed once.
        spec_queries = np.bincount(
            cols[0][cols[_ROW["spec_count"]] > 0], minlength=n_rounds
        )
        if (spec_queries > 1).any():
            edges = np.arange(n_rounds + 1) * self._key_space
            _, starts, stops, spec_merged = self._tagged_loads(
                np.concatenate([c.spec_keys for c in compiled]),
                edges[:-1], edges[1:],
            )
            spec_loads = stops - starts
        if not flags.multiplane:
            spec_merged = np.zeros_like(spec_merged)
        spec_nand = (spec_loads - spec_merged) * timing.read_page_s
        spec_mac = spec_vertices * mac_s

        # Host transfers (Fig. 5 steps 1 and 5) and the sorting stage:
        # result lists to the FPGA, top-k back to host.
        query_bytes = batch * (self.dim * 4 + 16)
        t_in = timing.host_transfer_s(query_bytes)
        list_len = sum(max(c.trace_length, 1) for c in compiled) / batch
        list_len = min(int(list_len), 256)
        t_sort = FPGASorter(timing=timing).sort_latency_s(batch, list_len)
        out_bytes = batch * 10 * 8
        t_out = timing.host_transfer_s(out_bytes)

        # Busy time per key, added in replay order: the host-in booking,
        # then each round's two contributions (scheduling before
        # gathering, search before the prefetch), then sort/host-out.
        zero = np.zeros(n_rounds)
        steps = {
            "pcie_host": (t_in, zero, zero, t_out),
            "vgenerator": (0.0, t_vgen, zero, 0.0),
            "allocator": (0.0, t_alloc, zero, 0.0),
            "nand_read": (0.0, t_crit, zero, 0.0),
            "channel_bus": (0.0, t_search - t_crit, zero, 0.0),
            "dram": (0.0, t_dram_sched, gather_dram, 0.0),
            "embedded_cores": (0.0, soft_r, gather_cores, 0.0),
            "fpga_sort": (0.0, zero, zero, t_sort),
            "sin_macs_busy": (0.0, mac_r, spec_mac, 0.0),
            "nand_busy": (0.0, nand_r, spec_nand, 0.0),
            "lun_queues_busy": (0.0, queue_r, zero, 0.0),
            "ecc_busy": (0.0, ecc_r, zero, 0.0),
        }
        opening, firsts, seconds, closing = zip(*steps.values())
        sequence = np.empty((len(steps), 2 * n_rounds + 2))
        sequence[:, 0] = opening
        sequence[:, 1:-1:2] = np.array(firsts)
        sequence[:, 2:-1:2] = np.array(seconds)
        sequence[:, -1] = closing
        busy = dict(zip(steps, np.cumsum(sequence, axis=1)[:, -1].tolist()))

        # The batch clock and its phase timeline, relative to the
        # sub-batch's start: host-in, each round's schedule, search and
        # gather, then sort and host-out.  Host-in/out are distinct
        # resources (full-duplex PCIe), so the serving layer can drain
        # batch N's results while batch N+1's queries stream in.
        clock = np.cumsum(np.concatenate(([t_in], t_sched + t_search + t_gather)))
        t_end = float(clock[-1])
        starts = np.empty(3 * n_rounds + 3)
        durations = np.empty(3 * n_rounds + 3)
        starts[0], durations[0] = 0.0, t_in
        starts[1:-2:3], durations[1:-2:3] = clock[:-1], t_sched
        starts[2:-2:3], durations[2:-2:3] = clock[:-1] + t_sched, t_search
        starts[3:-2:3] = starts[2:-2:3] + t_search
        durations[3:-2:3] = t_gather
        starts[-2:] = t_end, t_end + t_sort
        durations[-2:] = t_sort, t_out
        booked = np.flatnonzero(durations > 0)
        stage = np.concatenate(([0], np.arange(3 * n_rounds) % 3 + 1, [4, 5]))
        labels = _STAGE_LABELS[stage[booked]].tolist()
        bounds = np.empty((booked.size, 2))
        bounds[:, 0] = starts[booked]
        bounds[:, 1] = bounds[:, 0] + durations[booked]
        makespan = t_end + (t_sort + t_out)

        # Counter keys appear in the order a per-round replay first
        # touches them, and only if it touches them (reports serialize
        # zero-valued counters).  A touch's position is (round, stage,
        # index, key rank).
        touched: dict[str, list] = {}

        def count(name: str, position: tuple, value) -> None:
            entry = touched.setdefault(name, [position, 0])
            entry[0] = min(entry[0], position)
            entry[1] += int(value)

        count("pcie_bytes", (-1, 0, 0, 0), query_bytes + out_bytes)
        if n_rounds:
            present = cols[_QUERY_PRESENT] > 0
            for rank, (name, touches, i, total) in enumerate(zip(
                _QUERY_COUNTERS, present.any(axis=1).tolist(),
                present.argmax(axis=1).tolist(),
                per_round[_QUERY_VALUE].sum(axis=1).tolist(),
            )):
                if touches:
                    count(name, (int(cols[0, i]), 0, i, rank), total)
            count("dram_accesses", (0, 1, 0, 0),
                  dram_ops.sum() + n_pairs.sum() + n_active.sum())
        if g_round.size:
            first = (int(g_round[0]), 2, 0)
            page_reads = int(loads.sum())
            count("page_reads", (*first, 0), page_reads)
            count("multiplane_reads", (*first, 1), merged.sum())
            count("ecc_hard_decodes", (*first, 2), page_reads)
            count("internal_bytes", (*first, 4), readout_bytes.sum())
            if failures.any():
                i = int((failures > 0).argmax())
                count("ecc_soft_decodes", (int(g_round[i]), 2, i, 3),
                      failures.sum())
        if spec_queries.any():
            first = (int(np.flatnonzero(spec_queries)[0]), 4, 0)
            spec_reads = int(spec_loads.sum())
            count("speculative_page_reads", (*first, 0), spec_reads)
            count("page_reads", (*first, 1), spec_reads)
            count("ecc_hard_decodes", (*first, 2), spec_reads)
        count("sorted_elements", (n_rounds, 0, 0, 0), batch * list_len)
        counters = Counters({
            name: value
            for name, (_, value) in sorted(
                touched.items(), key=lambda item: item[1][0]
            )
        })
        return makespan, counters, busy, labels, bounds
